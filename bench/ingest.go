package main

import (
	"fmt"
	"io"
	"time"

	"wideplace/internal/scenario"
	"wideplace/internal/xrand"
)

// ingestParams sizes the ingest-group16m workload: paper20-group-full (the
// paper's 16M GROUP requests over 24 hours on its 20-site topology), its
// trace varied by the workload seed, compiled by streaming the requests
// straight into counts.
type ingestParams struct {
	Seeds    int `json:"seeds"`
	Objects  int `json:"objects"`
	Requests int `json:"requests"`
}

// ingestCase is one compile of the pool and its system fingerprint.
type ingestCase struct {
	Seed        uint64 `json:"seed"`
	Fingerprint string `json:"fingerprint"`
}

type ingestRef struct {
	Params ingestParams `json:"params"`
	Pool   []ingestCase `json:"pool"`
}

type ingestWorkload struct {
	p   ingestParams
	ref *ingestRef
}

func (w *ingestWorkload) name() string { return "ingest-group16m" }

// A run makes fewer than twenty compiles, too few for any percentile above
// the median to have ten beyond it: the tail is the slowest compile.
func (w *ingestWorkload) tail() float64 { return 1 }

func (w *ingestWorkload) useRef(data []byte) error {
	w.ref = &ingestRef{}
	return decodeRef(w.name(), data, w.ref, &w.ref.Params, &w.p)
}

func (p ingestParams) spec(seed uint64, requests int) (scenario.Spec, error) {
	s, err := scenario.Get("paper20-group-full")
	if err != nil {
		return s, err
	}
	s.Name = fmt.Sprintf("ingest-group-%d", seed)
	s.Workload.Seed = seed
	s.Workload.Objects = p.Objects
	s.Workload.Requests = requests
	return s, s.Validate()
}

func compileStreamed(spec scenario.Spec) (*scenario.Result, error) {
	return scenario.CompileWith(spec, scenario.CompileOptions{Streaming: scenario.StreamOn})
}

func (w *ingestWorkload) makeRef(io.Writer) (any, error) {
	ref := &ingestRef{Params: w.p}
	for seed := uint64(1); seed <= uint64(w.p.Seeds); seed++ {
		spec, err := w.p.spec(seed, w.p.Requests)
		if err != nil {
			return nil, err
		}
		res, err := compileStreamed(spec)
		if err != nil {
			return nil, err
		}
		ref.Pool = append(ref.Pool, ingestCase{Seed: seed, Fingerprint: res.Fingerprint})
	}
	return ref, nil
}

type ingestInput struct {
	ref  *ingestCase
	spec scenario.Spec
}

type ingestSession struct {
	plan []ingestInput
}

// setup orders the pool by the seed and runs one compile at a sixteenth
// of the volume, so that the measured compiles find the code paths warm and
// the heap grown.
func (w *ingestWorkload) setup(seed uint64, tr *tracer) (session, error) {
	root := tr.begin("bench.setup", w.name(), -1, 0)
	defer tr.end(root)
	s := &ingestSession{}
	for _, k := range xrand.New(seed).Perm(len(w.ref.Pool)) {
		c := &w.ref.Pool[k]
		spec, err := w.p.spec(c.Seed, w.p.Requests)
		if err != nil {
			return nil, err
		}
		s.plan = append(s.plan, ingestInput{c, spec})
	}
	warm, err := w.p.spec(s.plan[0].ref.Seed, w.p.Requests/16)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("bench.warmup_compile", warm.Name, root, 0)
	_, err = compileStreamed(warm)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Compiles run one at a time, as a batch ingest would.
func (s *ingestSession) callers() int { return 1 }
func (s *ingestSession) close()       {}

func (s *ingestSession) op(i int, tr *tracer, lane int) outcome {
	in := s.plan[i%len(s.plan)]
	id := fmt.Sprintf("compile/%d", i)
	sp := tr.begin("scenario.compile", id, -1, lane)
	start := time.Now()
	res, err := compileStreamed(in.spec)
	end := time.Now()
	tr.end(sp)
	d := end.Sub(start)
	o := outcome{samples: []time.Duration{d}, busy: d, attempted: 1, counters: counters{}}
	switch {
	case err != nil:
		o.failed = 1
		o.problems = []string{fmt.Sprintf("%s: %v", in.spec.Name, err)}
		return o
	case !res.Streamed:
		o.failed = 1
		o.problems = []string{in.spec.Name + ": the compile materialized the trace instead of streaming it"}
		return o
	case res.Fingerprint != in.ref.Fingerprint:
		o.failed = 1
		o.problems = []string{fmt.Sprintf("%s: fingerprint %s, reference %s", in.spec.Name, res.Fingerprint, in.ref.Fingerprint)}
		return o
	}
	o.answer = res.Fingerprint
	o.work = float64(res.System.Spec.Requests)
	reads, writes := res.System.Counts.NNZ()
	o.counters["workload.counts_nnz"] = float64(reads + writes)
	o.counters["workload.requests"] = o.work
	if tr != nil {
		// The compile is one call; its two heavy parts are timed by
		// calling them again, and drawn as its children: the streamed
		// aggregation first, the fingerprint last.
		t0 := time.Now()
		st, err := in.spec.WorkloadStream()
		if err == nil {
			counts, cerr := st.Counts(in.spec.Delta())
			switch {
			case cerr != nil:
				err = cerr
			case !counts.Equal(res.System.Counts):
				err = fmt.Errorf("re-aggregated counts differ from the compiled ones")
			}
		}
		countsD := time.Since(t0)
		t1 := time.Now()
		fp, ferr := scenario.Fingerprint(res.System)
		fpD := time.Since(t1)
		switch {
		case err != nil:
			o.failed, o.work = 1, 0
			o.problems = []string{fmt.Sprintf("%s: %v", in.spec.Name, err)}
		case ferr != nil || fp != res.Fingerprint:
			o.failed, o.work = 1, 0
			o.problems = []string{fmt.Sprintf("%s: fingerprint does not repeat: %v", in.spec.Name, ferr)}
		}
		tr.add("workload.counts", id, sp, lane, start, start.Add(countsD))
		tr.add("scenario.fingerprint", id, sp, lane, end.Add(-fpD), end)
	}
	return o
}

func (w *ingestWorkload) layers(c, _ counters, tr *tracer, compiles int) map[string]float64 {
	v := make(map[string]float64)
	countsS := mean(tr.durations("workload.counts", "*")).Seconds()
	v["workload.counts_s"] = countsS
	v["workload.requests_per_s"] = ratio(c["workload.requests"]/float64(compiles), countsS)
	v["workload.counts_nnz"] = ratio(c["workload.counts_nnz"], float64(compiles))
	v["scenario.compile_s"] = mean(tr.durations("scenario.compile", "*")).Seconds()
	v["scenario.fingerprint_s"] = mean(tr.durations("scenario.fingerprint", "*")).Seconds()
	v["scenario.compile_other_s"] = mean(tr.selfOf("scenario.compile")).Seconds()
	return v
}
