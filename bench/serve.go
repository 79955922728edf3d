package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"wideplace/internal/experiments"
	"wideplace/internal/scenario"
	"wideplace/internal/server"
	"wideplace/internal/xrand"
)

// serveParams sizes the serve-mixed workload: an in-process placement
// service (2 workers, serial sweeps) behind a loopback HTTP listener, with
// Clients closed-loop callers. Every FreshEvery-th job asks a new small
// scenario question; the others repeat one of Hot explicit topology+trace
// bodies that set-up has already solved, so they are answered from the
// result cache without reaching the solver.
type serveParams struct {
	Hot               int `json:"hot"`     // hot bodies per run
	HotPool           int `json:"hotPool"` // vetted hot bodies to draw them from
	HotObjects        int `json:"hotObjects"`
	HotRequests       int `json:"hotRequests"`
	FreshPerKind      int `json:"freshPerKind"` // vetted fresh questions per workload kind
	FreshObjects      int `json:"freshObjects"`
	FreshRequests     int `json:"freshRequests"`
	FreshHorizonHours int `json:"freshHorizonHours"`
	FreshEvery        int `json:"freshEvery"`
	Clients           int `json:"clients"`
}

// serveCase is one pool question and the SHA-256 of its TSV answer as an
// in-process sweep renders it.
type serveCase struct {
	Kind string `json:"kind"`
	Seed uint64 `json:"seed"`
	TSV  string `json:"tsvSHA256"`
}

type serveRef struct {
	Params   serveParams `json:"params"`
	Hot      []serveCase `json:"hot"`
	Fresh    []serveCase `json:"fresh"`
	Excluded []excluded  `json:"excluded,omitempty"`
}

type serveWorkload struct {
	p   serveParams
	ref *serveRef
}

func (w *serveWorkload) name() string { return "serve-mixed" }

// A run answers several hundred jobs: the 95th percentile has ten or more
// beyond it, and sits among the fresh jobs' solves.
func (w *serveWorkload) tail() float64 { return 0.95 }

func (w *serveWorkload) useRef(data []byte) error {
	w.ref = &serveRef{}
	return decodeRef(w.name(), data, w.ref, &w.ref.Params, &w.p)
}

// The questions share one 10-site topology (seed 1); the workload seed
// varies the trace.
var serveQoS = []float64{0.9, 0.95, 0.99}

func (p serveParams) spec(kind string, seed uint64, objects, requests int, horizon time.Duration) (scenario.Spec, error) {
	s := scenario.Spec{
		Name:     fmt.Sprintf("serve-%s-%d", kind, seed),
		Seed:     1,
		Topology: scenario.TopologySpec{Model: scenario.TopoRandomAS, Nodes: 10},
		Workload: scenario.WorkloadSpec{Model: kind, Objects: objects, Requests: requests,
			HorizonMillis: horizon.Milliseconds(), Seed: seed},
		DeltaMillis: time.Hour.Milliseconds(),
		QoS:         serveQoS,
	}
	return s, s.Validate()
}

// hotBody is the explicit topology+trace question of a hot case.
func (p serveParams) hotBody(seed uint64, tr *tracer, parent int) ([]byte, error) {
	spec, err := p.spec(scenario.WorkWeb, seed, p.HotObjects, p.HotRequests, 8*time.Hour)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("scenario.compile", spec.Name, parent, 0)
	res, err := scenario.CompileWith(spec, scenario.CompileOptions{Streaming: scenario.StreamOff})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return json.Marshal(server.JobRequest{Topology: res.System.Topo, Trace: res.System.Trace,
		DeltaMillis: spec.DeltaMillis, QoS: serveQoS})
}

// freshBody is the scenario question of a fresh case.
func (p serveParams) freshBody(kind string, seed uint64) ([]byte, error) {
	spec, err := p.spec(kind, seed, p.FreshObjects, p.FreshRequests, time.Duration(p.FreshHorizonHours)*time.Hour)
	if err != nil {
		return nil, err
	}
	return json.Marshal(server.JobRequest{Scenario: &spec})
}

// localTSV answers a job body in process, as the service would: the
// explicit form runs Figure 1 on experiments.NewSystem, the scenario form
// sweeps the compiled scenario's classes.
func localTSV(body []byte) (string, error) {
	var req server.JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return "", err
	}
	opts := experiments.Options{Parallel: 1}
	var (
		fig *experiments.Figure
		err error
	)
	if req.Scenario != nil {
		res, cerr := scenario.Compile(*req.Scenario)
		if cerr != nil {
			return "", cerr
		}
		fig, err = experiments.Sweep(res.System, res.Classes, "", opts, nil)
	} else {
		sys, serr := experiments.NewSystem(req.Topology, req.Trace, time.Duration(req.DeltaMillis)*time.Millisecond, 150, req.QoS)
		if serr != nil {
			return "", serr
		}
		fig, err = experiments.Figure1(sys, opts, nil)
	}
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := fig.WriteTSV(&buf); err != nil {
		return "", err
	}
	return tsvDigest(buf.Bytes()), nil
}

func tsvDigest(tsv []byte) string {
	s := sha256.Sum256(tsv)
	return hex.EncodeToString(s[:])
}

func (w *serveWorkload) makeRef(log io.Writer) (any, error) {
	ref := &serveRef{Params: w.p}
	vet := func(kind string, seed uint64, body []byte, err error) (serveCase, bool, error) {
		if err != nil {
			return serveCase{}, false, err
		}
		tsv, err := localTSV(body)
		if err != nil {
			name := fmt.Sprintf("serve-%s-%d", kind, seed)
			fmt.Fprintf(log, "bench: %s: excluded: %v\n", name, err)
			ref.Excluded = append(ref.Excluded, excluded{name, err.Error()})
			return serveCase{}, false, nil
		}
		return serveCase{Kind: kind, Seed: seed, TSV: tsv}, true, nil
	}
	for seed := uint64(1); len(ref.Hot) < w.p.HotPool; seed++ {
		body, err := w.p.hotBody(seed, nil, -1)
		c, ok, err := vet(scenario.WorkWeb, seed, body, err)
		if err != nil {
			return nil, err
		}
		if ok {
			ref.Hot = append(ref.Hot, c)
		}
	}
	for _, kind := range []string{scenario.WorkWeb, scenario.WorkGroup} {
		for seed, n := uint64(1), 0; n < w.p.FreshPerKind; seed++ {
			body, err := w.p.freshBody(kind, seed)
			c, ok, err := vet(kind, seed, body, err)
			if err != nil {
				return nil, err
			}
			if ok {
				ref.Fresh = append(ref.Fresh, c)
				n++
			}
		}
	}
	return ref, nil
}

type serveJob struct {
	body []byte
	ref  *serveCase
}

type serveSession struct {
	p      serveParams
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	hot    []serveJob
	fresh  []serveJob // in the run's order
}

func (w *serveWorkload) setup(seed uint64, tr *tracer) (session, error) {
	root := tr.begin("bench.setup", w.name(), -1, 0)
	defer tr.end(root)
	s := &serveSession{p: w.p}
	rng := xrand.New(seed)
	for _, k := range rng.Perm(len(w.ref.Hot))[:w.p.Hot] {
		c := &w.ref.Hot[k]
		body, err := w.p.hotBody(c.Seed, tr, root)
		if err != nil {
			return nil, err
		}
		s.hot = append(s.hot, serveJob{body, c})
	}
	for _, k := range rng.Perm(len(w.ref.Fresh)) {
		c := &w.ref.Fresh[k]
		body, err := w.p.freshBody(c.Kind, c.Seed)
		if err != nil {
			return nil, err
		}
		s.fresh = append(s.fresh, serveJob{body, c})
	}
	s.srv = server.New(server.Config{Workers: 2, Parallel: 1})
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = s.ts.Client()

	// Warm the hot set: solve every hot body once, concurrently on the
	// service's two workers, and hold each answer to its reference.
	ids := make([]string, len(s.hot))
	for h, j := range s.hot {
		view, err := s.submit(j.body)
		if err != nil {
			s.close()
			return nil, err
		}
		ids[h] = view.ID
	}
	for h, j := range s.hot {
		if err := s.await(ids[h], j.ref); err != nil {
			s.close()
			return nil, fmt.Errorf("warming hot body %d: %w", j.ref.Seed, err)
		}
	}
	return s, nil
}

func (s *serveSession) callers() int { return s.p.Clients }

func (s *serveSession) close() {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.srv.Drain(ctx) //nolint:errcheck // on timeout Drain cancels the remaining jobs itself
}

// job picks operation i's question: every FreshEvery-th is the next fresh
// one, the rest cycle through the hot set.
func (s *serveSession) job(i int) serveJob {
	if i%s.p.FreshEvery == 0 {
		return s.fresh[(i/s.p.FreshEvery)%len(s.fresh)]
	}
	h := i - i/s.p.FreshEvery - 1
	return s.hot[h%len(s.hot)]
}

func (s *serveSession) op(i int, tr *tracer, lane int) outcome {
	j := s.job(i)
	id := fmt.Sprintf("job/%d", i)
	o := outcome{attempted: 1, counters: counters{}}
	root := tr.begin("bench.job", id, -1, lane)
	start := time.Now()
	tsv, cached, err := s.roundTrip(j.body, tr, id, root, lane)
	lat := time.Since(start)
	tag := "miss"
	if cached {
		tag = "hit"
	}
	tr.endTag(root, tag)
	o.samples = []time.Duration{lat}
	o.busy = lat
	o.counters["server.request_bytes"] = float64(len(j.body))
	if cached {
		o.counters["server.hits"] = 1
	}
	name := fmt.Sprintf("serve-%s-%d", j.ref.Kind, j.ref.Seed)
	switch {
	case err != nil:
		o.failed = 1
		o.problems = []string{fmt.Sprintf("%s: %v", name, err)}
		if strings.Contains(err.Error(), "numerical failure") {
			o.counters["lp.numerical_failures"] = 1
		}
	case tsvDigest(tsv) != j.ref.TSV:
		o.failed = 1
		o.problems = []string{fmt.Sprintf("%s: TSV differs from the reference", name)}
	default:
		o.work = 1
		o.answer = tsvDigest(tsv)
	}
	return o
}

// roundTrip asks one question as a client does: POST /jobs, follow
// /jobs/{id}/stream to its trailer, then fetch the TSV result. It reports
// whether the submit was answered from the result cache.
func (s *serveSession) roundTrip(body []byte, tr *tracer, id string, root, lane int) ([]byte, bool, error) {
	sp := tr.begin("server.submit", id, root, lane)
	view, err := s.submit(body)
	tr.end(sp)
	if err != nil {
		return nil, false, err
	}
	sp = tr.begin("server.stream", id, root, lane)
	final, err := s.stream(view.ID)
	tr.end(sp)
	if err != nil {
		return nil, view.Cached, err
	}
	if final.State != server.StateDone {
		return nil, view.Cached, fmt.Errorf("job %s ended %s: %s", view.ID, final.State, final.Error)
	}
	if !view.Cached && final.Started != nil && final.Finished != nil {
		// The job's own timestamps split the stream wait into queueing
		// and the sweep itself.
		tr.add("server.queue_wait", id, sp, lane, final.Created, *final.Started)
		tr.add("experiments.job_run", id, sp, lane, *final.Started, *final.Finished)
	}
	sp = tr.begin("server.result", id, root, lane)
	tsv, err := s.get("/jobs/" + view.ID + "/result?format=tsv")
	tr.end(sp)
	return tsv, view.Cached, err
}

// await follows a job to its end and checks its TSV against the reference.
func (s *serveSession) await(id string, ref *serveCase) error {
	final, err := s.stream(id)
	if err != nil {
		return err
	}
	if final.State != server.StateDone {
		return fmt.Errorf("job %s ended %s: %s", id, final.State, final.Error)
	}
	tsv, err := s.get("/jobs/" + id + "/result?format=tsv")
	if err != nil {
		return err
	}
	if tsvDigest(tsv) != ref.TSV {
		return fmt.Errorf("job %s: TSV differs from the reference", id)
	}
	return nil
}

func (s *serveSession) submit(body []byte) (server.JobView, error) {
	var view server.JobView
	resp, err := s.client.Post(s.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return view, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return view, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return view, json.Unmarshal(data, &view)
}

// stream reads a job's NDJSON stream to its end and returns the trailer's
// view, the stream's last job line.
func (s *serveSession) stream(id string) (server.JobView, error) {
	var final server.JobView
	resp, err := s.client.Get(s.ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		return final, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return final, fmt.Errorf("GET stream: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	found := false
	for sc.Scan() {
		var line struct {
			Type string         `json:"type"`
			Job  server.JobView `json:"job"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return final, fmt.Errorf("stream line: %w", err)
		}
		if line.Type == "job" {
			final, found = line.Job, true
		}
	}
	if err := sc.Err(); err != nil {
		return final, err
	}
	if !found {
		return final, fmt.Errorf("stream of job %s carried no job line", id)
	}
	return final, nil
}

func (s *serveSession) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, nil
}

func (w *serveWorkload) layers(c, _ counters, tr *tracer, jobs int) map[string]float64 {
	v := make(map[string]float64)
	v["lp.numerical_failures"] = c["lp.numerical_failures"]
	v["scenario.compile_s"] = mean(tr.durations("scenario.compile", "*")).Seconds()
	v["server.job_hit_p50_ms"] = ms(quantile(tr.durations("bench.job", "hit"), 0.5))
	v["server.job_hit_p95_ms"] = ms(quantile(tr.durations("bench.job", "hit"), 0.95))
	v["server.job_miss_p50_ms"] = ms(quantile(tr.durations("bench.job", "miss"), 0.5))
	v["server.job_miss_p90_ms"] = ms(quantile(tr.durations("bench.job", "miss"), 0.9))
	v["server.submit_ms_p50"] = ms(quantile(tr.durations("server.submit", "*"), 0.5))
	v["server.result_ms_p50"] = ms(quantile(tr.durations("server.result", "*"), 0.5))
	v["server.request_kb_mean"] = ratio(c["server.request_bytes"]/1024, float64(jobs))
	v["server.cache_hit_ratio"] = ratio(c["server.hits"], float64(jobs))

	// Miss-only timings: the stream wait, the service's queue wait and
	// run time (from the job's own timestamps), and the client latency the
	// run does not explain.
	miss := make(map[string]bool)
	latency := make(map[string]time.Duration)
	var stream, run, queue, overhead []time.Duration
	for _, s := range tr.spans {
		if s.name == "bench.job" && s.tag == "miss" {
			miss[s.id] = true
			latency[s.id] = s.end - s.start
		}
	}
	for _, s := range tr.spans {
		if !miss[s.id] {
			continue
		}
		switch s.name {
		case "server.stream":
			stream = append(stream, s.end-s.start)
		case "server.queue_wait":
			queue = append(queue, s.end-s.start)
		case "experiments.job_run":
			run = append(run, s.end-s.start)
			overhead = append(overhead, latency[s.id]-(s.end-s.start))
		}
	}
	v["server.stream_ms_p50"] = ms(quantile(stream, 0.5))
	v["server.run_ms_p50"] = ms(quantile(run, 0.5))
	v["server.queue_wait_ms_p50"] = ms(quantile(queue, 0.5))
	v["server.overhead_ms_p50"] = ms(quantile(overhead, 0.5))
	return v
}
