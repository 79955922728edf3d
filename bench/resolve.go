package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"wideplace/internal/controller"
	"wideplace/internal/core"
	"wideplace/internal/lp"
	"wideplace/internal/scenario"
	"wideplace/internal/xrand"
)

// resolveParams sizes the resolve-diurnal workload: diurnal-shift on its
// own 24-site transit-stub topology, re-bucketed to a short control
// interval, its demand trace varied by the workload seed, replayed through
// the controller in reactive mode at several QoS goals.
type resolveParams struct {
	Seeds        int       `json:"seeds"` // workload seeds in the pool
	TQoS         []float64 `json:"tqos"`
	DeltaMinutes int       `json:"deltaMinutes"`
	Requests     int       `json:"requests"`
}

// resolveCase is one replay of the pool and the sum of its interval bounds.
type resolveCase struct {
	Seed     uint64  `json:"seed"`
	TQoS     float64 `json:"tqos"`
	BoundSum float64 `json:"boundSum"`
}

type resolveRef struct {
	Params   resolveParams `json:"params"`
	Pool     []resolveCase `json:"pool"`
	Excluded []excluded    `json:"excluded,omitempty"`
}

type resolveWorkload struct {
	p   resolveParams
	ref *resolveRef
}

func (w *resolveWorkload) name() string { return "resolve-diurnal" }

// A run makes several thousand steps: the 99th percentile has dozens
// beyond it.
func (w *resolveWorkload) tail() float64 { return 0.99 }

func (w *resolveWorkload) useRef(data []byte) error {
	w.ref = &resolveRef{}
	return decodeRef(w.name(), data, w.ref, &w.ref.Params, &w.p)
}

func (p resolveParams) spec(seed uint64) (scenario.Spec, error) {
	s, err := scenario.Get("diurnal-shift")
	if err != nil {
		return s, err
	}
	s.Name = fmt.Sprintf("resolve-diurnal-%d", seed)
	s.Workload.Seed = seed
	s.Workload.Requests = p.Requests
	s.DeltaMillis = (time.Duration(p.DeltaMinutes) * time.Minute).Milliseconds()
	return s, s.Validate()
}

func (w *resolveWorkload) makeRef(log io.Writer) (any, error) {
	ref := &resolveRef{Params: w.p}
	for seed := uint64(1); seed <= uint64(w.p.Seeds); seed++ {
		spec, err := w.p.spec(seed)
		if err != nil {
			return nil, err
		}
		res, err := compileStreamed(spec)
		if err != nil {
			return nil, err
		}
		for _, q := range w.p.TQoS {
			c := resolveCase{Seed: seed, TQoS: q}
			r := replay(res, &c, nil, "", 0)
			if r.err != nil {
				fmt.Fprintf(log, "bench: %s at %g: excluded: %v\n", spec.Name, q, r.err)
				ref.Excluded = append(ref.Excluded, excluded{fmt.Sprintf("%s@%g", spec.Name, q), r.err.Error()})
				continue
			}
			c.BoundSum = r.boundSum
			ref.Pool = append(ref.Pool, c)
		}
	}
	return ref, nil
}

type resolveInput struct {
	ref *resolveCase
	res *scenario.Result
}

type resolveSession struct {
	plan []resolveInput
}

func (w *resolveWorkload) setup(seed uint64, tr *tracer) (session, error) {
	root := tr.begin("bench.setup", w.name(), -1, 0)
	defer tr.end(root)
	compiled := make(map[uint64]*scenario.Result)
	s := &resolveSession{}
	for _, k := range xrand.New(seed).Perm(len(w.ref.Pool)) {
		c := &w.ref.Pool[k]
		res := compiled[c.Seed]
		if res == nil {
			spec, err := w.p.spec(c.Seed)
			if err != nil {
				return nil, err
			}
			sp := tr.begin("scenario.compile", spec.Name, root, 0)
			res, err = compileStreamed(spec)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			compiled[c.Seed] = res
		}
		s.plan = append(s.plan, resolveInput{c, res})
	}
	return s, nil
}

// The controller is single-threaded: one replay at a time.
func (s *resolveSession) callers() int { return 1 }
func (s *resolveSession) close()       {}

func (s *resolveSession) op(i int, tr *tracer, lane int) outcome {
	in := s.plan[i%len(s.plan)]
	r := replay(in.res, in.ref, tr, fmt.Sprintf("replay/%d", i), lane)
	o := outcome{samples: r.steps, busy: r.wall, attempted: in.res.System.Counts.Intervals,
		answer: r.answer, counters: r.counters}
	name := fmt.Sprintf("%s at %g", in.res.Spec.Name, in.ref.TQoS)
	switch {
	case r.err != nil:
		// A failed step ends the replay and Replay returns no trajectory:
		// every step of it fails.
		o.failed = o.attempted
		o.problems = []string{fmt.Sprintf("%s: %v", name, r.err)}
		if errors.Is(r.err, lp.ErrNumerical) {
			o.counters["lp.numerical_failures"]++
		}
	case len(r.problems) > 0:
		o.failed = o.attempted
		for _, p := range r.problems {
			o.problems = append(o.problems, name+": "+p)
		}
	case !near(r.boundSum, in.ref.BoundSum):
		o.failed = o.attempted
		o.problems = []string{fmt.Sprintf("%s: bounds sum to %v, reference %v", name, r.boundSum, in.ref.BoundSum)}
	default:
		o.work = float64(o.attempted)
	}
	return o
}

type replayResult struct {
	wall     time.Duration   // the controller.Replay call
	steps    []time.Duration // latency of each Controller.Step (StepResult.WallNs)
	boundSum float64
	answer   string
	counters counters
	problems []string
	err      error
}

// replay runs one reactive controller.Replay, in which interval i is
// planned from interval i-1's demand, and checks its trajectory: each
// step's placement diff must rebuild its placement through
// controller.ApplyDiffs.
func replay(res *scenario.Result, c *resolveCase, tr *tracer, id string, lane int) replayResult {
	r := replayResult{counters: counters{}}
	root := tr.begin("bench.replay", id, -1, lane)
	defer tr.end(root)
	sys := res.System
	counts := sys.Counts
	cfg := controller.Config{Topo: sys.Topo, Objects: counts.Objects, Delta: counts.Delta,
		Cost: core.DefaultCost(), Goal: core.QoS(c.TQoS, sys.Spec.Tlat)}
	sp := tr.begin("controller.replay", id, root, lane)
	start := time.Now()
	traj, err := controller.Replay(cfg, counts, false)
	r.wall = time.Since(start)
	tr.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	var (
		place  [][]bool
		answer strings.Builder
		at     = start
	)
	for _, st := range traj.Steps {
		d := time.Duration(st.WallNs)
		r.steps = append(r.steps, d)
		// Replay does not say when each step began: the step spans are
		// laid end to end from the start of the call, so that their
		// durations are exact and their placement approximate.
		step := tr.add("controller.step", id, sp, lane, at, at.Add(d))
		tr.add("lp.solve", id, step, lane, at.Add(d-st.Stats.Wall), at.Add(d))
		at = at.Add(d)

		r.boundSum += st.Bound
		fmt.Fprintf(&answer, "%x/%x;", math.Float64bits(st.Bound), math.Float64bits(st.Cost))
		place = controller.ApplyDiffs(place, st.Diffs, counts.Nodes, counts.Objects)
		if !samePlacement(place, st.Placement, sys.Topo.Origin) {
			r.problems = append(r.problems, fmt.Sprintf("interval %d: applying the diffs does not rebuild the placement", st.Interval))
		}
		addStats(r.counters, st.Stats)
		r.counters["controller.changed_coefs"] += float64(st.ChangedCoefs)
		r.counters["controller.churn"] += float64(st.Adds + st.Drops)
		r.counters["controller.staleness"] += st.Staleness
		if st.Bound > 0 {
			r.counters["gap.sum"] += (st.Cost - st.Bound) / st.Bound
			r.counters["gap.n"]++
		}
	}
	r.answer = digest(answer.String())
	if tr != nil {
		// Replay is one call; the two public calls it makes besides Step
		// are timed by calling them again.
		sp := tr.begin("controller.new", id, root, lane)
		_, err := controller.New(cfg)
		tr.end(sp)
		for iv := 0; err == nil && iv < counts.Intervals; iv++ {
			sp := tr.begin("workload.interval_reads", id, root, lane)
			_, err = counts.IntervalReads(iv)
			tr.end(sp)
		}
		if err != nil {
			r.problems = append(r.problems, fmt.Sprintf("repeating a call of the replay: %v", err))
		}
	}
	return r
}

// samePlacement compares two placements off the origin, whose replicas
// the diffs never carry.
func samePlacement(a, b [][]bool, origin int) bool {
	for n := range b {
		if n == origin {
			continue
		}
		for k := range b[n] {
			if a[n][k] != b[n][k] {
				return false
			}
		}
	}
	return true
}

func (w *resolveWorkload) layers(c, _ counters, tr *tracer, steps int) map[string]float64 {
	v := make(map[string]float64)
	lpLayers(v, c, steps)
	v["lp.ns_per_iteration"] = ratio(c["lp.wall_s"]*1e9, c["lp.iterations"])
	v["lp.step_solve_ms_p50"] = ms(quantile(tr.durations("lp.solve", "*"), 0.5))
	v["scenario.compile_s"] = mean(tr.durations("scenario.compile", "*")).Seconds()
	v["workload.interval_reads_us_p50"] = quantile(tr.durations("workload.interval_reads", "*"), 0.5).Seconds() * 1e6
	v["controller.new_ms"] = ms(mean(tr.durations("controller.new", "*")))
	v["controller.self_ms_p50"] = ms(quantile(tr.selfOf("controller.step"), 0.5))
	v["controller.changed_coefs_mean"] = ratio(c["controller.changed_coefs"], float64(steps))
	v["controller.churn_mean"] = ratio(c["controller.churn"], float64(steps))
	v["controller.staleness_mean"] = ratio(c["controller.staleness"], float64(steps))
	return v
}
