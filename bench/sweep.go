package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wideplace/internal/core"
	"wideplace/internal/experiments"
	"wideplace/internal/lp"
	"wideplace/internal/scenario"
	"wideplace/internal/xrand"
)

// sweepParams sizes the sweep-paper20 workload. Every instance keeps the
// paper's 20-node topology (paper20's topology seed) and Figure-1 grid — six
// classes by five QoS points, warm-chained, with rounding — and varies the
// WEB or GROUP trace by its workload seed. Objects and horizon are cut from
// paper20's 24 objects over 8 hours so that one sweep takes a few tenths of
// a second and a run averages over dozens of traces.
type sweepParams struct {
	PerKind       int `json:"perKind"` // vetted instances per workload kind in the pool
	Objects       int `json:"objects"`
	HorizonHours  int `json:"horizonHours"`
	WebRequests   int `json:"webRequests"`
	GroupRequests int `json:"groupRequests"`
}

// sweepCase is one pool instance and its reference answer, cells in
// class-major order.
type sweepCase struct {
	Kind       string    `json:"kind"`
	Seed       uint64    `json:"seed"`
	Bound      []float64 `json:"bound"`
	Feasible   []float64 `json:"feasible"`
	Infeasible []int     `json:"infeasible,omitempty"`
}

type sweepRef struct {
	Params   sweepParams `json:"params"`
	Pool     []sweepCase `json:"pool"`
	Excluded []excluded  `json:"excluded,omitempty"`
}

// excluded is a pool candidate the reference run dropped because it
// failed; a fix to the solver can claim it.
type excluded struct {
	Case  string `json:"case"`
	Error string `json:"error"`
}

type sweepWorkload struct {
	p   sweepParams
	ref *sweepRef
}

func (w *sweepWorkload) name() string { return "sweep-paper20" }

// A run computes about 30 figure pairs: the 67th percentile has ten
// beyond it.
func (w *sweepWorkload) tail() float64 { return 2.0 / 3 }

func (w *sweepWorkload) useRef(data []byte) error {
	w.ref = &sweepRef{}
	return decodeRef(w.name(), data, w.ref, &w.ref.Params, &w.p)
}

func (p sweepParams) spec(kind string, seed uint64) (scenario.Spec, error) {
	s, err := scenario.Get("paper20-" + kind)
	if err != nil {
		return s, err
	}
	s.Name = fmt.Sprintf("sweep-paper20-%s-%d", kind, seed)
	s.Workload.Seed = seed
	s.Workload.Objects = p.Objects
	s.Workload.HorizonMillis = (time.Duration(p.HorizonHours) * time.Hour).Milliseconds()
	s.Workload.Requests = p.WebRequests
	if kind == scenario.WorkGroup {
		s.Workload.Requests = p.GroupRequests
	}
	return s, s.Validate()
}

func (w *sweepWorkload) makeRef(log io.Writer) (any, error) {
	ref := &sweepRef{Params: w.p}
	for _, kind := range []string{scenario.WorkWeb, scenario.WorkGroup} {
		for seed, n := uint64(1), 0; n < w.p.PerKind; seed++ {
			spec, err := w.p.spec(kind, seed)
			if err != nil {
				return nil, err
			}
			res, err := scenario.Compile(spec)
			if err != nil {
				return nil, err
			}
			pts, _, err := sweepGrid(res, nil, "", 0)
			if err != nil {
				fmt.Fprintf(log, "bench: %s: excluded: %v\n", spec.Name, err)
				ref.Excluded = append(ref.Excluded, excluded{spec.Name, err.Error()})
				continue
			}
			c := sweepCase{Kind: kind, Seed: seed}
			for k, p := range flatten(pts) {
				c.Bound = append(c.Bound, p.Bound)
				c.Feasible = append(c.Feasible, p.Feasible)
				if p.Infeasible {
					c.Infeasible = append(c.Infeasible, k)
				}
			}
			ref.Pool = append(ref.Pool, c)
			n++
		}
	}
	return ref, nil
}

type sweepInput struct {
	ref *sweepCase
	res *scenario.Result
}

// sweepSession holds a run's WEB and GROUP instances, each kind in the
// order the seed drew.
type sweepSession struct {
	web, group []sweepInput
}

func (w *sweepWorkload) setup(seed uint64, tr *tracer) (session, error) {
	root := tr.begin("bench.setup", w.name(), -1, 0)
	defer tr.end(root)
	s := &sweepSession{}
	for _, k := range xrand.New(seed).Perm(len(w.ref.Pool)) {
		c := &w.ref.Pool[k]
		spec, err := w.p.spec(c.Kind, c.Seed)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("scenario.compile", spec.Name, root, 0)
		res, err := scenario.Compile(spec)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if c.Kind == scenario.WorkWeb {
			s.web = append(s.web, sweepInput{c, res})
		} else {
			s.group = append(s.group, sweepInput{c, res})
		}
	}
	return s, nil
}

// One operation at a time; each sweep runs two columns in parallel.
func (s *sweepSession) callers() int { return 1 }
func (s *sweepSession) close()       {}

// op computes the paper's Figure 1 for one WEB and one GROUP trace: two
// sweeps, back to back, timed together as one latency sample.
func (s *sweepSession) op(i int, tr *tracer, lane int) outcome {
	o := outcome{counters: counters{}}
	start := time.Now()
	for _, in := range []sweepInput{s.web[i%len(s.web)], s.group[i%len(s.group)]} {
		runSweep(&o, in, tr, fmt.Sprintf("sweep/%d/%s", i, in.ref.Kind), lane)
	}
	o.busy = time.Since(start)
	o.samples = []time.Duration{o.busy}
	return o
}

// runSweep runs one sweep, checks it against its reference and adds it to
// the operation's outcome.
func runSweep(o *outcome, in sweepInput, tr *tracer, id string, lane int) {
	o.attempted++
	start := time.Now()
	pts, vars, err := sweepGrid(in.res, tr, id, lane)
	d := time.Since(start)
	o.answer += sweepAnswer(pts, err)
	name := in.res.Spec.Name
	if err != nil {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf("%s: %v", name, err))
		if errors.Is(err, lp.ErrNumerical) {
			o.counters["lp.numerical_failures"]++
		}
		return
	}
	cells := flatten(pts)
	if probs := checkSweep(cells, in.ref); len(probs) > 0 {
		o.failed++
		for _, p := range probs {
			o.problems = append(o.problems, name+": "+p)
		}
		return
	}
	o.work += float64(len(cells))
	o.counters["core.lp_vars"] += float64(vars)
	o.counters["experiments.sweep_"+in.ref.Kind+"_s"] += d.Seconds()
	o.counters["sweeps."+in.ref.Kind]++
	for _, p := range cells {
		if p.Infeasible {
			continue
		}
		addStats(o.counters, p.Stats)
		o.counters["cells.solved"]++
		if p.Bound > 0 {
			o.counters["gap.sum"] += (p.Feasible - p.Bound) / p.Bound
			o.counters["gap.n"]++
		}
	}
}

// sweepGrid computes the Figure-1 grid of a compiled instance at
// Parallel=2: through experiments.Sweep when tr is nil, else by the traced
// replay, which also returns the LP variable count summed over solved cells.
func sweepGrid(res *scenario.Result, tr *tracer, id string, lane int) ([][]experiments.Point, int, error) {
	if tr != nil {
		return replaySweep(res.System, res.Classes, tr, id, lane)
	}
	fig, err := experiments.Sweep(res.System, res.Classes, "", experiments.Options{Parallel: 2}, nil)
	if err != nil {
		return nil, 0, err
	}
	pts := make([][]experiments.Point, len(fig.Series))
	for c, s := range fig.Series {
		pts[c] = s.Points
	}
	return pts, 0, nil
}

// replaySweep recomputes experiments.Sweep's warm-chained grid through the
// public calls it is made of, with a span around each: per class column in
// ascending QoS order, System.Instance (once per QoS point, shared by the
// columns), CompileQoS on the first attainable point and Rebind after it,
// LowerBound without rounding, seeded with the previous basis, and
// Instance.Round on a copy of the fractional placement. Columns go to two
// workers in class order, as in the sweep engine. The answers must equal
// the sweep's bit for bit.
func replaySweep(sys *experiments.System, classes []*core.Class, tr *tracer, id string, lane int) ([][]experiments.Point, int, error) {
	root := tr.begin("bench.sweep", id, -1, 2*lane)
	defer tr.end(root)
	qos := sys.Spec.QoSPoints
	order := make([]int, len(qos))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return qos[order[a]] < qos[order[b]] })

	type instEntry struct {
		once sync.Once
		in   *core.Instance
		err  error
	}
	insts := make([]instEntry, len(qos))
	instance := func(qi, parent, lane int) (*core.Instance, error) {
		e := &insts[qi]
		e.once.Do(func() {
			sp := tr.begin("core.instance", id, parent, lane)
			e.in, e.err = sys.Instance(qos[qi])
			tr.end(sp)
		})
		return e.in, e.err
	}

	points := make([][]experiments.Point, len(classes))
	var vars atomic.Int64
	column := func(c, lane int) error {
		col := tr.begin("experiments.column", id, root, lane)
		defer tr.end(col)
		ch := &warmChain{class: classes[c]}
		points[c] = make([]experiments.Point, len(qos))
		for _, qi := range order {
			cell := tr.begin("experiments.cell", id, col, lane)
			inst, err := instance(qi, cell, lane)
			if err != nil {
				tr.end(cell)
				return err
			}
			p, nv, err := ch.cell(inst, qos[qi], tr, id, cell, lane)
			tr.end(cell)
			if err != nil {
				return fmt.Errorf("%s at %g: %w", ch.class.Name, qos[qi], err)
			}
			points[c][qi] = p
			vars.Add(int64(nv))
		}
		return nil
	}

	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		first   error
		wg      sync.WaitGroup
	)
	for wk := 0; wk < min(2, len(classes)); wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				c := int(next.Add(1)) - 1
				if c >= len(classes) {
					return
				}
				if err := column(c, 2*lane+wk); err != nil {
					errOnce.Do(func() { first = err })
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, 0, first
	}
	return points, int(vars.Load()), nil
}

// warmChain is one class column of the replay: the compiled problem, once
// a goal was attainable, and the basis of the last solve.
type warmChain struct {
	class *core.Class
	comp  *core.CompiledQoS
	start *lp.Basis
}

// cell computes the chain's next QoS point as the sweep engine does: it
// compiles the problem at the first attainable goal and rebinds it after
// that; an unattainable goal yields an infeasible point and leaves the
// chain's basis alone. It also returns the LP's variable count.
func (ch *warmChain) cell(inst *core.Instance, q float64, tr *tracer, id string, parent, lane int) (experiments.Point, int, error) {
	infeasible := experiments.Point{Class: ch.class.Name, QoS: q, Infeasible: true}
	if ch.comp == nil {
		sp := tr.begin("core.compile", id, parent, lane)
		comp, err := inst.CompileQoS(ch.class)
		tr.end(sp)
		if errors.Is(err, core.ErrGoalUnattainable) {
			return infeasible, 0, nil
		}
		if err != nil {
			return infeasible, 0, err
		}
		ch.comp = comp
	} else {
		sp := tr.begin("core.rebind", id, parent, lane)
		err := ch.comp.Rebind(q)
		tr.end(sp)
		if errors.Is(err, core.ErrGoalUnattainable) {
			return infeasible, 0, nil
		}
		if err != nil {
			return infeasible, 0, err
		}
	}
	sp := tr.begin("lp.solve", id, parent, lane)
	b, err := ch.comp.LowerBound(core.BoundOptions{LP: lp.Options{Start: ch.start}, SkipRounding: true})
	tag := "cold"
	if b != nil && b.Stats.WarmSolves > 0 {
		tag = "warm"
	}
	tr.endTag(sp, tag)
	if errors.Is(err, core.ErrGoalUnattainable) {
		return infeasible, 0, nil
	}
	if err != nil {
		return infeasible, 0, err
	}
	sp = tr.begin("core.round", id, parent, lane)
	rr, err := inst.Round(ch.class, cloneStore(b.StoreFrac), core.RoundOptions{})
	tr.end(sp)
	if err != nil {
		return infeasible, 0, fmt.Errorf("round %s bound: %w", ch.class.Name, err)
	}
	ch.start = b.Basis
	return experiments.Point{Class: ch.class.Name, QoS: q, Bound: b.LPBound, Feasible: rr.Cost, Stats: b.Stats}, b.LPVariables, nil
}

func cloneStore(src [][][]float64) [][][]float64 {
	out := make([][][]float64, len(src))
	for n := range src {
		out[n] = make([][]float64, len(src[n]))
		for i := range src[n] {
			out[n][i] = append([]float64(nil), src[n][i]...)
		}
	}
	return out
}

func flatten(pts [][]experiments.Point) []experiments.Point {
	var out []experiments.Point
	for _, col := range pts {
		out = append(out, col...)
	}
	return out
}

// sweepAnswer renders every cell's bound, certificate, feasibility and
// iteration count exactly.
func sweepAnswer(pts [][]experiments.Point, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	for _, p := range flatten(pts) {
		fmt.Fprintf(&b, "%x/%x/%t/%d;", math.Float64bits(p.Bound), math.Float64bits(p.Feasible), p.Infeasible, p.Stats.Iterations)
	}
	return digest(b.String())
}

// checkSweep holds a grid to its reference: the bound within 1e-9
// relative, the certificate no lower than the bound and no looser than the
// reference's (a tighter certificate passes), and the same infeasible cells.
func checkSweep(cells []experiments.Point, ref *sweepCase) []string {
	if len(cells) != len(ref.Bound) {
		return []string{fmt.Sprintf("%d cells, reference has %d", len(cells), len(ref.Bound))}
	}
	infeasible := make(map[int]bool)
	for _, k := range ref.Infeasible {
		infeasible[k] = true
	}
	var probs []string
	for k, p := range cells {
		switch {
		case p.Infeasible != infeasible[k]:
			probs = append(probs, fmt.Sprintf("%s at %g: infeasible=%t, reference %t", p.Class, p.QoS, p.Infeasible, infeasible[k]))
		case p.Infeasible:
		case !near(p.Bound, ref.Bound[k]):
			probs = append(probs, fmt.Sprintf("%s at %g: bound %v, reference %v", p.Class, p.QoS, p.Bound, ref.Bound[k]))
		case p.Feasible < p.Bound && !near(p.Feasible, p.Bound):
			probs = append(probs, fmt.Sprintf("%s at %g: certificate %v below bound %v", p.Class, p.QoS, p.Feasible, p.Bound))
		case p.Feasible > ref.Feasible[k] && !near(p.Feasible, ref.Feasible[k]):
			probs = append(probs, fmt.Sprintf("%s at %g: certificate %v looser than reference %v", p.Class, p.QoS, p.Feasible, ref.Feasible[k]))
		}
	}
	return probs
}

// near reports a and b equal to 1e-9 relative.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// addStats sums a solve's deterministic solver counters.
func addStats(c counters, s lp.Stats) {
	c["lp.iterations"] += float64(s.Iterations)
	c["lp.phase1_iterations"] += float64(s.Phase1Iterations)
	c["lp.dual_iterations"] += float64(s.DualIterations)
	c["lp.degenerate_steps"] += float64(s.DegenerateSteps)
	c["lp.refactorizations"] += float64(s.Refactorizations)
	c["lp.pivot_rejections"] += float64(s.PivotRejections)
	c["lp.bound_flips"] += float64(s.BoundFlips)
	c["lp.pricing_scans"] += float64(s.PricingScans)
	c["lp.presolve_rows_removed"] += float64(s.PresolveRowsRemoved)
	c["lp.basis_repairs"] += float64(s.BasisRepairs)
	c["lp.warm_solves"] += float64(s.WarmSolves)
	c["lp.solves"] += float64(s.WarmSolves + s.ColdSolves)
	c["lp.wall_s"] += s.Wall.Seconds()
}

// lpLayers turns summed solver counters into per-operation metrics.
func lpLayers(v map[string]float64, c counters, ops int) {
	for _, k := range []string{"lp.iterations", "lp.phase1_iterations", "lp.dual_iterations", "lp.degenerate_steps",
		"lp.refactorizations", "lp.pivot_rejections", "lp.bound_flips", "lp.pricing_scans",
		"lp.presolve_rows_removed", "lp.basis_repairs"} {
		v[k] = ratio(c[k], float64(ops))
	}
	v["lp.degenerate_frac"] = ratio(c["lp.degenerate_steps"], c["lp.iterations"])
	v["lp.warm_frac"] = ratio(c["lp.warm_solves"], c["lp.solves"])
	v["lp.numerical_failures"] = c["lp.numerical_failures"]
	if c["gap.n"] > 0 {
		v["core.cert_gap_pct"] = 100 * c["gap.sum"] / c["gap.n"]
	}
}

func (w *sweepWorkload) layers(c, tc counters, tr *tracer, ops int) map[string]float64 {
	v := make(map[string]float64)
	lpLayers(v, c, ops)
	v["experiments.sweep_web_s"] = ratio(c["experiments.sweep_web_s"], c["sweeps.web"])
	v["experiments.sweep_group_s"] = ratio(c["experiments.sweep_group_s"], c["sweeps.group"])
	v["scenario.compile_s"] = mean(tr.durations("scenario.compile", "*")).Seconds()
	v["core.instance_ms"] = ms(mean(tr.durations("core.instance", "*")))
	v["core.compile_ms"] = ms(mean(tr.durations("core.compile", "*")))
	v["core.rebind_us"] = mean(tr.durations("core.rebind", "*")).Seconds() * 1e6
	v["core.round_ms"] = ms(mean(tr.durations("core.round", "*")))
	solves := tr.durations("lp.solve", "*")
	v["lp.solve_s"] = ratio(sum(solves).Seconds(), float64(ops))
	v["lp.ns_per_iteration"] = ratio(float64(sum(solves).Nanoseconds()), c["lp.iterations"])
	v["lp.cold_solve_ms_p50"] = ms(quantile(tr.durations("lp.solve", "cold"), 0.5))
	v["lp.warm_solve_ms_p50"] = ms(quantile(tr.durations("lp.solve", "warm"), 0.5))

	v["core.lp_vars_mean"] = ratio(tc["core.lp_vars"], tc["cells.solved"])

	sweepWall := sum(tr.durations("bench.sweep", "*"))
	v["experiments.parallel_eff"] = ratio(sum(tr.durations("experiments.cell", "*")).Seconds(), 2*sweepWall.Seconds())
	critical := make(map[string]time.Duration)
	for _, s := range tr.spans {
		if s.name == "experiments.column" && s.end-s.start > critical[s.id] {
			critical[s.id] = s.end - s.start
		}
	}
	var crit []time.Duration
	for _, d := range critical {
		crit = append(crit, d)
	}
	v["experiments.critical_column_s"] = mean(crit).Seconds()
	return v
}
