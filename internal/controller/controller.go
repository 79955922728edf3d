// Package controller closes the loop between the MC-PERF bound machinery
// and drifting demand: it ingests one interval of per-(node, object) read
// counts at a time, moves only the LP coefficients that drifted
// (core.DriftQoS), warm re-solves from the previous interval's basis, and
// emits structured placement diffs — which replicas each node gains and
// drops, with bound and cost deltas — instead of full placements. This is
// the online re-solve layer the paper's one-shot formulation lacks: under
// flash crowds and diurnal shift the demand moves faster than a cold
// rebuild-and-solve can follow, while the incremental path pays a handful
// of coefficient writes and a warm simplex per interval.
package controller

import (
	"errors"
	"fmt"
	"time"

	"wideplace/internal/core"
	"wideplace/internal/lp"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// Config describes the system a Controller plans placements for.
type Config struct {
	Topo *topology.Topology
	// Objects fixes the object universe the controller plans over.
	Objects int
	// Delta is the control interval length.
	Delta time.Duration
	Cost  core.Cost
	// Goal is the per-user QoS goal every interval's placement must meet.
	Goal core.Goal
	// LP configures the per-interval solves. Options.Start is managed by
	// the controller (the warm chain) and must be left nil.
	LP lp.Options
}

// Controller is the online placement control loop. It is single-threaded:
// Step mutates the compiled problem in place.
type Controller struct {
	cfg       Config
	drift     *core.DriftQoS
	basis     *lp.Basis
	placement [][]bool // current integral placement, nil before the first step
	prevBound *StepResult
	interval  int
}

// NodeDiff lists the objects one node gains and drops in a step.
type NodeDiff struct {
	Node  int   `json:"node"`
	Adds  []int `json:"adds,omitempty"`
	Drops []int `json:"drops,omitempty"`
}

// StepResult is one interval's outcome: the re-solved bound, the placement
// diff against the previous interval, and the solver effort that produced
// it.
type StepResult struct {
	Interval int `json:"interval"`
	// Bound is the interval's LP lower bound; Cost the rounded feasible
	// placement's cost. Both charge creation only for replicas the
	// previous interval did not already hold.
	Bound float64 `json:"bound"`
	Cost  float64 `json:"cost"`
	// BoundDelta and CostDelta are the movements against the previous
	// interval (zero on the first step).
	BoundDelta float64 `json:"boundDelta"`
	CostDelta  float64 `json:"costDelta"`
	// ChangedCoefs is how many read-count coefficients the drift rebind
	// rewrote; Iterations the simplex effort of the re-solve; Warm whether
	// the solve continued from the previous interval's basis.
	ChangedCoefs int  `json:"changedCoefs"`
	Iterations   int  `json:"iterations"`
	Warm         bool `json:"warm"`
	// Adds/Drops count replica churn across all nodes; Diffs carries the
	// per-node breakdown (nodes with no change are omitted).
	Adds  int        `json:"adds"`
	Drops int        `json:"drops"`
	Diffs []NodeDiff `json:"diffs,omitempty"`
	// Staleness is the normalized L1 distance between the demand this
	// plan was computed from and the demand the interval realized; it is
	// filled by the replay/evaluation layer (Step cannot know demand it
	// was not shown) and stays 0 for clairvoyant replays.
	Staleness float64 `json:"staleness"`
	// WallNs is the wall-clock time of the step (rebind + solve + round).
	WallNs int64 `json:"wallNs"`
	// Placement is the interval's integral placement per (node, object).
	Placement [][]bool `json:"-"`
	// Stats is the solver-effort breakdown of the interval's solve.
	Stats lp.Stats `json:"-"`
}

// New compiles the controller's drift-rebindable problem, the general
// (unrestricted) class. The returned controller holds no placement yet:
// the first Step plans from a cold start (no replicas, no creation
// discount).
func New(cfg Config) (*Controller, error) {
	if cfg.Topo == nil {
		return nil, errors.New("controller: config needs a topology")
	}
	if cfg.LP.Start != nil {
		return nil, errors.New("controller: Options.Start is managed by the controller")
	}
	drift, err := core.CompileDriftQoS(cfg.Topo, cfg.Objects, cfg.Delta, cfg.Cost, cfg.Goal)
	if err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, drift: drift}, nil
}

// Step plans the next interval for the given demand matrix (reads[n][k]).
// It rewrites only the drifted read-count coefficients, carries the
// previous interval's placement over as the initial condition (so holding
// a replica is cheaper than creating one), warm re-solves from the
// previous basis, rounds, and returns the placement diff.
func (c *Controller) Step(reads [][]int) (*StepResult, error) {
	start := time.Now()
	changed, err := c.drift.SetReads(reads)
	if err != nil {
		return nil, fmt.Errorf("controller: interval %d: %w", c.interval, err)
	}
	if err := c.drift.SetInitial(c.placement); err != nil {
		return nil, fmt.Errorf("controller: interval %d: %w", c.interval, err)
	}
	opts := core.BoundOptions{LP: c.cfg.LP}
	opts.LP.Start = c.basis
	b, err := c.drift.LowerBound(opts)
	if err != nil {
		return nil, fmt.Errorf("controller: interval %d: %w", c.interval, err)
	}
	next := make([][]bool, len(b.Store))
	for n := range b.Store {
		next[n] = b.Store[n][0]
	}
	st := &StepResult{
		Interval:     c.interval,
		Bound:        b.LPBound,
		Cost:         b.FeasibleCost,
		ChangedCoefs: changed,
		Iterations:   b.LPIterations,
		Warm:         b.Stats.WarmSolves > 0,
		Stats:        b.Stats,
		Placement:    next,
	}
	st.Diffs, st.Adds, st.Drops = diffPlacement(c.placement, next, c.cfg.Topo.Origin)
	if c.prevBound != nil {
		st.BoundDelta = st.Bound - c.prevBound.Bound
		st.CostDelta = st.Cost - c.prevBound.Cost
	}
	st.WallNs = time.Since(start).Nanoseconds()
	c.placement = next
	c.basis = b.Basis
	c.prevBound = st
	c.interval++
	return st, nil
}

// diffPlacement computes the per-node adds/drops between two placements
// (prev may be nil for the cold start).
func diffPlacement(prev, next [][]bool, origin int) (diffs []NodeDiff, adds, drops int) {
	for n := range next {
		if n == origin {
			continue
		}
		var d NodeDiff
		for k := range next[n] {
			had := prev != nil && prev[n][k]
			switch {
			case next[n][k] && !had:
				d.Adds = append(d.Adds, k)
			case !next[n][k] && had:
				d.Drops = append(d.Drops, k)
			}
		}
		if len(d.Adds) > 0 || len(d.Drops) > 0 {
			d.Node = n
			adds += len(d.Adds)
			drops += len(d.Drops)
			diffs = append(diffs, d)
		}
	}
	return diffs, adds, drops
}

// ApplyDiffs replays a step's diffs onto a placement, returning the new
// placement. It is the consumer-side contract of the diff stream: applying
// every step's diffs in order reconstructs every interval's placement
// exactly (tested against StepResult.Placement).
func ApplyDiffs(prev [][]bool, diffs []NodeDiff, nodes, objects int) [][]bool {
	next := make([][]bool, nodes)
	for n := range next {
		next[n] = make([]bool, objects)
		if prev != nil {
			copy(next[n], prev[n])
		}
	}
	for _, d := range diffs {
		for _, k := range d.Adds {
			next[d.Node][k] = true
		}
		for _, k := range d.Drops {
			next[d.Node][k] = false
		}
	}
	return next
}

// Trajectory is the outcome of replaying a bucketed workload through the
// control loop, interval by interval.
type Trajectory struct {
	Steps []*StepResult
	// Plan is the assembled full-horizon schedule Plan[n][i][k], directly
	// consumable by heuristics.NewStatic for simulation scoring.
	Plan [][][]bool
	// Lookahead records whether each interval was planned from its own
	// (clairvoyant) demand or the previous interval's (reactive).
	Lookahead bool
	// TotalIterations and WallNs aggregate solver effort over all steps.
	TotalIterations int
	WallNs          int64
}

// Replay drives a new controller over every interval of a bucketed
// workload (see Run) and assembles its trajectory.
//
// cfg.Objects and cfg.Delta are taken from the counts when zero.
func Replay(cfg Config, counts *workload.Counts, lookahead bool) (*Trajectory, error) {
	if counts == nil {
		return nil, errors.New("controller: replay needs bucketed counts")
	}
	if cfg.Objects == 0 {
		cfg.Objects = counts.Objects
	}
	if cfg.Delta == 0 {
		cfg.Delta = counts.Delta
	}
	ctl, err := New(cfg)
	if err != nil {
		return nil, err
	}
	tr := &Trajectory{Lookahead: lookahead, Plan: make([][][]bool, counts.Nodes)}
	for n := range tr.Plan {
		tr.Plan[n] = make([][]bool, counts.Intervals)
	}
	err = ctl.Run(counts, lookahead, func(st *StepResult) error {
		for n := range tr.Plan {
			tr.Plan[n][len(tr.Steps)] = st.Placement[n]
		}
		tr.Steps = append(tr.Steps, st)
		tr.TotalIterations += st.Iterations
		tr.WallNs += st.WallNs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// Run steps the controller over every interval of a bucketed workload and
// hands each step to each as soon as it is solved; an error from each
// stops the run and is returned. In reactive mode (lookahead false)
// interval i is planned from interval i-1's demand — the controller only
// ever sees the past, and the realized staleness is recorded per step;
// with lookahead the controller plans each interval from its own demand
// (staleness 0 by construction).
func (c *Controller) Run(counts *workload.Counts, lookahead bool, each func(*StepResult) error) error {
	if counts.Objects != c.cfg.Objects {
		return fmt.Errorf("controller: config plans %d objects, counts has %d", c.cfg.Objects, counts.Objects)
	}
	planned := zeroReads(counts.Nodes, counts.Objects)
	for i := 0; i < counts.Intervals; i++ {
		realized, err := counts.IntervalReads(i)
		if err != nil {
			return err
		}
		if lookahead {
			planned = realized
		}
		st, err := c.Step(planned)
		if err != nil {
			return err
		}
		if st.Staleness, err = workload.Staleness(planned, realized); err != nil {
			return err
		}
		if err := each(st); err != nil {
			return err
		}
		planned = realized
	}
	return nil
}

// ColdReplay is the baseline Replay is measured against: the same
// interval-by-interval planning decisions, but every interval pays a full
// model rebuild, compile and cold simplex solve.
//
// When follow is non-nil the cold replay adopts that trajectory's rounded
// placements as its own interval-to-interval carryover, so both replays
// solve the identical sequence of problems (same demand, same initial
// placement) and their bounds are comparable one-to-one: they must agree
// to LP tolerance while the solver effort must not. Without follow the
// cold replay rounds and carries its own placements, which can diverge
// from the warm trajectory at degenerate optima — same per-interval cost,
// different initial conditions downstream, legitimately different bounds.
func ColdReplay(cfg Config, counts *workload.Counts, lookahead bool, follow *Trajectory) (*Trajectory, error) {
	if counts == nil {
		return nil, errors.New("controller: replay needs bucketed counts")
	}
	if cfg.Objects == 0 {
		cfg.Objects = counts.Objects
	}
	if cfg.Delta == 0 {
		cfg.Delta = counts.Delta
	}
	if follow != nil && len(follow.Steps) != counts.Intervals {
		return nil, fmt.Errorf("controller: followed trajectory has %d steps, counts has %d intervals",
			len(follow.Steps), counts.Intervals)
	}
	tr := &Trajectory{Lookahead: lookahead, Plan: make([][][]bool, counts.Nodes)}
	for n := range tr.Plan {
		tr.Plan[n] = make([][]bool, counts.Intervals)
	}
	planned := zeroReads(counts.Nodes, counts.Objects)
	var placement [][]bool
	var prev *StepResult
	for i := 0; i < counts.Intervals; i++ {
		realized, err := counts.IntervalReads(i)
		if err != nil {
			return nil, err
		}
		if lookahead {
			planned = realized
		}
		start := time.Now()
		single := &workload.Counts{
			Reads:  make([][][]int, counts.Nodes),
			Writes: make([][][]int, counts.Nodes),
			Nodes:  counts.Nodes, Intervals: 1, Objects: counts.Objects, Delta: cfg.Delta,
		}
		for n := 0; n < counts.Nodes; n++ {
			single.Reads[n] = [][]int{planned[n]}
			single.Writes[n] = [][]int{make([]int, counts.Objects)}
		}
		in, err := core.NewInstance(cfg.Topo, single, cfg.Cost, cfg.Goal)
		if err != nil {
			return nil, fmt.Errorf("controller: cold interval %d: %w", i, err)
		}
		if err := in.SetInitial(placement); err != nil {
			return nil, fmt.Errorf("controller: cold interval %d: %w", i, err)
		}
		b, err := in.LowerBound(core.General(), core.BoundOptions{LP: cfg.LP})
		if err != nil {
			return nil, fmt.Errorf("controller: cold interval %d: %w", i, err)
		}
		next := make([][]bool, len(b.Store))
		for n := range b.Store {
			next[n] = b.Store[n][0]
		}
		if follow != nil {
			next = follow.Steps[i].Placement
		}
		st := &StepResult{
			Interval:   i,
			Bound:      b.LPBound,
			Cost:       b.FeasibleCost,
			Iterations: b.LPIterations,
			Stats:      b.Stats,
			Placement:  next,
		}
		st.Diffs, st.Adds, st.Drops = diffPlacement(placement, next, cfg.Topo.Origin)
		if prev != nil {
			st.BoundDelta = st.Bound - prev.Bound
			st.CostDelta = st.Cost - prev.Cost
		}
		if st.Staleness, err = workload.Staleness(planned, realized); err != nil {
			return nil, err
		}
		st.WallNs = time.Since(start).Nanoseconds()
		for n := range tr.Plan {
			tr.Plan[n][i] = next[n]
		}
		tr.Steps = append(tr.Steps, st)
		tr.TotalIterations += st.Iterations
		tr.WallNs += st.WallNs
		placement, prev, planned = next, st, realized
	}
	return tr, nil
}

func zeroReads(nodes, objects int) [][]int {
	out := make([][]int, nodes)
	for n := range out {
		out[n] = make([]int, objects)
	}
	return out
}
