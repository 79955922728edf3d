package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wideplace/internal/core"
	"wideplace/internal/heuristics"
	"wideplace/internal/sim"
)

// Progress receives one line per completed bound/simulation; nil discards.
// The sweep engine serializes calls, so implementations need no locking,
// but under Parallel > 1 the completion order (and therefore the line
// order) is nondeterministic.
type Progress func(format string, args ...interface{})

func (p Progress) logf(format string, args ...interface{}) {
	if p != nil {
		p(format, args...)
	}
}

// logPoint emits the standard progress line for one solved bound cell,
// including the solver-effort counters.
func (p Progress) logPoint(pt Point, elapsed time.Duration) {
	if p == nil {
		return
	}
	if pt.Infeasible {
		p("%-24s qos=%-8g infeasible (%.1fs)", pt.Class, pt.QoS*100, elapsed.Seconds())
		return
	}
	p("%-24s qos=%-8g bound=%-10.0f feasible=%-10.0f iters=%-6d refac=%-3d degen=%-5d bland=%d scans=%-9d (%.1fs)",
		pt.Class, pt.QoS*100, pt.Bound, pt.Feasible,
		pt.Stats.Iterations, pt.Stats.Refactorizations, pt.Stats.DegenerateSteps,
		pt.Stats.BlandActivations, pt.Stats.PricingScans, elapsed.Seconds())
}

// Figure1 computes the per-class lower bounds as a function of the QoS
// goal (paper Figure 1): general, storage-constrained, replica-
// constrained, decentralized-local-routing, caching and cooperative
// caching.
func Figure1(sys *System, opts Options, progress Progress) (*Figure, error) {
	classes := []*core.Class{
		core.General(),
		core.StorageConstrained(),
		core.ReplicaConstrained(),
		core.DecentralLocalRouting(sys.Topo),
		core.Caching(sys.Topo),
		core.CoopCaching(sys.Topo, sys.Spec.Tlat),
	}
	return boundFigure(sys, classes,
		fmt.Sprintf("Figure 1 (%s): lower bounds per heuristic class", sys.Spec.Workload), opts, progress)
}

// Sweep computes the lower-bound grid for an explicit class list on an
// arbitrary system — the job-friendly entry point behind the placement
// service. It is exactly Figure 1 with a caller-chosen class set and
// title; results are byte-identical across Parallel settings.
func Sweep(sys *System, classes []*core.Class, title string, opts Options, progress Progress) (*Figure, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("experiments: sweep needs at least one class")
	}
	if err := ValidateQoS(sys.Spec.QoSPoints); err != nil {
		return nil, err
	}
	if title == "" {
		title = fmt.Sprintf("sweep (%s): lower bounds per heuristic class", sys.Spec.Workload)
	}
	return boundFigure(sys, classes, title, opts, progress)
}

// boundFigure sweeps the (class, QoS point) grid. Each class column is
// one warm chain: its QoS points solve in ascending order on one worker,
// each LP seeded with the previous solution's basis, and distinct columns
// fan out across opts.Parallel workers. With opts.ColumnSolver each
// column is delegated whole to the hook (the distributed path). Results
// are slotted by grid index in both modes, so the figure is deterministic
// across worker counts and identical (bounds and TSV body) between them,
// and bounds match independent cold solves of every cell.
func boundFigure(sys *System, classes []*core.Class, title string, opts Options, progress Progress) (*Figure, error) {
	fig := &Figure{Title: title, Spec: sys.Spec}
	qos := sys.Spec.QoSPoints
	nC, nQ := len(classes), len(qos)
	points := make([][]Point, nC)
	for c := range points {
		points[c] = make([]Point, nQ)
	}
	progress = syncProgress(progress)
	tick := opts.cellTicker(nC * nQ)
	err := runCells(opts.context(), nC, opts.workers(nC), func(ctx context.Context, c int) error {
		if opts.ColumnSolver == nil {
			return solveColumn(ctx, sys, classes[c], qos, opts, progress, tick,
				func(qi int, p Point) { points[c][qi] = p })
		}
		pts, cerr := opts.ColumnSolver(ctx, classes[c].Name, qos)
		if cerr != nil {
			return fmt.Errorf("%s: %w", classes[c].Name, cerr)
		}
		if len(pts) != nQ {
			return fmt.Errorf("%s: column solver returned %d points, want %d", classes[c].Name, len(pts), nQ)
		}
		for qi, p := range pts {
			if p.Class != classes[c].Name || p.QoS != qos[qi] {
				return fmt.Errorf("%s: column solver point %d is (%s, %g), want (%s, %g)",
					classes[c].Name, qi, p.Class, p.QoS, classes[c].Name, qos[qi])
			}
			points[c][qi] = p
			tick()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for c, class := range classes {
		fig.Series = append(fig.Series, Series{Name: class.Name, Points: points[c]})
	}
	return fig, nil
}

// HeuristicPoint is one (heuristic, QoS level) cell of Figure 2.
type HeuristicPoint struct {
	Heuristic  string
	QoS        float64
	Cost       float64
	Param      int // tuned capacity or replication factor
	Infeasible bool
}

// Figure2Result holds the deployed-heuristic comparison for one workload.
type Figure2Result struct {
	Spec Spec
	// Bound is the class bound the chosen heuristic is compared against
	// (storage-constrained for WEB, replica-constrained for GROUP).
	Bound []Point
	// Chosen is the tuned heuristic the methodology selects.
	Chosen []HeuristicPoint
	// LRU is the tuned plain-caching baseline.
	LRU []HeuristicPoint
}

// Figure2 reproduces the paper's Figure 2: the cost of the heuristic the
// methodology picks (greedy-global for WEB, Qiu-style greedy for GROUP),
// tuned per QoS level, against its class bound and against tuned LRU
// caching. The three tasks per QoS level (class bound, chosen-heuristic
// tuning, LRU tuning) are independent and fan out across workers.
func Figure2(sys *System, opts Options, progress Progress) (*Figure2Result, error) {
	if sys.Trace == nil {
		return nil, errors.New("experiments: Figure2 replays the raw trace; compile the system with scenario.StreamOff to keep it")
	}
	var boundClass *core.Class
	if sys.Spec.Workload == GROUP {
		boundClass = core.ReplicaConstrained()
	} else {
		boundClass = core.StorageConstrained()
	}
	cfg := sim.Config{
		Topo: sys.Topo, Trace: sys.Trace, Interval: sys.Spec.Delta,
		Tlat: sys.Spec.Tlat, Alpha: 1, Beta: 1,
	}
	maxParam := sys.Spec.Objects
	if sys.Spec.Workload == GROUP {
		maxParam = sys.Topo.N - 1
	}
	qos := sys.Spec.QoSPoints
	nQ := len(qos)
	res := &Figure2Result{
		Spec:   sys.Spec,
		Bound:  make([]Point, nQ),
		Chosen: make([]HeuristicPoint, nQ),
		LRU:    make([]HeuristicPoint, nQ),
	}
	progress = syncProgress(progress)
	// Cell layout: the nQ bound tasks fold into a single warm-chained
	// column cell; the two tuning tasks per QoS point are simulator runs
	// with no basis to share and fan out on their own. The ticker still
	// counts one tick per (QoS point, task).
	tick := opts.cellTicker(3 * nQ)
	tune := func(qi, task int) {
		defer tick()
		q := qos[qi]
		switch task {
		case 1:
			// The deployed centralized heuristics are the demand-known
			// (prefetching) variants: their Table 3 classes are proactive,
			// and the literature they come from ([4], [11]) assumes
			// per-interval demand is an input. LRU is the reactive caching
			// baseline; its curve truncates where the caching class bound
			// does.
			mk := func(p int) sim.Heuristic {
				if sys.Spec.Workload == GROUP {
					return heuristics.NewQiuGreedyPrefetch(p, sys.Counts)
				}
				return heuristics.NewGreedyGlobalPrefetch(p, sys.Counts)
			}
			res.Chosen[qi] = tunePoint(cfg, mk, maxParam, q, progress)
		case 2:
			res.LRU[qi] = tunePoint(cfg, func(p int) sim.Heuristic {
				return heuristics.NewLRU(p)
			}, sys.Spec.Objects, q, progress)
		}
	}
	// Cell 0 is the bound column's warm chain; cells 1..2*nQ are the
	// tuning tasks in qi-major order.
	err := runCells(opts.context(), 1+2*nQ, opts.workers(1+2*nQ), func(ctx context.Context, idx int) error {
		if idx == 0 {
			return solveColumn(ctx, sys, boundClass, qos, opts, progress, tick,
				func(qi int, p Point) { res.Bound[qi] = p })
		}
		tune((idx-1)/2, (idx-1)%2+1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// tunePoint tunes one heuristic family to a QoS level.
func tunePoint(cfg sim.Config, mk func(int) sim.Heuristic, maxParam int, q float64, progress Progress) HeuristicPoint {
	start := time.Now()
	param, m, err := sim.Tune(cfg, mk, 0, maxParam, q, true)
	name := mk(0).Name()
	if err != nil {
		if errors.Is(err, sim.ErrGoalNotMet) {
			progress.logf("%-24s qos=%-8g infeasible (%.1fs)", name, q*100, time.Since(start).Seconds())
			return HeuristicPoint{Heuristic: name, QoS: q, Infeasible: true}
		}
		progress.logf("%-24s qos=%-8g error: %v", name, q*100, err)
		return HeuristicPoint{Heuristic: name, QoS: q, Infeasible: true}
	}
	progress.logf("%-24s qos=%-8g cost=%-10.0f param=%d (%.1fs)",
		m.Heuristic, q*100, m.Cost, param, time.Since(start).Seconds())
	return HeuristicPoint{Heuristic: m.Heuristic, QoS: q, Cost: m.Cost, Param: param}
}

// Figure3Result holds the deployment-scenario bounds (paper Figure 3).
type Figure3Result struct {
	Spec      Spec
	OpenNodes []int
	Figure    *Figure
}

// Figure3 reproduces the paper's Figure 3: phase 1 opens nodes under the
// opening cost zeta at the loosest QoS point, then phase 2 computes the
// reactive, storage-constrained, replica-constrained and caching bounds on
// the reduced topology. Phase 1 is a single solve; phase 2 fans out like
// Figure 1.
func Figure3(sys *System, opts Options, progress Progress) (*Figure3Result, error) {
	planQoS := sys.Spec.QoSPoints[0]
	dep, err := core.PlanDeployment(sys.Topo, sys.Counts,
		core.DefaultCost(), core.QoS(planQoS, sys.Spec.Tlat), sys.Spec.Zeta, nil,
		opts.boundOptions(opts.context()))
	if err != nil {
		return nil, err // PlanDeployment names the phase
	}
	progress.logf("phase 1: opened %d of %d sites: %v", len(dep.OpenNodes), sys.Topo.N, dep.OpenNodes)

	subSys := &System{Spec: sys.Spec, Topo: dep.Topology, Counts: dep.Instance.Counts}
	classes := []*core.Class{
		core.Reactive(),
		withReactive(core.StorageConstrained()),
		withReactive(core.ReplicaConstrained()),
		core.Caching(dep.Topology),
	}
	fig, err := boundFigure(subSys, classes,
		fmt.Sprintf("Figure 3 (%s): bounds on the %d-node deployed topology", sys.Spec.Workload, dep.Topology.N),
		opts, progress)
	if err != nil {
		return nil, err
	}
	return &Figure3Result{Spec: sys.Spec, OpenNodes: dep.OpenNodes, Figure: fig}, nil
}

// withReactive marks a class reactive (the Sec. 6.2 scenario considers no
// prefetching).
func withReactive(c *core.Class) *core.Class {
	c.Reactive = true
	c.History = core.HistoryAll
	c.Name += "-reactive"
	return c
}
