// Package experiments wires topologies, workloads, bounds, rounding and
// simulation into the concrete experiments of the paper's evaluation
// (Section 6): Figure 1 (per-class lower bounds vs QoS), Figure 2
// (deployed heuristics vs their class bounds), Figure 3 (bounds on the
// deployed reduced topology) and Table 3 (the class taxonomy). The cmd/
// tools and the benchmark harness are thin wrappers over this package.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"wideplace/internal/core"
	"wideplace/internal/lp"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// WorkloadKind selects the paper's WEB or GROUP workload.
type WorkloadKind string

// The two evaluation workloads.
const (
	WEB   WorkloadKind = "web"
	GROUP WorkloadKind = "group"
)

// Spec describes a System: what scenario.Compile generated, or what
// NewSystem was handed, plus the goal grid to sweep on it.
type Spec struct {
	Workload WorkloadKind
	Nodes    int
	Objects  int
	Requests int
	Horizon  time.Duration
	Delta    time.Duration
	Seed     uint64
	Tlat     float64
	// QoSPoints are the goal levels swept on the x axis (the paper uses
	// 0.95, 0.99, 0.999, 0.9999, 0.99999).
	QoSPoints []float64
	// Zeta is the node-opening cost of the deployment scenario.
	Zeta float64
	// ZipfS is the WEB workload's Zipf exponent (0 = generator default).
	ZipfS float64
}

// CustomWorkload marks a System built from an externally supplied topology
// and trace rather than a compiled scenario.
const CustomWorkload WorkloadKind = "custom"

// ValidateQoS rejects QoS point lists that the sweep cannot consume:
// empty lists, non-finite values, values outside (0, 1] and duplicates.
func ValidateQoS(points []float64) error {
	if len(points) == 0 {
		return errors.New("experiments: no QoS points")
	}
	seen := make(map[float64]bool, len(points))
	for _, v := range points {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("experiments: QoS point %v is not a finite number", v)
		}
		if v <= 0 || v > 1 {
			return fmt.Errorf("experiments: QoS point %g outside (0, 1]", v)
		}
		if seen[v] {
			return fmt.Errorf("experiments: duplicate QoS point %g", v)
		}
		seen[v] = true
	}
	return nil
}

// System holds the spec's topology and bucketed counts, and the
// time-sorted trace when one was kept (nil otherwise; only the simulator
// replays it).
type System struct {
	Spec   Spec
	Topo   *topology.Topology
	Trace  *workload.Trace
	Counts *workload.Counts
}

// NewSystem wraps an externally supplied topology and trace into a System
// so the sweep engine can serve placement questions about systems it did
// not generate (traces imported via workload.Read, topologies via
// topology.Read). delta is the evaluation interval, tlat the latency
// threshold in milliseconds and qos the goal levels to sweep.
func NewSystem(topo *topology.Topology, trace *workload.Trace, delta time.Duration, tlat float64, qos []float64) (*System, error) {
	if topo == nil || trace == nil {
		return nil, errors.New("experiments: NewSystem needs a topology and a trace")
	}
	if topo.N != trace.NumNodes {
		return nil, fmt.Errorf("experiments: topology has %d nodes, trace has %d", topo.N, trace.NumNodes)
	}
	if tlat <= 0 || math.IsNaN(tlat) || math.IsInf(tlat, 0) {
		return nil, fmt.Errorf("experiments: latency threshold %v must be a positive number", tlat)
	}
	if err := ValidateQoS(qos); err != nil {
		return nil, err
	}
	counts, err := trace.Bucket(delta)
	if err != nil {
		return nil, err
	}
	spec := Spec{
		Workload:  CustomWorkload,
		Nodes:     topo.N,
		Objects:   trace.NumObjects,
		Requests:  len(trace.Accesses),
		Horizon:   trace.Duration,
		Delta:     delta,
		Tlat:      tlat,
		QoSPoints: append([]float64(nil), qos...),
	}
	return &System{Spec: spec, Topo: topo, Trace: trace, Counts: counts}, nil
}

// Instance builds the MC-PERF instance at one QoS point. It only reads
// the System, so it is safe for concurrent use: every column of a sweep
// builds its own instances from one System.
func (s *System) Instance(tqos float64) (*core.Instance, error) {
	return core.NewInstance(s.Topo, s.Counts, core.DefaultCost(), core.QoS(tqos, s.Spec.Tlat))
}

// Point is one (class, QoS level) cell of a bound figure.
type Point struct {
	Class      string
	QoS        float64
	Bound      float64
	Feasible   float64
	Infeasible bool // the class cannot meet this QoS level at any cost
	// Stats is the solver effort of this cell's LP solve (zero for
	// infeasible cells, whose solve terminates without a solution).
	Stats lp.Stats
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a set of curves plus provenance.
type Figure struct {
	Title  string
	Spec   Spec
	Series []Series
}

// WriteTSV renders the figure as a QoS-by-series table; infeasible points
// print as "-" (the paper's curves simply stop there).
func (f *Figure) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s (workload=%s nodes=%d objects=%d requests=%d)\n",
		f.Title, f.Spec.Workload, f.Spec.Nodes, f.Spec.Objects, f.Spec.Requests); err != nil {
		return err
	}
	fmt.Fprintf(w, "qos")
	for _, s := range f.Series {
		fmt.Fprintf(w, "\t%s", s.Name)
	}
	fmt.Fprintln(w)
	if len(f.Series) == 0 {
		return nil
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(w, "%g", f.Series[0].Points[i].QoS*100)
		for _, s := range f.Series {
			p := s.Points[i]
			if p.Infeasible {
				fmt.Fprintf(w, "\t-")
			} else {
				fmt.Fprintf(w, "\t%.0f", p.Bound)
			}
		}
		fmt.Fprintln(w)
	}
	// Solver-effort footer. Only deterministic counters appear here (wall
	// time stays in the progress logs), so the TSV is byte-identical across
	// parallel and serial sweeps.
	cells, agg := f.SolverStats()
	pricing := agg.PricingRule
	if pricing == "" {
		pricing = "none"
	}
	_, err := fmt.Fprintf(w, "# solver: cells=%d lp-iterations=%d phase1-iterations=%d initial-factorizations=%d refactorizations=%d degenerate-steps=%d bland-activations=%d bound-flips=%d pricing-scans=%d presolve-rows-removed=%d presolve-cols-removed=%d rebind-solves=%d pricing=%s\n",
		cells, agg.Iterations, agg.Phase1Iterations, agg.InitialFactorizations, agg.Refactorizations,
		agg.DegenerateSteps, agg.BlandActivations, agg.BoundFlips, agg.PricingScans,
		agg.PresolveRowsRemoved, agg.PresolveColsRemoved, agg.RebindSolves, pricing)
	return err
}

// SolverStats aggregates the solver effort over every cell of the figure.
// The returned counters (everything except Wall) are deterministic for a
// given spec and option set.
func (f *Figure) SolverStats() (cells int, agg lp.Stats) {
	for _, s := range f.Series {
		for _, p := range s.Points {
			cells++
			agg.Add(p.Stats)
		}
	}
	return cells, agg
}

// reboundPoint solves one cell of a warm column, mapping goal
// unattainability to an infeasible point instead of an error. The model
// was already built and (re)bound to tqos, only the solve remains. The
// returned basis (nil for infeasible points) seeds the next solve in the
// column.
func reboundPoint(comp *core.CompiledQoS, class *core.Class, tqos float64, opts core.BoundOptions) (Point, *lp.Basis, error) {
	b, err := comp.LowerBound(opts)
	if err != nil {
		if errors.Is(err, core.ErrGoalUnattainable) {
			return Point{Class: class.Name, QoS: tqos, Infeasible: true}, nil, nil
		}
		return Point{}, nil, err
	}
	return Point{Class: class.Name, QoS: tqos, Bound: b.LPBound, Feasible: b.FeasibleCost, Stats: b.Stats}, b.Basis, nil
}
