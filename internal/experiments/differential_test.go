package experiments

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"wideplace/internal/core"
	"wideplace/internal/lp"
)

// stripSolverFooter drops the "# solver:" footer lines from a TSV
// rendering. The footer's effort counters legitimately differ between
// solver configurations (that difference is the whole point of warm
// starting and presolve); the figure body — every bound the paper
// reports — must not.
func stripSolverFooter(tsv string) string {
	var out []string
	for _, line := range strings.Split(tsv, "\n") {
		if strings.HasPrefix(line, "# solver:") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// boundPoint wraps LowerBound, mapping goal unattainability to an
// infeasible point instead of an error.
func boundPoint(inst *core.Instance, class *core.Class, tqos float64, opts core.BoundOptions) (Point, error) {
	b, err := inst.LowerBound(class, opts)
	if err != nil {
		if errors.Is(err, core.ErrGoalUnattainable) {
			return Point{Class: class.Name, QoS: tqos, Infeasible: true}, nil
		}
		return Point{}, err
	}
	return Point{Class: class.Name, QoS: tqos, Bound: b.LPBound, Feasible: b.FeasibleCost, Stats: b.Stats}, nil
}

// coldFigure is the cold reference for a warm sweep: it solves every
// (class, QoS) cell of the grid on its own, from sys.Instance(q) and the
// crash basis, with no basis chaining and no compiled-problem rebinding.
func coldFigure(tb testing.TB, sys *System, classes []*core.Class, title string, bo core.BoundOptions) *Figure {
	tb.Helper()
	fig := &Figure{Title: title, Spec: sys.Spec}
	for _, class := range classes {
		s := Series{Name: class.Name}
		for _, q := range sys.Spec.QoSPoints {
			inst, err := sys.Instance(q)
			if err != nil {
				tb.Fatal(err)
			}
			p, err := boundPoint(inst, class, q, bo)
			if err != nil {
				tb.Fatalf("%s at %g: %v", class.Name, q, err)
			}
			s.Points = append(s.Points, p)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// figure1Classes is Figure 1's class list: the first six of Table 3's
// registry, in Figure1's order.
func figure1Classes(sys *System) []*core.Class {
	return core.Classes(sys.Topo, sys.Spec.Tlat)[:6]
}

// TestWarmColdDifferential is the solver-speed layer's central guarantee:
// warm-start chaining, the presolve layer and compiled-problem rebinding
// change solver effort, never results. It renders the full Figure-1 grid
// (every class at every QoS goal, both workloads) through the warm sweep
// and through independent cold solves of every cell, each with and without
// presolve, and demands byte-identical TSV bodies and per-point objectives
// equal to 1e-9 across all four.
func TestWarmColdDifferential(t *testing.T) {
	configs := []struct {
		name string
		cold bool
		opts Options
	}{
		{"warm-presolve", false, Options{Parallel: 4}},
		{"warm-plain", false, Options{Parallel: 4, Bound: boundWithPresolve(lp.PresolveOff)}},
		{"cold-presolve", true, Options{}},
		{"cold-plain", true, Options{Bound: boundWithPresolve(lp.PresolveOff)}},
	}
	for _, kind := range []WorkloadKind{WEB, GROUP} {
		t.Run(string(kind), func(t *testing.T) {
			spec := tinySpec(kind)
			// Three ascending goals give every column two warm links.
			spec.QoSPoints = []float64{0.7, 0.8, 0.9}
			sys, err := build(spec)
			if err != nil {
				t.Fatal(err)
			}
			figs := make([]*Figure, len(configs))
			tsvs := make([]string, len(configs))
			for ci, cfg := range configs {
				var fig *Figure
				if cfg.cold {
					fig = coldFigure(t, sys, figure1Classes(sys), figs[0].Title, cfg.opts.Bound)
				} else if fig, err = Figure1(sys, cfg.opts, nil); err != nil {
					t.Fatalf("%s: %v", cfg.name, err)
				}
				var buf bytes.Buffer
				if err := fig.WriteTSV(&buf); err != nil {
					t.Fatal(err)
				}
				figs[ci], tsvs[ci] = fig, buf.String()
			}

			base := stripSolverFooter(tsvs[0])
			for ci := 1; ci < len(configs); ci++ {
				if got := stripSolverFooter(tsvs[ci]); got != base {
					t.Errorf("%s TSV body differs from %s:\n--- %s ---\n%s\n--- %s ---\n%s",
						configs[ci].name, configs[0].name, configs[0].name, base, configs[ci].name, got)
				}
			}
			for si, bs := range figs[0].Series {
				for ci := 1; ci < len(configs); ci++ {
					cs := figs[ci].Series[si]
					for pi, bp := range bs.Points {
						cp := cs.Points[pi]
						if bp.Infeasible != cp.Infeasible {
							t.Errorf("%s at %g: %s infeasible=%v, %s=%v",
								bs.Name, bp.QoS, configs[0].name, bp.Infeasible, configs[ci].name, cp.Infeasible)
							continue
						}
						if math.Abs(bp.Bound-cp.Bound) > 1e-9 {
							t.Errorf("%s at %g: %s bound %.12g != %s bound %.12g",
								bs.Name, bp.QoS, configs[0].name, bp.Bound, configs[ci].name, cp.Bound)
						}
						// The rounding certificate may differ: when the LP has
						// alternate optima, different solve paths can land on
						// different optimal vertices, and rounding starts from
						// that vertex's fractional placement. Every certificate
						// must still be valid (at or above the shared bound).
						if cp.Feasible < cp.Bound-1e-6 {
							t.Errorf("%s at %g: %s feasible %g below bound %g",
								bs.Name, bp.QoS, configs[ci].name, cp.Feasible, cp.Bound)
						}
					}
				}
			}

			// Each run must actually have exercised its configuration.
			for ci, cfg := range configs {
				_, agg := figs[ci].SolverStats()
				warm := !cfg.cold
				if warm && agg.WarmSolves == 0 {
					t.Errorf("%s recorded no warm solves: %+v", cfg.name, agg)
				}
				if !warm && agg.WarmSolves != 0 {
					t.Errorf("%s recorded %d warm solves", cfg.name, agg.WarmSolves)
				}
				if !warm && agg.ColdSolves == 0 {
					t.Errorf("%s recorded no cold solves: %+v", cfg.name, agg)
				}
				presolve := cfg.opts.Bound.LP.Presolve != lp.PresolveOff
				if presolve && agg.PresolveRowsRemoved == 0 {
					t.Errorf("%s removed no presolve rows: %+v", cfg.name, agg)
				}
				if !presolve && (agg.PresolveRowsRemoved != 0 || agg.PresolveColsRemoved != 0) {
					t.Errorf("%s recorded presolve reductions with presolve off: %+v", cfg.name, agg)
				}
				if warm && agg.RebindSolves == 0 {
					t.Errorf("%s recorded no rebind solves: %+v", cfg.name, agg)
				}
				if !warm && agg.RebindSolves != 0 {
					t.Errorf("%s recorded %d rebind solves on the cold per-cell grid", cfg.name, agg.RebindSolves)
				}
			}
		})
	}
}

// boundWithPresolve is a shorthand for BoundOptions with one presolve
// mode and everything else defaulted.
func boundWithPresolve(mode lp.PresolveMode) (b core.BoundOptions) {
	b.LP.Presolve = mode
	return b
}
