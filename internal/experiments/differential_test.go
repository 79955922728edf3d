package experiments

import (
	"bytes"
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

// TestWarmColdDifferential is the solver-speed layer's central guarantee:
// warm-start chaining, the presolve layer and compiled-problem rebinding
// change solver effort, never results. It renders the full Figure-1 grid
// (every class at every QoS goal, both workloads) under the four
// presolve × start-mode combinations and demands byte-identical TSV
// bodies and per-point objectives equal to 1e-9 across all of them.
func TestWarmColdDifferential(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"warm-presolve", Options{Parallel: 4}},
		{"warm-plain", Options{Parallel: 4, Bound: boundWithPresolve(lp.PresolveOff)}},
		{"cold-presolve", Options{Parallel: 4, ColdStart: true}},
		{"cold-plain", Options{Parallel: 4, ColdStart: true, Bound: boundWithPresolve(lp.PresolveOff)}},
	}
	for _, kind := range []WorkloadKind{WEB, GROUP} {
		t.Run(string(kind), func(t *testing.T) {
			spec := tinySpec(kind)
			// Three ascending goals give every column two warm links.
			spec.QoSPoints = []float64{0.7, 0.8, 0.9}
			sys, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			figs := make([]*Figure, len(configs))
			tsvs := make([]string, len(configs))
			for ci, cfg := range configs {
				fig, err := Figure1(sys, cfg.opts, nil)
				if err != nil {
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
				warm := !cfg.opts.ColdStart
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
