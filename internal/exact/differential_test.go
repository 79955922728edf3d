package exact

import (
	"fmt"
	"math"
	"testing"

	"wideplace/internal/core"
	"wideplace/internal/lp"
	"wideplace/internal/scenario"
)

// TestExactOracleDifferential is the end-to-end oracle check on the
// builtin tree scenarios, shrunk to brute-force-verifiable sizes: every
// (class, qos) cell must satisfy
//
//	LP lower bound <= exact optimum <= rounded certificate cost
//
// under every solver configuration (warm/cold start x presolve on/off),
// the bounds must agree across
// configurations, and the DP witness must verify as a feasible MC-PERF
// solution of exactly the optimal cost.
func TestExactOracleDifferential(t *testing.T) {
	const tol = 1e-9
	scenarios := []struct {
		name  string
		nodes int
	}{
		{"tree-kary-63", 15},
		{"tree-random-100", 12},
	}
	type cfg struct {
		name     string
		warm     bool
		presolve lp.PresolveMode
	}
	var cfgs []cfg
	for _, warm := range []bool{false, true} {
		for _, pre := range []lp.PresolveMode{lp.PresolveOn, lp.PresolveOff} {
			cfgs = append(cfgs, cfg{
				name:     fmt.Sprintf("warm=%v/presolve=%v", warm, pre == lp.PresolveOff),
				warm:     warm,
				presolve: pre,
			})
		}
	}
	for _, sc := range scenarios {
		spec, err := scenario.Get(sc.name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scenario.Compile(spec.WithNodes(sc.nodes))
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		for _, tqos := range res.System.Spec.QoSPoints {
			inst, err := res.System.Instance(tqos)
			if err != nil {
				t.Fatal(err)
			}
			for _, class := range res.Classes {
				exactSol, err := SolveInstance(inst, class)
				if err != nil {
					t.Fatalf("%s/%s/q%g: SolveInstance: %v", sc.name, class.Name, tqos, err)
				}
				brute, err := SolveInstanceBrute(inst, class)
				if err != nil {
					t.Fatalf("%s/%s/q%g: SolveInstanceBrute: %v", sc.name, class.Name, tqos, err)
				}
				if exactSol.Cost != brute.Cost {
					t.Errorf("%s/%s/q%g: DP optimum %g != brute optimum %g",
						sc.name, class.Name, tqos, exactSol.Cost, brute.Cost)
				}
				if err := inst.VerifySolution(class, exactSol.Store); err != nil {
					t.Errorf("%s/%s/q%g: DP witness infeasible: %v", sc.name, class.Name, tqos, err)
				}
				if got := inst.SolutionCost(class, exactSol.Store); math.Abs(got-exactSol.Cost) > tol {
					t.Errorf("%s/%s/q%g: witness MC-PERF cost %g != oracle cost %g",
						sc.name, class.Name, tqos, got, exactSol.Cost)
				}

				var warmBasis *lp.Basis
				first := math.NaN()
				for _, c := range cfgs {
					opts := lp.Options{Presolve: c.presolve}
					if c.warm {
						if warmBasis == nil {
							// Prime a basis with a plain solve of this cell.
							b, err := inst.LowerBound(class, core.BoundOptions{SkipRounding: true})
							if err != nil {
								t.Fatalf("%s/%s/q%g: priming solve: %v", sc.name, class.Name, tqos, err)
							}
							warmBasis = b.Basis
						}
						opts.Start = warmBasis
					}
					b, err := inst.LowerBound(class, core.BoundOptions{LP: opts})
					if err != nil {
						t.Fatalf("%s/%s/q%g/%s: LowerBound: %v", sc.name, class.Name, tqos, c.name, err)
					}
					if b.LPBound > exactSol.Cost+tol {
						t.Errorf("%s/%s/q%g/%s: LP bound %.12g above exact optimum %.12g",
							sc.name, class.Name, tqos, c.name, b.LPBound, exactSol.Cost)
					}
					if exactSol.Cost > b.FeasibleCost+tol {
						t.Errorf("%s/%s/q%g/%s: exact optimum %.12g above certificate %.12g",
							sc.name, class.Name, tqos, c.name, exactSol.Cost, b.FeasibleCost)
					}
					if err := inst.VerifySolution(class, b.Store); err != nil {
						t.Errorf("%s/%s/q%g/%s: rounded store infeasible: %v", sc.name, class.Name, tqos, c.name, err)
					}
					if math.IsNaN(first) {
						first = b.LPBound
					} else if math.Abs(b.LPBound-first) > tol {
						t.Errorf("%s/%s/q%g/%s: LP bound %.12g differs from first config's %.12g",
							sc.name, class.Name, tqos, c.name, b.LPBound, first)
					}
				}
			}
		}
	}
}
