package scenario

import (
	"math"
	"testing"

	"wideplace/internal/core"
	"wideplace/internal/lp"
)

// TestPaper20WebSeed2WarmChain replays the warm chain that used to lose
// paper20-web seed 2's whole Figure 1: the replica-constrained column
// solved cold at 0.95, rebound to 0.99 and re-solved from the 0.95 basis.
// A pivot of that re-solve is rejected, and the basis it restores was
// factorable only through the Forrest-Tomlin update chain, so a plain
// refactorization found it singular and the solve failed. The restore now
// repairs the basis in the factorization, as a warm start does; the warm
// bound must equal a cold solve of the same cell.
func TestPaper20WebSeed2WarmChain(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two paper20-size solves and a warm chain take tens of seconds")
	}
	spec, err := Get("paper20-web")
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 2
	res, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	var class *core.Class
	for _, c := range res.Classes {
		if c.Name == "replica-constrained" {
			class = c
		}
	}
	if class == nil {
		t.Fatal("paper20-web has no replica-constrained class")
	}
	solve := func(comp *core.CompiledQoS, start *lp.Basis) *core.Bound {
		t.Helper()
		b, err := comp.LowerBound(core.BoundOptions{LP: lp.Options{Start: start}, SkipRounding: true})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	compile := func(q float64) *core.CompiledQoS {
		t.Helper()
		inst, err := res.System.Instance(q)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := inst.CompileQoS(class)
		if err != nil {
			t.Fatal(err)
		}
		return comp
	}

	chain := compile(0.95)
	first := solve(chain, nil)
	if err := chain.Rebind(0.99); err != nil {
		t.Fatal(err)
	}
	warm := solve(chain, first.Basis)
	if warm.Stats.WarmSolves != 1 {
		t.Fatalf("0.99 re-solve ran cold (stats %+v), want the warm chain", warm.Stats)
	}
	cold := solve(compile(0.99), nil)
	if d := math.Abs(warm.LPBound - cold.LPBound); d > 1e-9*math.Max(1, math.Abs(cold.LPBound)) {
		t.Errorf("warm-chained 0.99 bound %.12g, cold %.12g (diff %g)", warm.LPBound, cold.LPBound, d)
	}
	t.Logf("0.99 bound %.6f: warm %d iterations (%d pivot rejections, %d repairs), cold %d",
		warm.LPBound, warm.Stats.Iterations, warm.Stats.PivotRejections, warm.Stats.BasisRepairs, cold.Stats.Iterations)
}
