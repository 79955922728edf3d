package lp

import (
	"math"
	"testing"
)

// ladderModel is a small covering LP whose only moving part is the
// right-hand side scale — the shape every solve in a QoS sweep shares.
// min Σ c_j x_j  s.t.  per-demand cover rows scaled by rhs, shared
// capacity row, x in [0, 10].
func ladderModel(rhs float64) *Model {
	m := NewModel(Minimize)
	const n = 8
	vars := make([]int, n)
	for j := 0; j < n; j++ {
		cost := 1 + float64((j*7)%5)/3
		vars[j] = m.AddVar(0, 10, cost, "")
	}
	for r := 0; r < 4; r++ {
		coefs := make([]Coef, 0, n/2)
		for j := r; j < n; j += 2 {
			coefs = append(coefs, Coef{Var: vars[j], Value: 1 + float64((r+j)%3)/2})
		}
		m.AddGE(coefs, rhs*(2+float64(r)), "")
	}
	all := make([]Coef, n)
	for j := 0; j < n; j++ {
		all[j] = Coef{Var: vars[j], Value: 1}
	}
	m.AddLE(all, 60, "")
	return m
}

func solveLadder(t *testing.T, rhs float64, start *Basis) *Solution {
	t.Helper()
	sol, err := SolveModel(ladderModel(rhs), Options{Start: start})
	if err != nil {
		t.Fatalf("rhs=%g: %v", rhs, err)
	}
	return sol
}

// TestWarmStartSameProblem re-solves an identical problem from its own
// final basis: the warm solve must report warm stats, reach the same
// objective, and need no more iterations than the cold solve.
func TestWarmStartSameProblem(t *testing.T) {
	cold := solveLadder(t, 1, nil)
	if cold.Stats.ColdSolves != 1 || cold.Stats.WarmSolves != 0 {
		t.Fatalf("cold solve stats: %+v", cold.Stats)
	}
	if cold.Basis == nil {
		t.Fatal("cold solve returned no basis")
	}
	warm := solveLadder(t, 1, cold.Basis)
	if warm.Stats.WarmSolves != 1 || warm.Stats.ColdSolves != 0 {
		t.Fatalf("warm solve stats: %+v", warm.Stats)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9*math.Max(1, math.Abs(cold.Objective)) {
		t.Fatalf("warm objective %g != cold %g", warm.Objective, cold.Objective)
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm solve took %d iterations, cold took %d", warm.Iterations, cold.Iterations)
	}
	verifyOptimal(t, ladderModel(1), warm)
}

// TestWarmStartChain walks an ascending RHS ladder feeding each basis into
// the next solve — the sweep engine's usage pattern. Every point must
// match its cold solve to 1e-9 and pass the independent KKT check, and the
// chain must save simplex iterations overall.
func TestWarmStartChain(t *testing.T) {
	ladder := []float64{1, 1.5, 2, 2.5, 3}
	var start *Basis
	warmIters, coldIters := 0, 0
	for i, rhs := range ladder {
		warm := solveLadder(t, rhs, start)
		cold := solveLadder(t, rhs, nil)
		if i > 0 && warm.Stats.WarmSolves != 1 {
			t.Errorf("rhs=%g: chain solve not warm: %+v", rhs, warm.Stats)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-9*math.Max(1, math.Abs(cold.Objective)) {
			t.Errorf("rhs=%g: warm objective %g != cold %g", rhs, warm.Objective, cold.Objective)
		}
		verifyOptimal(t, ladderModel(rhs), warm)
		warmIters += warm.Iterations
		coldIters += cold.Iterations
		start = warm.Basis
	}
	if warmIters > coldIters {
		t.Errorf("warm chain took %d iterations, cold solves %d", warmIters, coldIters)
	}
}

// TestWarmStartShapeMismatch seeds a solve with a basis from a different
// problem shape: the solver must fall back to a cold start and still
// solve correctly.
func TestWarmStartShapeMismatch(t *testing.T) {
	other := NewModel(Minimize)
	x := other.AddVar(0, 5, 1, "")
	other.AddGE([]Coef{{Var: x, Value: 1}}, 1, "")
	osol, err := SolveModel(other, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sol := solveLadder(t, 1, osol.Basis)
	if sol.Stats.ColdSolves != 1 || sol.Stats.WarmSolves != 0 {
		t.Fatalf("mismatched basis was not rejected: %+v", sol.Stats)
	}
	verifyOptimal(t, ladderModel(1), sol)
}

// TestWarmStartCorruptBasis seeds with internally inconsistent snapshots;
// all of them must be rejected in favor of the crash basis.
func TestWarmStartCorruptBasis(t *testing.T) {
	good := solveLadder(t, 1, nil).Basis
	corrupt := []*Basis{
		nil,
		{numRows: good.numRows, numCols: good.numCols}, // empty slices
		func() *Basis { // duplicate basic column
			b := &Basis{numRows: good.numRows, numCols: good.numCols,
				basic:  append([]int(nil), good.basic...),
				status: append([]colStatus(nil), good.status...)}
			if len(b.basic) > 1 {
				b.basic[1] = b.basic[0]
			}
			return b
		}(),
		func() *Basis { // basic column out of range
			b := &Basis{numRows: good.numRows, numCols: good.numCols,
				basic:  append([]int(nil), good.basic...),
				status: append([]colStatus(nil), good.status...)}
			b.basic[0] = b.numCols
			return b
		}(),
		func() *Basis { // status disagrees with the basic set
			b := &Basis{numRows: good.numRows, numCols: good.numCols,
				basic:  append([]int(nil), good.basic...),
				status: append([]colStatus(nil), good.status...)}
			b.status[b.basic[0]] = nonbasicLower
			return b
		}(),
	}
	for i, b := range corrupt {
		sol := solveLadder(t, 1, b)
		if sol.Stats.ColdSolves != 1 {
			t.Errorf("corrupt basis %d accepted: %+v", i, sol.Stats)
		}
		verifyOptimal(t, ladderModel(1), sol)
	}
}

// TestWarmStartBoundRepair takes a basis from a problem whose variables
// rest on finite bounds and installs it into a same-shaped problem where
// some of those bounds became infinite: the repaired statuses must yield a
// correct solve, not an infinite iterate.
func TestWarmStartBoundRepair(t *testing.T) {
	build := func(hi float64) *Model {
		m := NewModel(Minimize)
		x := m.AddVar(0, hi, -1, "") // minimize -x: pushes x to its cap
		y := m.AddVar(0, 10, 1, "")
		m.AddLE([]Coef{{Var: x, Value: 1}, {Var: y, Value: 1}}, 8, "")
		return m
	}
	capped, err := SolveModel(build(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	open := build(Inf)
	sol, err := SolveModel(open, Options{Start: capped.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-(-8)) > testTol {
		t.Fatalf("objective = %g, want -8", sol.Objective)
	}
	verifyOptimal(t, build(Inf), sol)
}

// TestBasisAccessors: a solve's basis records the shape of the problem it
// came from, which compatibleWith checks before a warm start.
func TestBasisAccessors(t *testing.T) {
	sol := solveLadder(t, 1, nil)
	m := ladderModel(1)
	if got := sol.Basis.numRows; got != len(m.cons) {
		t.Errorf("numRows = %d, want %d", got, len(m.cons))
	}
	if got := sol.Basis.numCols; got != m.NumVars()+len(m.cons) {
		t.Errorf("numCols = %d, want %d", got, m.NumVars()+len(m.cons))
	}
}
