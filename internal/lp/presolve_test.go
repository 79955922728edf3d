package lp

import (
	"errors"
	"math"
	"testing"
)

// presolvableLP grafts presolve-friendly structure onto a random LP:
// a fixed column wired into a fresh row, an empty row, a wide singleton
// row, a redundant row and a zero-cost free singleton column. Every
// graft keeps the model feasible (the base randLP is built around an
// interior point and the grafted rows are satisfiable by construction).
func presolvableLP(rng *testRand, nVars, nCons int) *Model {
	m := randLP(rng, nVars, nCons)
	f := m.AddVar(1.5, 1.5, rng.float()*2-1, "fixed")
	m.AddLE([]Coef{{f, 1}, {rng.intn(nVars), 0.5}}, 4+rng.float(), "")
	m.AddRange(nil, -0.5-rng.float(), 0.5+rng.float(), "empty")
	m.AddRange([]Coef{{rng.intn(nVars), 2}}, -40, 40, "wide-singleton")
	m.AddLE([]Coef{{rng.intn(nVars), 1}}, 100, "redundant")
	fr := m.AddVar(math.Inf(-1), Inf, 0, "free")
	m.AddEQ([]Coef{{fr, 1}, {rng.intn(nVars), 2}}, 1+rng.float(), "free-singleton")
	return m
}

// TestPresolveRoundTripRandom is the presolve/postsolve round-trip
// property test: across many random instances the presolved solve must
// reproduce the plain optimum, the postsolved point and duals must pass
// the independent KKT certificate, and the postsolved basis must
// re-factorize and warm-start a plain re-solve to optimality in zero
// iterations — the strongest evidence the basis and duals were mapped
// back exactly.
func TestPresolveRoundTripRandom(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := newTestRand(seed)
		m := presolvableLP(rng, 4+rng.intn(10), 3+rng.intn(10))

		plain, perr := SolveModel(m, Options{Presolve: PresolveOff})
		sol, err := SolveModel(m, Options{})
		if (err == nil) != (perr == nil) {
			t.Fatalf("seed %d: classification mismatch: presolved err=%v, plain err=%v", seed, err, perr)
		}
		if err != nil {
			continue
		}
		if sol.Stats.PresolveRowsRemoved == 0 && sol.Stats.PresolveColsRemoved == 0 {
			t.Fatalf("seed %d: grafted instance presolved nothing", seed)
		}
		scale := 1 + math.Abs(plain.Objective)
		if d := math.Abs(sol.Objective - plain.Objective); d > 1e-7*scale {
			t.Fatalf("seed %d: presolved optimum %g != plain optimum %g (diff %g)",
				seed, sol.Objective, plain.Objective, d)
		}
		// Independent KKT certificate on the postsolved solution.
		verifyOptimal(t, m, sol)
		if t.Failed() {
			t.Fatalf("seed %d: postsolved solution failed the KKT certificate", seed)
		}
		// The postsolved basis must re-factorize and already be optimal.
		warm, err := SolveModel(m, Options{Presolve: PresolveOff, Start: sol.Basis})
		if err != nil {
			t.Fatalf("seed %d: warm re-solve from postsolved basis: %v", seed, err)
		}
		if warm.Stats.WarmSolves != 1 {
			t.Fatalf("seed %d: postsolved basis rejected, solve went cold", seed)
		}
		if warm.Iterations != 0 {
			t.Fatalf("seed %d: warm re-solve from postsolved basis took %d iterations, want 0",
				seed, warm.Iterations)
		}
		if d := math.Abs(warm.Objective - plain.Objective); d > 1e-7*scale {
			t.Fatalf("seed %d: warm re-solve optimum %g != plain optimum %g", seed, warm.Objective, plain.Objective)
		}
	}
}

func solveOne(t *testing.T, m *Model) *Solution {
	t.Helper()
	sol, err := SolveModel(m, Options{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return sol
}

func TestPresolveFixedColumn(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar(2, 2, 5, "x") // fixed: contributes 10 and folds out
	y := m.AddVar(0, 10, 1, "y")
	m.AddGE([]Coef{{x, 1}, {y, 1}}, 6, "") // becomes y >= 4
	sol := solveOne(t, m)
	if sol.Stats.PresolveColsRemoved < 1 {
		t.Errorf("fixed column not removed: %+v", sol.Stats)
	}
	if math.Abs(sol.Objective-14) > 1e-9 {
		t.Errorf("objective = %g, want 14", sol.Objective)
	}
	if sol.X[x] != 2 || math.Abs(sol.X[y]-4) > 1e-9 {
		t.Errorf("x = %v, want [2 4]", sol.X)
	}
	verifyOptimal(t, m, sol)
}

func TestPresolveEmptyRow(t *testing.T) {
	m := NewModel(Minimize)
	m.AddVar(0, 1, 1, "x")
	m.AddRange(nil, -1, 1, "empty")
	sol := solveOne(t, m)
	if sol.Stats.PresolveRowsRemoved != 1 {
		t.Errorf("empty row not removed: %+v", sol.Stats)
	}
	if sol.Objective != 0 || sol.Duals[0] != 0 {
		t.Errorf("objective %g duals %v, want 0 and [0]", sol.Objective, sol.Duals)
	}

	// An empty row that excludes zero is infeasible outright.
	bad := NewModel(Minimize)
	bad.AddVar(0, 1, 1, "x")
	bad.AddRange(nil, 1, 2, "impossible")
	if _, err := SolveModel(bad, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible empty row: err = %v, want ErrInfeasible", err)
	}
}

func TestPresolveSingletonRow(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar(0, 10, 1, "x")
	m.AddLE([]Coef{{x, 2}}, 6, "") // folds to x <= 3
	sol := solveOne(t, m)
	if sol.Stats.PresolveRowsRemoved != 1 {
		t.Errorf("singleton row not removed: %+v", sol.Stats)
	}
	if math.Abs(sol.Objective-3) > 1e-9 || math.Abs(sol.X[x]-3) > 1e-9 {
		t.Errorf("objective %g x %v, want 3 and [3]", sol.Objective, sol.X)
	}
	// The binding row's dual must survive postsolve: d(obj)/d(rhs) = 1/2.
	if math.Abs(sol.Duals[0]-0.5) > 1e-9 {
		t.Errorf("dual = %g, want 0.5", sol.Duals[0])
	}
	verifyOptimal(t, m, sol)

	// Conflicting singleton rows are detected as infeasible in presolve.
	bad := NewModel(Minimize)
	z := bad.AddVar(0, 10, 1, "z")
	bad.AddGE([]Coef{{z, 1}}, 5, "")
	bad.AddLE([]Coef{{z, 1}}, 2, "")
	if _, err := SolveModel(bad, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("conflicting singletons: err = %v, want ErrInfeasible", err)
	}
}

func TestPresolveRedundantRow(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar(0, 1, -1, "x")
	y := m.AddVar(0, 1, -1, "y")
	m.AddLE([]Coef{{x, 1}, {y, 1}}, 5, "slack-never-binds")
	sol := solveOne(t, m)
	if sol.Stats.PresolveRowsRemoved != 1 {
		t.Errorf("redundant row not removed: %+v", sol.Stats)
	}
	if math.Abs(sol.Objective+2) > 1e-9 {
		t.Errorf("objective = %g, want -2", sol.Objective)
	}
	verifyOptimal(t, m, sol)
}

func TestPresolveForcingRow(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar(0, 1, -1, "x")
	y := m.AddVar(0, 1, -2, "y")
	// Maximum activity of x+y is 2, so the row pins both at their upper
	// bounds and the whole problem dissolves.
	m.AddGE([]Coef{{x, 1}, {y, 1}}, 2, "forcing")
	sol := solveOne(t, m)
	if sol.Stats.PresolveRowsRemoved != 1 || sol.Stats.PresolveColsRemoved != 2 {
		t.Errorf("forcing row not fully reduced: %+v", sol.Stats)
	}
	if math.Abs(sol.Objective+3) > 1e-9 || sol.X[x] != 1 || sol.X[y] != 1 {
		t.Errorf("objective %g x %v, want -3 and [1 1]", sol.Objective, sol.X)
	}
	verifyOptimal(t, m, sol)
}

func TestPresolveFreeSingletonColumn(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar(0, 4, 1, "x")
	f := m.AddVar(math.Inf(-1), Inf, 0, "f")
	// f absorbs whatever x leaves over, so column and row both vanish.
	m.AddEQ([]Coef{{x, 1}, {f, 1}}, 10, "absorbed")
	sol := solveOne(t, m)
	if sol.Stats.PresolveRowsRemoved != 1 || sol.Stats.PresolveColsRemoved != 1 {
		t.Errorf("free singleton not reduced: %+v", sol.Stats)
	}
	if sol.Objective != 0 || sol.X[x] != 0 {
		t.Errorf("objective %g x %v, want 0 and x=0", sol.Objective, sol.X)
	}
	if math.Abs(sol.X[f]-10) > 1e-9 {
		t.Errorf("free column = %g, want 10 (absorbing the row)", sol.X[f])
	}
	verifyOptimal(t, m, sol)
}

// TestPresolveWarmStartMapping rebinds a row on a presolvable problem and
// re-solves from the prior basis: the forward basis mapping must either
// accept the start (warm) or fall back cold, and in both cases reach the
// right optimum.
func TestPresolveWarmStartMapping(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar(0, 10, 1, "x")
	y := m.AddVar(0, 10, 2, "y")
	f := m.AddVar(3, 3, 1, "f") // fixed column, removed by presolve
	m.AddGE([]Coef{{x, 1}, {y, 1}, {f, 1}}, 8, "demand")
	m.AddRange(nil, -1, 1, "empty")
	p, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	first, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(first.Objective-8) > 1e-9 { // x=5, f=3
		t.Fatalf("objective = %g, want 8", first.Objective)
	}
	if err := p.SetRowBounds(0, 9, Inf); err != nil {
		t.Fatal(err)
	}
	second, err := Solve(p, Options{Start: first.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(second.Objective-9) > 1e-9 { // x=6, f=3
		t.Fatalf("rebound objective = %g, want 9", second.Objective)
	}
	if second.Stats.WarmSolves != 1 {
		t.Errorf("mapped warm start rejected: %+v", second.Stats)
	}
}

func TestSetRowBounds(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar(0, 10, 1, "x")
	m.AddGE([]Coef{{x, 1}}, 2, "r")
	p, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetRowBounds(1, 0, 1); err == nil {
		t.Error("out-of-range row accepted")
	}
	if err := p.SetRowBounds(-1, 0, 1); err == nil {
		t.Error("negative row accepted")
	}
	if err := p.SetRowBounds(0, 2, 1); err == nil {
		t.Error("inverted bounds accepted")
	}
	if err := p.SetRowBounds(0, math.NaN(), 1); err == nil {
		t.Error("NaN bound accepted")
	}
	if err := p.SetRowBounds(0, 5, Inf); err != nil {
		t.Fatal(err)
	}
	if lo, hi := p.lo[p.numStruct], p.hi[p.numStruct]; lo != 5 || !math.IsInf(hi, 1) {
		t.Errorf("row 0 bounds = [%g, %g], want [5, +Inf]", lo, hi)
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-5) > 1e-9 {
		t.Errorf("rebound objective = %g, want 5", sol.Objective)
	}
}
