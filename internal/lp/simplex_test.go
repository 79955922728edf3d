package lp

import (
	"errors"
	"math"
	"testing"
)

const testTol = 1e-6

// verifyOptimal independently certifies that sol is optimal for p by
// checking primal feasibility and the Karush-Kuhn-Tucker sign conditions
// using the returned duals. This does not reuse the simplex machinery.
func verifyOptimal(t *testing.T, m *Model, sol *Solution) {
	t.Helper()
	p, err := m.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	n := p.numStruct
	// Sense sign: p.obj is already negated for Maximize; duals were flipped
	// back, so flip them again to work in the internal minimize form.
	y := make([]float64, p.numRows)
	for i, d := range sol.Duals {
		if p.sense == Maximize {
			d = -d
		}
		y[i] = d
	}
	// Primal feasibility + row activities.
	act := make([]float64, p.numRows)
	for j := 0; j < n; j++ {
		xj := sol.X[j]
		if xj < p.lo[j]-testTol || xj > p.hi[j]+testTol {
			t.Fatalf("variable %d = %g outside [%g, %g]", j, xj, p.lo[j], p.hi[j])
		}
		ri, rv := p.cols.Col(j)
		for k, r := range ri {
			act[r] += rv[k] * xj
		}
	}
	for i := 0; i < p.numRows; i++ {
		lo, hi := p.lo[n+i], p.hi[n+i]
		scale := math.Max(1, math.Abs(act[i]))
		if act[i] < lo-testTol*scale || act[i] > hi+testTol*scale {
			t.Fatalf("row %d activity %g outside [%g, %g]", i, act[i], lo, hi)
		}
		// Dual sign vs row activity (complementary slackness).
		if y[i] > testTol && act[i] > lo+testTol*scale {
			t.Errorf("row %d: positive dual %g but activity %g not at lower bound %g", i, y[i], act[i], lo)
		}
		if y[i] < -testTol && act[i] < hi-testTol*scale {
			t.Errorf("row %d: negative dual %g but activity %g not at upper bound %g", i, y[i], act[i], hi)
		}
	}
	// Reduced-cost sign conditions for structural columns.
	for j := 0; j < n; j++ {
		d := p.obj[j]
		ri, rv := p.cols.Col(j)
		for k, r := range ri {
			d -= y[r] * rv[k]
		}
		if d > testTol && sol.X[j] > p.lo[j]+testTol {
			t.Errorf("var %d: reduced cost %g > 0 but x=%g not at lower bound %g", j, d, sol.X[j], p.lo[j])
		}
		if d < -testTol && sol.X[j] < p.hi[j]-testTol {
			t.Errorf("var %d: reduced cost %g < 0 but x=%g not at upper bound %g", j, d, sol.X[j], p.hi[j])
		}
	}
	// Objective consistency.
	obj := 0.0
	for j := 0; j < n; j++ {
		c := p.obj[j]
		if p.sense == Maximize {
			c = -c
		}
		obj += c * sol.X[j]
	}
	if math.Abs(obj-sol.Objective) > testTol*math.Max(1, math.Abs(obj)) {
		t.Errorf("objective mismatch: reported %g, recomputed %g", sol.Objective, obj)
	}
}

func TestSimpleMaximize(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
	// Classic: optimum 36 at (2, 6).
	m := NewModel(Maximize)
	x := m.AddVar(0, Inf, 3, "x")
	y := m.AddVar(0, Inf, 5, "y")
	m.AddLE([]Coef{{x, 1}}, 4, "c1")
	m.AddLE([]Coef{{y, 2}}, 12, "c2")
	m.AddLE([]Coef{{x, 3}, {y, 2}}, 18, "c3")
	sol, err := SolveModel(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-36) > testTol {
		t.Fatalf("objective = %g, want 36", sol.Objective)
	}
	if math.Abs(sol.X[x]-2) > testTol || math.Abs(sol.X[y]-6) > testTol {
		t.Fatalf("solution = (%g, %g), want (2, 6)", sol.X[x], sol.X[y])
	}
	verifyOptimal(t, m, sol)
}

func TestSimpleMinimize(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 0. Optimum 22 at (8, 2)?
	// 2x+3y with x+y>=10: put everything in x: x=10,y=0 -> 20.
	m := NewModel(Minimize)
	x := m.AddVar(2, Inf, 2, "x")
	y := m.AddVar(0, Inf, 3, "y")
	m.AddGE([]Coef{{x, 1}, {y, 1}}, 10, "cover")
	sol, err := SolveModel(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-20) > testTol {
		t.Fatalf("objective = %g, want 20", sol.Objective)
	}
	verifyOptimal(t, m, sol)
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 2y s.t. x + y = 5, 0 <= x <= 3, 0 <= y <= 4. Optimum x=3,y=2 -> 7.
	m := NewModel(Minimize)
	x := m.AddVar(0, 3, 1, "x")
	y := m.AddVar(0, 4, 2, "y")
	m.AddEQ([]Coef{{x, 1}, {y, 1}}, 5, "sum")
	sol, err := SolveModel(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-7) > testTol {
		t.Fatalf("objective = %g, want 7", sol.Objective)
	}
	verifyOptimal(t, m, sol)
}

func TestRangeConstraint(t *testing.T) {
	// min x s.t. 3 <= x + y <= 8, y <= 2, x,y in [0,10]. Optimum x=1 (y=2).
	m := NewModel(Minimize)
	x := m.AddVar(0, 10, 1, "x")
	y := m.AddVar(0, 10, 0, "y")
	m.AddRange([]Coef{{x, 1}, {y, 1}}, 3, 8, "rng")
	m.AddLE([]Coef{{y, 1}}, 2, "ycap")
	sol, err := SolveModel(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-1) > testTol {
		t.Fatalf("objective = %g, want 1", sol.Objective)
	}
	verifyOptimal(t, m, sol)
}

func TestInfeasible(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar(0, 1, 1, "x")
	m.AddGE([]Coef{{x, 1}}, 2, "impossible")
	_, err := SolveModel(m, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestInfeasibleSystem(t *testing.T) {
	// x + y >= 5 and x + y <= 3.
	m := NewModel(Minimize)
	x := m.AddVar(0, Inf, 1, "x")
	y := m.AddVar(0, Inf, 1, "y")
	m.AddGE([]Coef{{x, 1}, {y, 1}}, 5, "ge")
	m.AddLE([]Coef{{x, 1}, {y, 1}}, 3, "le")
	_, err := SolveModel(m, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar(0, Inf, 1, "x")
	y := m.AddVar(0, Inf, 0, "y")
	m.AddGE([]Coef{{x, 1}, {y, -1}}, 0, "slope")
	_, err := SolveModel(m, Options{})
	if !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestFreeVariable(t *testing.T) {
	// min |style| problem: min x s.t. x >= y - 3, x >= -y + 1, y free.
	// At y = 2: x = -1 possible? x >= y-3 = -1, x >= -y+1 = -1 -> x = -1.
	m := NewModel(Minimize)
	x := m.AddVar(math.Inf(-1), Inf, 1, "x")
	y := m.AddVar(math.Inf(-1), Inf, 0, "y")
	m.AddGE([]Coef{{x, 1}, {y, -1}}, -3, "a")
	m.AddGE([]Coef{{x, 1}, {y, 1}}, 1, "b")
	sol, err := SolveModel(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-(-1)) > testTol {
		t.Fatalf("objective = %g, want -1", sol.Objective)
	}
	verifyOptimal(t, m, sol)
}

func TestNegativeBounds(t *testing.T) {
	// max x + y with x in [-5, -1], y in [-2, 3], x + y >= -4.
	// Optimum x=-1, y=3 -> 2.
	m := NewModel(Maximize)
	x := m.AddVar(-5, -1, 1, "x")
	y := m.AddVar(-2, 3, 1, "y")
	m.AddGE([]Coef{{x, 1}, {y, 1}}, -4, "c")
	sol, err := SolveModel(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-2) > testTol {
		t.Fatalf("objective = %g, want 2", sol.Objective)
	}
	verifyOptimal(t, m, sol)
}

func TestDegenerateLP(t *testing.T) {
	// A classic cycling-prone instance (Beale). With anti-cycling this must
	// terminate at the optimum -0.05.
	m := NewModel(Minimize)
	x1 := m.AddVar(0, Inf, -0.75, "x1")
	x2 := m.AddVar(0, Inf, 150, "x2")
	x3 := m.AddVar(0, Inf, -0.02, "x3")
	x4 := m.AddVar(0, Inf, 6, "x4")
	m.AddLE([]Coef{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, 0, "r1")
	m.AddLE([]Coef{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, 0, "r2")
	m.AddLE([]Coef{{x3, 1}}, 1, "r3")
	sol, err := SolveModel(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-(-0.05)) > testTol {
		t.Fatalf("objective = %g, want -0.05", sol.Objective)
	}
	verifyOptimal(t, m, sol)
}

func TestNoConstraints(t *testing.T) {
	m := NewModel(Minimize)
	m.AddVar(-2, 7, 3, "x")
	m.AddVar(-4, 5, -2, "y")
	sol, err := SolveModel(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 3.0*(-2) + (-2.0)*5
	if math.Abs(sol.Objective-want) > testTol {
		t.Fatalf("objective = %g, want %g", sol.Objective, want)
	}
}

func TestFixedVariable(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar(4, 4, 1, "x")
	y := m.AddVar(0, 10, 1, "y")
	m.AddGE([]Coef{{x, 1}, {y, 1}}, 7, "c")
	sol, err := SolveModel(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-7) > testTol || math.Abs(sol.X[x]-4) > testTol {
		t.Fatalf("objective = %g (x=%g), want 7 (x=4)", sol.Objective, sol.X[x])
	}
	verifyOptimal(t, m, sol)
}

func TestCompileErrors(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar(1, 0, 1, "bad")
	if _, err := m.Compile(); err == nil {
		t.Error("crossed variable bounds not rejected")
	}

	m2 := NewModel(Minimize)
	x = m2.AddVar(0, 1, 1, "x")
	m2.AddRange([]Coef{{x, 1}}, 2, 1, "bad")
	if _, err := m2.Compile(); err == nil {
		t.Error("crossed constraint bounds not rejected")
	}

	m3 := NewModel(Minimize)
	x = m3.AddVar(0, 1, 1, "x")
	m3.AddLE([]Coef{{x, 1}, {x, 1}}, 1, "dup")
	if _, err := m3.Compile(); err == nil {
		t.Error("duplicate coefficient not rejected")
	}

	m4 := NewModel(Minimize)
	m4.AddLE([]Coef{{5, 1}}, 1, "oob")
	if _, err := m4.Compile(); err == nil {
		t.Error("out-of-range variable index not rejected")
	}
}

// randLP builds a random feasible bounded LP with a known feasible point.
func randLP(rng *testRand, nVars, nCons int) *Model {
	m := NewModel(Minimize)
	x0 := make([]float64, nVars)
	for j := 0; j < nVars; j++ {
		lo := rng.float()*4 - 2
		hi := lo + rng.float()*5
		obj := rng.float()*6 - 3
		m.AddVar(lo, hi, obj, "")
		x0[j] = lo + rng.float()*(hi-lo)
	}
	for i := 0; i < nCons; i++ {
		nz := 1 + rng.intn(4)
		var coefs []Coef
		act := 0.0
		seen := map[int]bool{}
		for k := 0; k < nz; k++ {
			j := rng.intn(nVars)
			if seen[j] {
				continue
			}
			seen[j] = true
			v := rng.float()*4 - 2
			coefs = append(coefs, Coef{j, v})
			act += v * x0[j]
		}
		switch rng.intn(3) {
		case 0:
			m.AddLE(coefs, act+rng.float(), "")
		case 1:
			m.AddGE(coefs, act-rng.float(), "")
		default:
			m.AddRange(coefs, act-rng.float(), act+rng.float(), "")
		}
	}
	return m
}

// testRand is a tiny deterministic xorshift RNG for tests.
type testRand struct{ s uint64 }

func newTestRand(seed uint64) *testRand { return &testRand{s: seed*2685821657736338717 + 1} }

func (r *testRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *testRand) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *testRand) intn(n int) int { return int(r.next() % uint64(n)) }

func TestRandomLPsCertified(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := newTestRand(seed)
		m := randLP(rng, 5+rng.intn(25), 3+rng.intn(30))
		sol, err := SolveModel(m, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		verifyOptimal(t, m, sol)
	}
}

// solveWithUpdateBudget solves m without presolve on a factorization that
// requests a refactorization after every maxEtas basis updates.
func solveWithUpdateBudget(t *testing.T, m *Model, maxEtas int) *Solution {
	t.Helper()
	p, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	s := newSimplex(p, Options{})
	s.fac = NewSparseFactor(maxEtas)
	sol, err := s.solve()
	if err != nil {
		t.Fatalf("update budget %d: %v", maxEtas, err)
	}
	return sol
}

func TestFrequentRefactorization(t *testing.T) {
	// Force an update budget of 1 so every pivot refactorizes; the result
	// must be identical to the default configuration.
	rng := newTestRand(7)
	m := randLP(rng, 20, 25)
	solA := solveWithUpdateBudget(t, m, 1)
	solB := solveWithUpdateBudget(t, m, sparseMaxEtas)
	if solA.Stats.Refactorizations <= solB.Stats.Refactorizations {
		t.Errorf("budget 1 refactorized %d times, default %d: the budget was not honored",
			solA.Stats.Refactorizations, solB.Stats.Refactorizations)
	}
	verifyOptimal(t, m, solA)
	if math.Abs(solA.Objective-solB.Objective) > 1e-6 {
		t.Errorf("objectives differ with refactorization frequency: %g vs %g", solA.Objective, solB.Objective)
	}
}

func TestLargeSparseSetCoverLike(t *testing.T) {
	// A set-cover LP shaped like MC-PERF coverage rows: minimize sum x_j
	// subject to sum over a few x_j >= 1. The LP optimum is known to equal
	// the max-matching style bound; here we only certify optimality.
	rng := newTestRand(42)
	const n, rows = 400, 300
	m := NewModel(Minimize)
	for j := 0; j < n; j++ {
		m.AddVar(0, 1, 1, "")
	}
	for i := 0; i < rows; i++ {
		nz := 2 + rng.intn(5)
		seen := map[int]bool{}
		var coefs []Coef
		for k := 0; k < nz; k++ {
			j := rng.intn(n)
			if !seen[j] {
				seen[j] = true
				coefs = append(coefs, Coef{j, 1})
			}
		}
		m.AddGE(coefs, 1, "")
	}
	sol, err := SolveModel(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	verifyOptimal(t, m, sol)
	if sol.Objective <= 0 {
		t.Errorf("cover LP objective = %g, want > 0", sol.Objective)
	}
}

func TestMaximizeDualsSign(t *testing.T) {
	// For max c.x with a binding <= row, the dual must be >= 0 in the
	// Maximize convention (increasing the rhs increases the optimum).
	m := NewModel(Maximize)
	x := m.AddVar(0, Inf, 2, "x")
	row := m.AddLE([]Coef{{x, 1}}, 5, "cap")
	sol, err := SolveModel(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 10 {
		t.Fatalf("objective = %g, want 10", sol.Objective)
	}
	if sol.Duals[row] < -testTol {
		t.Errorf("dual = %g, want >= 0 for binding <= row under Maximize", sol.Duals[row])
	}
}
