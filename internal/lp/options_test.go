package lp

import (
	"errors"
	"testing"
)

func TestIterationLimit(t *testing.T) {
	rng := newTestRand(99)
	m := randLP(rng, 40, 40)
	_, err := SolveModel(m, Options{MaxIter: 3})
	if !errors.Is(err, ErrIterLimit) {
		t.Fatalf("err = %v, want ErrIterLimit", err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults(100, 200)
	if o.MaxIter <= 0 || o.CheckEvery <= 0 {
		t.Errorf("defaults not filled: %+v", o)
	}
	if o.SectionSize >= 0 && 200 < 4*o.SectionSize {
		t.Errorf("small problem should use full pricing, got section %d", o.SectionSize)
	}
	big := Options{}.withDefaults(100000, 200000)
	if big.SectionSize <= 0 {
		t.Errorf("large problem should use partial pricing, got %d", big.SectionSize)
	}
}

func TestExplicitSectionSize(t *testing.T) {
	// A user-specified section must be honored and still reach the optimum.
	rng := newTestRand(55)
	m := randLP(rng, 25, 25)
	ref, err := SolveModel(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 3, 10000} {
		sol, err := SolveModel(m, Options{SectionSize: size})
		if err != nil {
			t.Fatalf("section %d: %v", size, err)
		}
		if diff := sol.Objective - ref.Objective; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("section %d: objective %g != %g", size, sol.Objective, ref.Objective)
		}
	}
}

func TestModelAccessors(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar(-1, 2, 1, "x")
	m.AddVar(0, 1, 2, "y")
	m.AddLE([]Coef{{x, 1}}, 1, "c")
	if m.NumVars() != 2 {
		t.Errorf("NumVars = %d, want 2", m.NumVars())
	}
	m.SetObj(x, 5)
	p, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if p.numStruct != 2 || p.numRows != 1 {
		t.Errorf("compiled dims %d/%d, want 2/1", p.numStruct, p.numRows)
	}
	if p.obj[x] != 5 || p.lo[x] != -1 || p.hi[x] != 2 {
		t.Error("SetObj or variable bounds not applied")
	}
}

func TestSolutionValue(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar(2, 2, 1, "x")
	sol, err := SolveModel(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[x] != 2 {
		t.Errorf("X[x] = %g, want 2", sol.X[x])
	}
}

func TestNoSenseRejected(t *testing.T) {
	var m Model
	if _, err := m.Compile(); err == nil {
		t.Error("model without sense compiled")
	}
}
