package lp

import (
	"errors"
	"math"
	"testing"
)

// fuzzTol is the feasibility slack granted to fuzzed solves. Coefficients
// are small (|v| <= 32) but the fuzzer actively seeks near-degenerate
// pivots, so the check is looser than the solver's own 1e-7.
const fuzzTol = 1e-5

// fuzzReader decodes a byte stream into bounded numeric choices; past the
// end it yields zeros, so every input defines a complete model.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// val maps one byte onto [-16, 15.875] in steps of 1/8: small enough to
// stay well-conditioned, fine-grained enough to produce degenerate ties.
func (r *fuzzReader) val() float64 {
	return float64(int8(r.byte())) / 8
}

// fuzzModel decodes a small bounded LP: up to 6 variables and 5 range
// constraints, occasional infinite bounds, and deliberately unordered
// bound pairs (Compile must reject lo > hi, never panic).
func fuzzModel(data []byte) *Model {
	r := &fuzzReader{data: data}
	nVars := 1 + int(r.byte())%6
	nCons := int(r.byte()) % 6
	sense := Minimize
	if r.byte()%4 == 0 {
		sense = Maximize
	}
	m := NewModel(sense)
	for j := 0; j < nVars; j++ {
		lo, hi := r.val(), r.val()
		switch r.byte() % 8 {
		case 0:
			lo = math.Inf(-1)
		case 1:
			hi = Inf
		case 2:
			lo, hi = math.Inf(-1), Inf
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		m.AddVar(lo, hi, r.val(), "")
	}
	for i := 0; i < nCons; i++ {
		var coefs []Coef
		for j := 0; j < nVars; j++ {
			if v := r.val(); v != 0 {
				coefs = append(coefs, Coef{Var: j, Value: v})
			}
		}
		lo, hi := r.val(), r.val()
		switch r.byte() % 4 {
		case 0:
			lo = math.Inf(-1) // <= hi
		case 1:
			hi = Inf // >= lo
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		m.AddRange(coefs, lo, hi, "")
	}
	return m
}

// checkPrimalFeasible verifies that a reported-optimal point actually
// satisfies the model's variable bounds and row ranges.
func checkPrimalFeasible(t *testing.T, m *Model, sol *Solution) {
	t.Helper()
	for j, v := range m.vars {
		x := sol.X[j]
		if math.IsNaN(x) {
			t.Fatalf("var %d: x is NaN", j)
		}
		if x < v.lo-fuzzTol || x > v.hi+fuzzTol {
			t.Fatalf("var %d: x = %g outside [%g, %g]", j, x, v.lo, v.hi)
		}
	}
	for i, c := range m.cons {
		act, scale := 0.0, 1.0
		for _, cf := range c.coefs {
			act += cf.Value * sol.X[cf.Var]
			scale += math.Abs(cf.Value * sol.X[cf.Var])
		}
		if act < c.lo-fuzzTol*scale || act > c.hi+fuzzTol*scale {
			t.Fatalf("row %d: activity %g outside [%g, %g]", i, act, c.lo, c.hi)
		}
	}
	// The reported objective must match the point it claims to describe.
	obj, scale := 0.0, 1.0
	for j, v := range m.vars {
		obj += v.obj * sol.X[j]
		scale += math.Abs(v.obj * sol.X[j])
	}
	if math.Abs(obj-sol.Objective) > fuzzTol*scale {
		t.Fatalf("objective %g does not match c'x = %g", sol.Objective, obj)
	}
}

// checkWeakDuality recomputes the dual bound of an optimal solve from the
// model's own variable and row data, sharing no code with the solver. For
// row duals y and reduced costs d = c - A^T y the objective splits as
// c'x = d'x + y'(Ax), so every y yields a bound: each term takes the
// variable or row bound that minimizes it (maximizes it under Maximize).
// Correct optimal duals make that bound equal the objective; wrong duals
// can only loosen it. A coefficient that needs an infinite bound leaves no
// finite bound and fails the check, unless it is round-off on a zero.
func checkWeakDuality(t *testing.T, m *Model, sol *Solution) {
	t.Helper()
	if len(sol.Duals) != len(m.cons) {
		t.Fatalf("%d duals for %d rows", len(sol.Duals), len(m.cons))
	}
	sign := 1.0
	if m.sense == Maximize {
		sign = -1
	}
	d := make([]float64, len(m.vars))
	mag := make([]float64, len(m.vars)) // |c_j| + sum |y_i a_ij|
	for j, v := range m.vars {
		d[j], mag[j] = v.obj, math.Abs(v.obj)
	}
	for i, c := range m.cons {
		for _, cf := range c.coefs {
			d[cf.Var] -= sol.Duals[i] * cf.Value
			mag[cf.Var] += math.Abs(sol.Duals[i] * cf.Value)
		}
	}
	bound, scale := 0.0, 1+math.Abs(sol.Objective)
	term := func(what string, k int, g, gmag, lo, hi float64) {
		b := lo
		switch {
		case sign*g < 0:
			b = hi
		case g == 0:
			return
		}
		if math.IsInf(b, 0) {
			if math.Abs(g) <= 1e-9*(1+gmag) {
				return // round-off on a zero coefficient
			}
			t.Fatalf("%s %d: dual coefficient %g needs an infinite bound", what, k, g)
		}
		bound += g * b
		scale += math.Abs(g * b)
	}
	for j, v := range m.vars {
		term("var", j, d[j], mag[j], v.lo, v.hi)
	}
	for i, c := range m.cons {
		term("row", i, sol.Duals[i], 0, c.lo, c.hi)
	}
	if math.Abs(bound-sol.Objective) > fuzzTol*scale {
		t.Fatalf("dual bound %g != objective %g (duals %v)", bound, sol.Objective, sol.Duals)
	}
}

// FuzzSolve throws arbitrary small LPs at the solver: it must never
// panic, and whenever it reports success the returned point must satisfy
// every bound and constraint within tolerance. Every instance is solved
// both with and without the presolve layer and the two runs must agree on
// classification and optimum. A successful solve is then re-solved warm
// from its own (postsolved) basis, which must reproduce the optimal
// value — this drives the warm-start validation, repair and presolve
// basis-mapping paths with adversarial bases-to-problem pairings. The
// solve without presolve must also return duals whose weak-duality bound
// reproduces its objective.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 0x10, 0x20, 3, 8, 0xF0, 0x08, 1, 4, 8, 16, 0x18, 0x28, 2})
	f.Add([]byte{5, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzModel(data)
		sol, err := SolveModel(m, Options{MaxIter: 5000})
		plain, perr := SolveModel(m, Options{MaxIter: 5000, Presolve: PresolveOff})
		// The presolve layer must be invisible: both solves must agree on
		// the problem's classification (an iteration-limit or numerical
		// truncation on either side leaves it undetermined) and, when both
		// succeed, on the optimal value. The agreement tolerance is the
		// solver's own termination tolerance scaled by the total objective
		// mass the variables can move — the bound simplex termination
		// actually guarantees.
		definite := func(e error) bool {
			return !errors.Is(e, ErrIterLimit) && !errors.Is(e, ErrNumerical)
		}
		if definite(err) && definite(perr) && (err == nil) != (perr == nil) {
			t.Fatalf("presolve classification mismatch: presolved err=%v, plain err=%v", err, perr)
		}
		if perr == nil {
			checkWeakDuality(t, m, plain)
		}
		if err == nil && perr == nil {
			mass := 1 + math.Abs(sol.Objective)
			for _, v := range m.vars {
				span := v.hi - v.lo
				if math.IsInf(span, 1) {
					span = 32
				}
				mass += math.Abs(v.obj) * span
			}
			if d := math.Abs(sol.Objective - plain.Objective); d > 1e-7*mass {
				t.Fatalf("presolved optimum %g != plain optimum %g (diff %g, allowed %g)",
					sol.Objective, plain.Objective, d, 1e-7*mass)
			}
			checkPrimalFeasible(t, m, plain)
		}
		if err != nil {
			return // infeasible, unbounded or truncated: all legitimate
		}
		// The postsolved point must satisfy the original model, not just
		// the reduced one.
		checkPrimalFeasible(t, m, sol)

		warm, err := SolveModel(m, Options{MaxIter: 5000, Start: sol.Basis})
		if err != nil {
			t.Fatalf("warm re-solve failed where cold succeeded: %v", err)
		}
		checkPrimalFeasible(t, m, warm)
		scale := 1 + math.Abs(sol.Objective)
		if math.Abs(warm.Objective-sol.Objective) > fuzzTol*scale {
			t.Fatalf("warm optimum %g != cold optimum %g", warm.Objective, sol.Objective)
		}
	})
}
