package lp

import (
	"math"
	"testing"
)

// TestFactorTolerancesShared pins the factorization tolerance constants and
// the fact that SparseFactor actually constructs from them.
func TestFactorTolerancesShared(t *testing.T) {
	if factorPivTol != 1e-10 {
		t.Errorf("factorPivTol = %g, want 1e-10", factorPivTol)
	}
	if factorDropTol != 1e-12 {
		t.Errorf("factorDropTol = %g, want 1e-12", factorDropTol)
	}
	if factorUpdateAccTol != 1e-9 {
		t.Errorf("factorUpdateAccTol = %g, want 1e-9", factorUpdateAccTol)
	}
	if sparseMaxEtas != 500 {
		t.Errorf("sparseMaxEtas = %d, want 500", sparseMaxEtas)
	}
	if sparseFillLimit != 4 {
		t.Errorf("sparseFillLimit = %d, want 4", sparseFillLimit)
	}
	s := NewSparseFactor(0)
	if s.pivTol != factorPivTol {
		t.Errorf("sparse pivTol = %g, want shared factorPivTol %g", s.pivTol, factorPivTol)
	}
	if s.maxEtas != sparseMaxEtas {
		t.Errorf("sparse maxEtas = %d, want shared sparseMaxEtas %d", s.maxEtas, sparseMaxEtas)
	}
}

// TestSparseFactorLongUpdateChain drives the factorization through a long
// pivot sequence — far past a product-form eta budget — checking after
// every few pivots that FTRAN/BTRAN still solve against the current basis. The Btran between Ftran and Update mimics the devex weight update,
// which is exactly the call pattern the sparse backend's Ftran-record
// optimization must survive.
func TestSparseFactorLongUpdateChain(t *testing.T) {
	for seed := uint64(300); seed <= 304; seed++ {
		rng := newTestRand(seed)
		m := 40 + rng.intn(60)
		tb := NewTripletBuilder(m, 2*m)
		for j := 0; j < 2*m; j++ {
			tb.Add(j%m, j, 2+rng.float()*3)
			if j >= m {
				tb.Add(rng.intn(m), j, rng.float()-0.5)
			}
		}
		a := tb.ToCSC()
		basis := make([]int, m)
		inBasis := make([]bool, 2*m)
		for i := range basis {
			basis[i] = i
			inBasis[i] = true
		}
		sp := NewSparseFactor(0)
		if err := sp.Factor(a, basis); err != nil {
			t.Fatal(err)
		}
		scratch := make([]float64, m)
		check := func(rep int) {
			x0 := make([]float64, m)
			for i := range x0 {
				x0[i] = rng.float()*4 - 2
			}
			b := make([]float64, m)
			for c, j := range basis {
				ri, rv := a.Col(j)
				for k, r := range ri {
					b[r] += rv[k] * x0[c]
				}
			}
			sp.Ftran(b)
			for i := range b {
				if math.Abs(b[i]-x0[i]) > 1e-6 {
					t.Fatalf("seed %d rep %d: Ftran drift at %d: got %g want %g", seed, rep, i, b[i], x0[i])
				}
			}
			cv := make([]float64, m)
			for c, j := range basis {
				ri, rv := a.Col(j)
				for k, r := range ri {
					cv[c] += rv[k] * x0[r]
				}
			}
			sp.Btran(cv)
			for i := range cv {
				if math.Abs(cv[i]-x0[i]) > 1e-6 {
					t.Fatalf("seed %d rep %d: Btran drift at %d: got %g want %g", seed, rep, i, cv[i], x0[i])
				}
			}
		}
		updates := 0
		for rep := 0; updates < 150 && rep < 2000; rep++ {
			// Swap the basic column at pos for its "twin" (the other column
			// whose strong entry sits on the same row), so the basis stays
			// well-conditioned however long the chain runs and any drift is
			// the update machinery's, not the matrix's.
			pos := rng.intn(m)
			newCol := (basis[pos] + m) % (2 * m)
			if inBasis[newCol] {
				continue
			}
			w := make([]float64, m)
			ri, rv := a.Col(newCol)
			for k, r := range ri {
				w[r] = rv[k]
			}
			sp.Ftran(w)
			if math.Abs(w[pos]) < 1e-6 {
				continue // replacement would make the basis near-singular
			}
			// Interleave a Btran like devexUpdate does; the sparse backend
			// must keep its Ftran record usable across it.
			for i := range scratch {
				scratch[i] = 0
			}
			scratch[pos] = 1
			sp.Btran(scratch)
			if _, err := sp.Update(w, pos); err != nil {
				t.Fatalf("seed %d rep %d: update: %v", seed, rep, err)
			}
			inBasis[basis[pos]] = false
			inBasis[newCol] = true
			basis[pos] = newCol
			updates++
			if updates%10 == 0 {
				check(rep)
			}
		}
		if updates < 100 {
			t.Fatalf("seed %d: only %d updates exercised", seed, updates)
		}
		check(-1)
	}
}
