package lp

import (
	"math"
	"sort"
	"testing"
)

// The oracles below are the factorization's solves as they stood before
// the solves carried their nonzero patterns: dense FTRAN/BTRAN wrappers,
// the forward L solve over every column, the backward L^T sweep from the
// last nonzero, and the U solves with their binary heaps and the dense
// order-list walk. Only the order list itself is rebuilt here, from the
// order keys, since the factor no longer keeps it as a linked list.
// FuzzFactorSolves holds the new solves to these, bit for bit.

// oracleOrder returns U's columns in logical order (ascending keys).
func oracleOrder(u *ftU) []int32 {
	order := make([]int32, u.m)
	for j := range order {
		order[j] = int32(j)
	}
	sort.Slice(order, func(a, b int) bool { return u.okey[order[a]] < u.okey[order[b]] })
	return order
}

func oracleFtran(s *SparseFactor, b []float64) {
	lu, m := s.lu, s.m
	tmp := make([]float64, m)
	for i := 0; i < m; i++ {
		tmp[lu.pinv[i]] = b[i]
	}
	oracleLsolve(lu, tmp)
	oracleEtasFtran(&s.u, tmp)
	oracleUsolve(&s.u, tmp)
	for k := 0; k < m; k++ {
		b[lu.q[k]] = tmp[k]
	}
}

func oracleBtran(s *SparseFactor, c []float64) {
	lu, m := s.lu, s.m
	tmp := make([]float64, m)
	for k := 0; k < m; k++ {
		tmp[k] = c[lu.q[k]]
	}
	oracleUtsolve(&s.u, tmp)
	oracleEtasBtran(&s.u, tmp)
	oracleLtsolve(lu, tmp)
	for i := 0; i < m; i++ {
		c[i] = tmp[lu.pinv[i]]
	}
}

func oracleLsolve(f *sparseLU, x []float64) {
	for j := 0; j < f.m; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := f.lp[j] + 1; p < f.lp[j+1]; p++ {
			x[f.li[p]] -= f.lx[p] * xj
		}
	}
}

func oracleLtsolve(f *sparseLU, x []float64) {
	j := f.m - 1
	for j >= 0 && x[j] == 0 {
		j--
	}
	for ; j >= 0; j-- {
		s := x[j]
		for p := f.lp[j] + 1; p < f.lp[j+1]; p++ {
			s -= f.lx[p] * x[f.li[p]]
		}
		x[j] = s
	}
}

func oracleEtasFtran(u *ftU, x []float64) {
	for k := range u.etas {
		e := &u.etas[k]
		s := 0.0
		for i, r := range e.idx {
			s += e.val[i] * x[r]
		}
		x[e.t] -= s
	}
}

func oracleEtasBtran(u *ftU, x []float64) {
	for k := len(u.etas) - 1; k >= 0; k-- {
		e := &u.etas[k]
		xt := x[e.t]
		if xt == 0 {
			continue
		}
		for i, r := range e.idx {
			x[r] -= e.val[i] * xt
		}
	}
}

func oracleUsolve(u *ftU, x []float64) {
	nnz := 0
	for j := 0; j < u.m; j++ {
		if x[j] != 0 {
			nnz++
		}
	}
	if nnz*utsolveSparseRatio > u.m {
		order := oracleOrder(u)
		for p := len(order) - 1; p >= 0; p-- {
			j := order[p]
			xj := x[j] / u.diag[j]
			x[j] = xj
			if xj == 0 {
				continue
			}
			c := &u.cols[j]
			for e, r := range c.ri {
				x[r] -= c.rv[e] * xj
			}
		}
		return
	}
	sflag := make([]bool, u.m)
	var hp []int32
	push := func(c int32) {
		hp = append(hp, c)
		for i := len(hp) - 1; i > 0; {
			p := (i - 1) / 2
			if u.okey[hp[p]] >= u.okey[hp[i]] {
				break
			}
			hp[p], hp[i] = hp[i], hp[p]
			i = p
		}
	}
	for j := 0; j < u.m; j++ {
		if x[j] != 0 {
			sflag[j] = true
			push(int32(j))
		}
	}
	for len(hp) > 0 {
		j := int(hp[0])
		last := len(hp) - 1
		hp[0] = hp[last]
		hp = hp[:last]
		for i := 0; ; {
			l, r, best := 2*i+1, 2*i+2, i
			if l < len(hp) && u.okey[hp[l]] > u.okey[hp[best]] {
				best = l
			}
			if r < len(hp) && u.okey[hp[r]] > u.okey[hp[best]] {
				best = r
			}
			if best == i {
				break
			}
			hp[best], hp[i] = hp[i], hp[best]
			i = best
		}
		xj := x[j] / u.diag[j]
		x[j] = xj
		if xj == 0 {
			continue
		}
		c := &u.cols[j]
		for e, r := range c.ri {
			if !sflag[r] {
				sflag[r] = true
				push(r)
			}
			x[r] -= c.rv[e] * xj
		}
	}
}

func oracleUtsolve(u *ftU, x []float64) {
	nnz := 0
	for j := 0; j < u.m; j++ {
		if x[j] != 0 {
			nnz++
		}
	}
	if nnz*utsolveSparseRatio <= u.m {
		oracleUtsolveSparse(u, x)
		return
	}
	start := int32(-1)
	bestKey := int32(0)
	for j := 0; j < u.m; j++ {
		if x[j] != 0 && (start < 0 || u.okey[j] < bestKey) {
			start, bestKey = int32(j), u.okey[j]
		}
	}
	for _, j := range oracleOrder(u) {
		if u.okey[j] < bestKey {
			continue
		}
		s := x[j]
		c := &u.cols[j]
		for e, r := range c.ri {
			s -= c.rv[e] * x[r]
		}
		x[j] = s / u.diag[j]
	}
}

func oracleUtsolveSparse(u *ftU, x []float64) {
	sflag := make([]bool, u.m)
	var hp []int32
	push := func(c int32) {
		hp = append(hp, c)
		for i := len(hp) - 1; i > 0; {
			p := (i - 1) / 2
			if u.okey[hp[p]] <= u.okey[hp[i]] {
				break
			}
			hp[p], hp[i] = hp[i], hp[p]
			i = p
		}
	}
	for j := 0; j < u.m; j++ {
		if x[j] != 0 {
			sflag[j] = true
			push(int32(j))
		}
	}
	for len(hp) > 0 {
		j := int(hp[0])
		last := len(hp) - 1
		hp[0] = hp[last]
		hp = hp[:last]
		for i := 0; ; {
			l, r, best := 2*i+1, 2*i+2, i
			if l < len(hp) && u.okey[hp[l]] < u.okey[hp[best]] {
				best = l
			}
			if r < len(hp) && u.okey[hp[r]] < u.okey[hp[best]] {
				best = r
			}
			if best == i {
				break
			}
			hp[best], hp[i] = hp[i], hp[best]
			i = best
		}
		xj := x[j] / u.diag[j]
		x[j] = xj
		if xj == 0 {
			continue
		}
		for _, en := range u.rows[j] {
			c := int(en.col)
			if en.gen != u.cols[c].gen {
				continue
			}
			if !sflag[c] {
				sflag[c] = true
				push(en.col)
			}
			x[c] -= en.val * xj
		}
	}
}

// sameBits reports the first position where got and want differ, or -1.
// Values compare by their bits, except that +0 and -0 are one value: the
// dense walks divide untouched zeros by negative diagonals and leave -0,
// which every consumer reads as 0, where the pattern-driven solves never
// touch the entry.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(got[i] == 0 && want[i] == 0) {
			return i
		}
	}
	return -1
}

// checkPattern verifies that pat lists exactly x's nonzero positions, in
// ascending order.
func checkPattern(t *testing.T, what string, x []float64, pat []int32) {
	t.Helper()
	k := 0
	for i, v := range x {
		if v == 0 {
			continue
		}
		if k >= len(pat) || pat[k] != int32(i) {
			t.Fatalf("%s: pattern %v does not list nonzero position %d", what, pat, i)
		}
		k++
	}
	if k != len(pat) {
		t.Fatalf("%s: pattern %v lists %d positions, vector has %d nonzeros", what, pat, len(pat), k)
	}
}

// FuzzFactorSolves drives a factorization through a random chain of
// Forrest-Tomlin updates that crosses refactorizations (a small update
// budget) and compares every solve with the oracles by bits: dense and
// sparse right-hand sides through Ftran and Btran, entering columns
// through FtranSparse and unit and scattered vectors through BtranSparse,
// whose patterns must list exactly the result's nonzeros.
func FuzzFactorSolves(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(2), uint8(20), uint8(1))
	f.Add(uint64(7), uint8(60), uint8(5), uint8(40), uint8(2))
	f.Add(uint64(42), uint8(99), uint8(3), uint8(60), uint8(3))
	f.Add(uint64(3), uint8(3), uint8(0), uint8(10), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, size, etas, steps, dens uint8) {
		rng := newTestRand(seed)
		m := 2 + int(size)%100
		extra := int(dens) % 4
		// Columns j < m form the starting basis; j >= m are the spares
		// an update swaps in. Each has a strong diagonal plus a few
		// off-diagonal entries, so bases stay far from singular while
		// L, U and the update spikes have real structure.
		tb := NewTripletBuilder(m, 2*m)
		for j := 0; j < 2*m; j++ {
			tb.Add(j%m, j, 2+rng.float()*3)
			for e := 0; e < extra+rng.intn(2); e++ {
				if i := rng.intn(m); i != j%m {
					tb.Add(i, j, rng.float()*1.5-0.75)
				}
			}
		}
		a := tb.ToCSC()
		basis := make([]int, m)
		inBasis := make([]bool, 2*m)
		for i := range basis {
			basis[i] = i
			inBasis[i] = true
		}
		fac := NewSparseFactor(1 + int(etas)%6)
		if err := fac.Factor(a, basis); err != nil {
			t.Skip(err)
		}
		vec := func(nnz int) []float64 {
			v := make([]float64, m)
			for k := 0; k < nnz; k++ {
				v[rng.intn(m)] = rng.float()*4 - 2
			}
			return v
		}
		check := func(what string, got, want []float64) {
			t.Helper()
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s: entry %d is %v (bits %#x), oracle %v (bits %#x)",
					what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		for step := 0; step < 1+int(steps)%64; step++ {
			// Dense and sparse right-hand sides through the dense API.
			for _, nnz := range []int{1, 1 + rng.intn(3), m / 3, 2 * m} {
				b := vec(nnz)
				want := append([]float64(nil), b...)
				oracleFtran(fac, want)
				fac.Ftran(b)
				check("Ftran", b, want)
				c := vec(nnz)
				want = append(want[:0], c...)
				oracleBtran(fac, want)
				fac.Btran(c)
				check("Btran", c, want)
			}
			// A scattered BTRAN: one or a few positions.
			idx := []int32{int32(rng.intn(m))}
			val := []float64{1}
			if rng.intn(2) == 0 {
				for k := rng.intn(4); k > 0; k-- {
					i := int32(rng.intn(m))
					dup := false
					for _, p := range idx {
						dup = dup || p == i
					}
					if !dup {
						idx = append(idx, i)
						val = append(val, rng.float()*2-1)
					}
				}
			}
			want := make([]float64, m)
			for k, i := range idx {
				want[i] = val[k]
			}
			oracleBtran(fac, want)
			y := make([]float64, m)
			pat := fac.BtranSparse(idx, val, y, nil)
			check("BtranSparse", y, want)
			checkPattern(t, "BtranSparse", y, pat)

			// An entering column: FTRAN it, then swap it into the basis.
			pos, q := rng.intn(m), m+rng.intn(m)
			if inBasis[q] {
				q = basis[pos]
			}
			ri, rv := a.Col(q)
			want = make([]float64, m)
			for k, r := range ri {
				want[r] = rv[k]
			}
			oracleFtran(fac, want)
			w := make([]float64, m)
			pat = fac.FtranSparse(ri, rv, w, pat[:0])
			check("FtranSparse", w, want)
			checkPattern(t, "FtranSparse", w, pat)
			if inBasis[q] || math.Abs(w[pos]) < 1e-2 {
				continue
			}
			refactor, err := fac.Update(w, pos)
			inBasis[basis[pos]], inBasis[q] = false, true
			basis[pos] = q
			if err != nil || refactor {
				if err := fac.Factor(a, basis); err != nil {
					t.Skip(err)
				}
			}
		}
	})
}
