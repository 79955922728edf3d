package lp

import "math/bits"

// SparseFactor is the simplex's basis factorization: a sparse LU with
// Forrest-Tomlin basis updates. The simplex uses it through FTRAN (solve
// B*x = b), BTRAN (solve B^T*y = c) and an incremental Update when one
// basis column is replaced.
//
// A pivot does not append a product-form eta over the whole basis inverse
// (whose etas carry the dense FTRAN image of the entering column and make
// every later solve slower). Instead the stored U factor is
// modified in place: the leaving column of U is replaced by the partial
// FTRAN image of the entering column, the replaced position is rotated to
// the end of U's logical column order, and the row spike this leaves behind
// is eliminated by one short row eta. Solves stay as sparse as the
// factorization itself, so the update budget (sparseMaxEtas) can run far
// longer than a product-form eta file before a refactorization pays off.
type SparseFactor struct {
	lu *sparseLU // L (static between refactorizations) and the permutations
	u  ftU       // editable U with the Forrest-Tomlin machinery

	m int
	// Solve scratch, all zero between calls: tmp holds the vector in
	// factor coordinates, list the positions a solve has touched, set and
	// out order them (positions in [0, m)).
	tmp  []float64
	list []int32
	set  bitset
	out  bitset

	maxEtas int
	pivTol  float64

	// Record of the most recent Ftran result in factor coordinates,
	// ascending. Update consumes it to read the entering column's image
	// sparsely instead of scanning all m entries of w; see gatherImage.
	lastPat []int32
	lastVal []float64
	lastOK  bool
}

// NewSparseFactor returns a sparse factorization backend. maxEtas bounds the
// number of Forrest-Tomlin updates absorbed before a refactorization is
// requested (0 means the shared default, sparseMaxEtas).
func NewSparseFactor(maxEtas int) *SparseFactor {
	if maxEtas <= 0 {
		maxEtas = sparseMaxEtas
	}
	return &SparseFactor{maxEtas: maxEtas, pivTol: factorPivTol}
}

// Factor (re)factorizes the basis given by the m column indices in basis,
// drawing columns from the problem matrix a. The new factors reuse the old
// ones' storage, so after an error no factorization is held until the next
// successful call.
func (s *SparseFactor) Factor(a *CSC, basis []int) error {
	lu, _, err := luFactor(a, basis, s.pivTol, false, s.lu)
	if err != nil {
		s.lu = nil
		return err
	}
	s.install(lu, len(basis))
	return nil
}

// FactorRepair is Factor for warm starts whose carried basis may be
// singular: one factorization pass that swaps a nonbasic slack into each
// dependent basis position as elimination reaches it, instead of failing.
// basis is patched in place and the swaps are reported so the caller can
// rebook the displaced columns at a bound.
func (s *SparseFactor) FactorRepair(a *CSC, basis []int) ([]basisSwap, error) {
	lu, swaps, err := luFactor(a, basis, s.pivTol, true, s.lu)
	if err != nil {
		s.lu = nil
		return swaps, err
	}
	s.install(lu, len(basis))
	return swaps, nil
}

func (s *SparseFactor) install(lu *sparseLU, m int) {
	s.lu = lu
	if m != s.m || s.tmp == nil {
		s.tmp = make([]float64, m)
		s.list = make([]int32, 0, m)
		s.set = newBitset(m)
		s.out = newBitset(m)
		s.lastPat = make([]int32, 0, m)
		s.lastVal = make([]float64, 0, m)
	}
	s.m = m
	s.u.init(lu)
	s.lastOK = false
}

// Ftran solves B*x = b in place (b has length m; every entry is read).
func (s *SparseFactor) Ftran(b []float64) {
	pinv := s.lu.pinv
	for i, v := range b {
		b[i] = 0
		if v != 0 {
			k := pinv[i]
			s.tmp[k] = v
			s.set.add(k)
		}
	}
	s.ftran(b).clear()
}

// FtranSparse solves B*x = a for the column a whose nonzeros sit at rows
// idx with values val, writing x into w, which must be all zero. It
// returns pat with the positions of x's nonzeros appended in ascending
// order. The work is proportional to the nonzeros the solve produces, not
// to m.
func (s *SparseFactor) FtranSparse(idx []int, val []float64, w []float64, pat []int32) []int32 {
	pinv := s.lu.pinv
	for e, i := range idx {
		if v := val[e]; v != 0 {
			k := pinv[i]
			s.tmp[k] = v
			s.set.add(k)
		}
	}
	return s.ftran(w).drain(pat)
}

// ftran runs FTRAN in factor coordinates on the input scattered into tmp
// and marked in set — L solve, Forrest-Tomlin row etas, ordered U solve —
// then moves the result into x (basis positions, all zero) and returns out
// holding x's nonzero positions. It leaves tmp all zero and records the
// result for the Update that may follow.
func (s *SparseFactor) ftran(x []float64) bitset {
	lu, tmp := s.lu, s.tmp
	list := lu.lsolve(tmp, s.set, s.list[:0])
	list = s.u.applyEtasFtran(tmp, list)
	list = s.u.usolve(tmp, list)
	for _, k := range list {
		if tmp[k] != 0 {
			s.set.add(int(k))
		} else {
			tmp[k] = 0
		}
	}
	s.list = list
	pat, val := s.lastPat[:0], s.lastVal[:0]
	for wi := range s.set {
		for s.set[wi] != 0 {
			k := s.set.popMin(wi)
			v := tmp[k]
			tmp[k] = 0
			pat = append(pat, int32(k))
			val = append(val, v)
			i := lu.q[k]
			x[i] = v
			s.out.add(i)
		}
	}
	s.lastPat, s.lastVal = pat, val
	s.lastOK = true
	return s.out
}

// Btran solves B^T*y = c in place (c has length m; every entry is read).
func (s *SparseFactor) Btran(c []float64) {
	qinv, list := s.lu.qinv, s.list[:0]
	for i, v := range c {
		c[i] = 0
		if v != 0 {
			k := qinv[i]
			s.tmp[k] = v
			list = append(list, int32(k))
		}
	}
	s.list = list
	s.btran(c).clear()
}

// BtranSparse solves B^T*y = c for the c whose nonzeros sit at positions
// idx (distinct) with values val, writing the solution into y, which must
// be all zero. It returns pat with the positions of y's nonzeros appended in
// ascending order. The work is proportional to the nonzeros the solve
// produces, not to m.
func (s *SparseFactor) BtranSparse(idx []int32, val []float64, y []float64, pat []int32) []int32 {
	qinv, list := s.lu.qinv, s.list[:0]
	for e, i := range idx {
		if v := val[e]; v != 0 {
			k := qinv[i]
			if s.tmp[k] == 0 {
				list = append(list, int32(k))
			}
			s.tmp[k] = v
		}
	}
	s.list = list
	return s.btran(y).drain(pat)
}

// btran runs BTRAN in factor coordinates on the input scattered into tmp
// at the positions in list — ordered U^T solve, transposed row etas, L^T
// solve — then moves the result into y (all zero) and returns out holding
// y's nonzero positions. It leaves tmp all zero.
func (s *SparseFactor) btran(y []float64) bitset {
	lu, tmp := s.lu, s.tmp
	list := s.u.utsolve(tmp, s.list)
	list = s.u.applyEtasBtran(tmp, list)
	list = lu.ltsolve(tmp, s.set, list)
	for _, k := range list {
		if v := tmp[k]; v != 0 {
			tmp[k] = 0
			i := lu.prow[k]
			y[i] = v
			s.out.add(int(i))
		}
	}
	s.list = list
	return s.out
}

// bitset is a set of small non-negative integers, one bit each. The
// triangular solves use it as an ordered work list: adding is one OR, and
// popping the lowest or highest member of a word is one bit scan, so a
// solve visits exactly its reach in index order for the cost of that reach
// plus one word read per 64 indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)>>6) }

func (b bitset) add(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) remove(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// popMin removes and returns the smallest member in word wi (nonzero).
func (b bitset) popMin(wi int) int {
	w := b[wi]
	b[wi] = w & (w - 1)
	return wi<<6 | bits.TrailingZeros64(w)
}

// popMax removes and returns the largest member in word wi (nonzero).
func (b bitset) popMax(wi int) int {
	w := b[wi]
	t := 63 - bits.LeadingZeros64(w)
	b[wi] = w &^ (1 << uint(t))
	return wi<<6 | t
}

// clear empties the set.
func (b bitset) clear() {
	for wi := range b {
		b[wi] = 0
	}
}

// drain empties the set, appending its members to pat in ascending order.
func (b bitset) drain(pat []int32) []int32 {
	for wi, w := range b {
		if w == 0 {
			continue
		}
		b[wi] = 0
		for ; w != 0; w &= w - 1 {
			pat = append(pat, int32(wi<<6|bits.TrailingZeros64(w)))
		}
	}
	return pat
}

// gatherImage returns the entering column's FTRAN image in factor
// coordinates as a sparse (pattern, values) pair. The fast path reuses the
// record of the most recent Ftran after verifying it against w (the
// simplex always calls Update with the image produced by its last Ftran);
// any mismatch falls back to a dense gather, so callers with a different
// call order lose speed, never correctness.
func (s *SparseFactor) gatherImage(w []float64, t int) ([]int32, []float64) {
	lu := s.lu
	if s.lastOK {
		ok, sawT := true, false
		for i, k := range s.lastPat {
			if w[lu.q[k]] != s.lastVal[i] {
				ok = false
				break
			}
			if int(k) == t {
				sawT = true
			}
		}
		if ok && (sawT || w[lu.q[t]] == 0) {
			return s.lastPat, s.lastVal
		}
	}
	pat, val := s.lastPat[:0], s.lastVal[:0]
	for k := 0; k < s.m; k++ {
		if v := w[lu.q[k]]; v != 0 {
			pat = append(pat, int32(k))
			val = append(val, v)
		}
	}
	s.lastPat, s.lastVal = pat, val
	return pat, val
}

// Update replaces basis position pos with a column whose FTRAN image
// (B^-1 * a_q) is w — the w most recently produced by Ftran, which lets the
// update reuse that solve's sparsity pattern instead of rescanning all of
// w — by a Forrest-Tomlin update. It returns refactor=true when the update
// budget or U's fill growth makes a fresh Factor call worthwhile. On an
// ErrNumerical return the stored factorization is invalid (the update is
// applied halfway) and the caller must Factor before the next solve — the
// simplex refactorizes on every Update error, so this costs nothing extra.
func (s *SparseFactor) Update(w []float64, pos int) (bool, error) {
	if abs(w[pos]) < s.pivTol {
		return true, ErrNumerical
	}
	t := s.lu.qinv[pos]
	pat, val := s.gatherImage(w, t)
	s.lastOK = false // consumed
	if err := s.u.update(t, pat, val, w[pos], s.pivTol); err != nil {
		return true, err
	}
	return s.u.updates >= s.maxEtas || s.u.nnz > sparseFillLimit*s.u.nnz0, nil
}

// ftColumn holds one U column's off-diagonal entries; rows are factor
// coordinates. The diagonal lives in ftU.diag. gen counts the times the
// column has been replaced since the last refactorization: row-list
// entries stamped with an older gen are stale (see ftRowEntry).
type ftColumn struct {
	ri  []int32
	rv  []float64
	gen int32
}

// ftRowEntry is one row list element: column col holds value val in this
// row — valid only while gen matches cols[col].gen. Entry values are
// immutable between installs (updates only ever delete entries or replace
// whole columns, never rewrite one in place), so a matching gen means both
// the membership and the value are current, and consumers need no search
// through the column's storage.
type ftRowEntry struct {
	col, gen int32
	val      float64
}

// ftEta is one Forrest-Tomlin row eta R = I - e_t z^T: the multipliers z
// that eliminated the row spike left behind when column t rotated to the
// end of the order.
type ftEta struct {
	t   int
	idx []int32
	val []float64
}

// ftU is an upper-triangular factor that supports Forrest-Tomlin column
// replacement. Triangularity is logical, through a column order: the
// column at order position p has off-diagonal entries only in rows whose
// columns sit at earlier positions. A fresh factorization starts with the
// identity order; each update rotates the replaced column to the end.
type ftU struct {
	m    int
	cols []ftColumn
	diag []float64

	// Logical column order as order keys: okey[j] is column j's key, and
	// key comparison is order comparison. A fresh factorization starts
	// with keys 0..m-1; an update rotates the replaced column to the end
	// by stamping it with a fresh maximal key (nextKey), so "column a
	// precedes column b" is one integer compare. keyCol maps each key
	// issued since the factorization back to its column (len(keyCol) ==
	// nextKey); a key is live while okey[keyCol[key]] == key. keys is
	// the ordered work set of the triangular solves and the spike
	// elimination: a bitset over keys, empty between calls.
	okey    []int32
	keyCol  []int32
	nextKey int32
	keys    bitset

	// rows[r] lists the columns that may hold an off-diagonal entry in row
	// r: a superset maintained by appending on install and never compacted
	// mid-cycle. Stale entries (their column was since replaced) are
	// recognized in O(1) by their gen stamp; at most one entry per column
	// is ever valid. Refactorization rebuilds the lists exactly.
	rows [][]ftRowEntry

	etas    []ftEta
	updates int
	nnz     int // current off-diagonal entry count
	nnz0    int // off-diagonal entry count at the last refactorization

	// scratch (all length m, stamped)
	acc   []float64 // utilde accumulator
	aflag []int32
	amark int32
	upat  []int32
	zacc  []float64 // spike / multiplier accumulator
	zflag []int32
	zmark int32
	zpat  []int32
	zval  []float64
}

// utsolveSparseRatio gates BTRAN's U^T solve: when fewer than
// m/utsolveSparseRatio input entries are nonzero, the solve runs push-form
// over the reachable columns only; denser inputs run pull-form along the
// order from the first nonzero. The two forms sum each entry's terms in
// different orders, so they round differently: the gate is part of the
// solver's arithmetic, not only of its speed, and moving it changes
// pivots.
const utsolveSparseRatio = 16

// init converts the packed U of a fresh factorization (column k stores its
// rows ascending with the diagonal last) into editable per-column form and
// resets all update state.
func (u *ftU) init(lu *sparseLU) {
	m := lu.m
	// All the fixed-size arrays are allocated together, so len(acc) is the
	// allocated capacity for every one of them.
	if m > len(u.acc) {
		u.cols = make([]ftColumn, m)
		u.diag = make([]float64, m)
		u.okey = make([]int32, m)
		u.keyCol = make([]int32, m, m+sparseMaxEtas)
		u.rows = make([][]ftRowEntry, m)
		u.acc = make([]float64, m)
		u.aflag = make([]int32, m)
		u.upat = make([]int32, 0, m)
		u.zacc = make([]float64, m)
		u.zflag = make([]int32, m)
		u.zpat = make([]int32, 0, m)
		u.zval = make([]float64, 0, m)
	} else {
		u.cols = u.cols[:m]
		u.diag = u.diag[:m]
		u.okey = u.okey[:m]
		u.keyCol = u.keyCol[:m]
		u.rows = u.rows[:m]
	}
	if n := (m + sparseMaxEtas + 63) >> 6; len(u.keys) < n {
		u.keys = make(bitset, n)
	} else {
		u.keys.clear()
	}
	u.m = m
	u.nnz = 0
	for k := 0; k < m; k++ {
		s, e := lu.up[k], lu.up[k+1]
		u.diag[k] = lu.ux[e-1]
		n := e - 1 - s
		c := &u.cols[k]
		// ri and rv can end up with different capacities after update-time
		// appends (different size classes), so check both.
		if cap(c.ri) < n || cap(c.rv) < n {
			c.ri = make([]int32, n)
			c.rv = make([]float64, n)
		} else {
			c.ri = c.ri[:n]
			c.rv = c.rv[:n]
		}
		for i := 0; i < n; i++ {
			c.ri[i] = int32(lu.ui[s+i])
			c.rv[i] = lu.ux[s+i]
		}
		c.gen = 0
		u.nnz += n
		u.okey[k] = int32(k)
		u.keyCol[k] = int32(k)
		u.rows[k] = u.rows[k][:0]
	}
	u.nextKey = int32(m)
	u.nnz0 = u.nnz
	for k := 0; k < m; k++ {
		c := &u.cols[k]
		for e, r := range c.ri {
			u.rows[r] = append(u.rows[r], ftRowEntry{col: int32(k), val: c.rv[e]})
		}
	}
	u.etas = u.etas[:0]
	u.updates = 0
	for i := 0; i < m; i++ {
		u.aflag[i], u.zflag[i] = 0, 0
	}
	u.amark, u.zmark = 0, 0
}

// usolve solves U*x = x in place, honoring the logical column order. The
// solve is push-form — only nonzero entries propagate — and visits exactly
// the columns x's nonzeros reach, in descending key order through the key
// set: every entry receives its contributions in the order a walk of the
// whole order list from the tail gives them. list holds the positions
// where x may be nonzero; it is returned refilled with the visited
// columns.
func (u *ftU) usolve(x []float64, list []int32) []int32 {
	keys := u.keys
	for _, j := range list {
		if x[j] != 0 {
			keys.add(int(u.okey[j]))
		} else {
			x[j] = 0
		}
	}
	list = list[:0]
	for wi := int(u.nextKey-1) >> 6; wi >= 0; wi-- {
		for keys[wi] != 0 {
			j := u.keyCol[keys.popMax(wi)]
			list = append(list, j)
			xj := x[j] / u.diag[j]
			x[j] = xj
			if xj == 0 {
				continue
			}
			c := &u.cols[j]
			for e, r := range c.ri {
				keys.add(int(u.okey[r]))
				x[r] -= c.rv[e] * xj
			}
		}
	}
	return list
}

// utsolve solves U^T*x = x in place, honoring the logical column order.
// list holds the positions where x may be nonzero; it is returned refilled
// with the positions the solve wrote. Sparse inputs (the unit-vector
// BTRANs of the devex machinery, the band deltas of the phase-1 cost
// correction) take the push-form utsolveSparse; dense inputs run
// pull-form along the order from the first nonzero, before which every
// solution entry is exactly 0 by triangularity.
func (u *ftU) utsolve(x []float64, list []int32) []int32 {
	nnz, start := 0, u.nextKey
	for _, j := range list {
		if x[j] != 0 {
			nnz++
			start = min(start, u.okey[j])
		}
	}
	if nnz*utsolveSparseRatio <= u.m {
		return u.utsolveSparse(x, list)
	}
	list = list[:0]
	for key := start; key < u.nextKey; key++ {
		j := u.keyCol[key]
		if u.okey[j] != key {
			continue // the column was rotated to a later key
		}
		s := x[j]
		c := &u.cols[j]
		for e, r := range c.ri {
			s -= c.rv[e] * x[r]
		}
		x[j] = s / u.diag[j]
		list = append(list, j)
	}
	return list
}

// utsolveSparse is the hyper-sparse U^T solve: mark the nonzero input
// entries in the key set, pop them in logical order, and push each
// finalized entry forward into the columns that hold its row (the
// gen-validated row lists). Pops are monotone in the keys and every
// contribution flows strictly forward, so each entry is complete when it
// pops; columns never reached stay exactly 0 without being visited.
func (u *ftU) utsolveSparse(x []float64, list []int32) []int32 {
	keys := u.keys
	for _, j := range list {
		if x[j] != 0 {
			keys.add(int(u.okey[j]))
		} else {
			x[j] = 0
		}
	}
	list = list[:0]
	for wi, nw := 0, int(u.nextKey+63)>>6; wi < nw; wi++ {
		for keys[wi] != 0 {
			j := u.keyCol[keys.popMin(wi)]
			list = append(list, j)
			xj := x[j] / u.diag[j]
			x[j] = xj
			if xj == 0 {
				continue
			}
			for _, en := range u.rows[j] {
				c := en.col
				if en.gen != u.cols[c].gen {
					continue
				}
				keys.add(int(u.okey[c]))
				x[c] -= en.val * xj
			}
		}
	}
	return list
}

// applyEtasFtran applies the row etas in recording order: x[t] -= z . x.
// A target that turns nonzero joins list, which is returned.
func (u *ftU) applyEtasFtran(x []float64, list []int32) []int32 {
	for k := range u.etas {
		e := &u.etas[k]
		s := 0.0
		for i, r := range e.idx {
			s += e.val[i] * x[r]
		}
		if s == 0 {
			continue // x[t] -= +0 would change no bit
		}
		if x[e.t] == 0 {
			list = append(list, int32(e.t))
		}
		x[e.t] -= s
	}
	return list
}

// applyEtasBtran applies the transposed row etas in reverse order:
// x[r] -= z_r * x[t] for every multiplier row r. list holds the positions
// where x may be nonzero; rows that were zero join it, and it is returned.
func (u *ftU) applyEtasBtran(x []float64, list []int32) []int32 {
	for k := len(u.etas) - 1; k >= 0; k-- {
		e := &u.etas[k]
		xt := x[e.t]
		if xt == 0 {
			continue
		}
		for i, r := range e.idx {
			if x[r] == 0 {
				list = append(list, r)
			}
			x[r] -= e.val[i] * xt
		}
	}
	return list
}

// update absorbs one basis change: factor column t is replaced by the
// entering column whose partial FTRAN image is U * xhat (xhat given
// sparsely as pat/val). The steps are the classic Forrest-Tomlin sequence:
// compute utilde = U*xhat, extract and delete the row spike (row t's
// entries in columns ordered after t), eliminate it with multipliers from
// a sparse transposed solve, install utilde (with the eliminated diagonal)
// as the new column t, record the row eta, and rotate t to the end of the
// order.
//
// wpos is the entering column's FTRAN image at the replaced basis
// position. It gives an independent value for the new diagonal: the
// determinant ratio of a column replacement is wpos (Sherman-Morrison),
// and on the factor side every update step except the diagonal swap has
// determinant one, so the new diagonal must equal wpos times the old one,
// exactly. Disagreement beyond factorUpdateAccTol means cancellation made
// the elimination inaccurate; the update fails with ErrNumerical and the
// caller refactorizes instead of accumulating the error.
func (u *ftU) update(t int, pat []int32, val []float64, wpos, pivTol float64) error {
	dAlt := wpos * u.diag[t]

	// utilde = U * xhat, scattered into acc over pattern upat.
	u.amark++
	upat := u.upat[:0]
	scatter := func(r int32, v float64) {
		if u.aflag[r] != u.amark {
			u.aflag[r] = u.amark
			u.acc[r] = v
			upat = append(upat, r)
		} else {
			u.acc[r] += v
		}
	}
	for i, k := range pat {
		xk := val[i]
		scatter(k, u.diag[k]*xk)
		c := &u.cols[k]
		for e, r := range c.ri {
			scatter(r, c.rv[e]*xk)
		}
	}
	u.upat = upat

	// Row spike: row t's entries in later-ordered columns, found through
	// the rows list (verified, deduplicated) and deleted from storage.
	// Each spike column joins the key set, so the elimination below visits
	// columns in logical order while touching only the columns actually
	// involved — never the trailing positions wholesale.
	t32 := int32(t)
	keys := u.keys
	u.zmark++
	for _, en := range u.rows[t] {
		c := int(en.col)
		if c == t || en.gen != u.cols[c].gen || u.zflag[c] == u.zmark {
			continue
		}
		col := &u.cols[c]
		for e, r := range col.ri {
			if r != t32 {
				continue
			}
			last := len(col.ri) - 1
			col.ri[e], col.rv[e] = col.ri[last], col.rv[last]
			col.ri, col.rv = col.ri[:last], col.rv[:last]
			u.nnz--
			u.zacc[c] = en.val
			u.zflag[c] = u.zmark
			keys.add(int(u.okey[c]))
			break
		}
	}
	u.rows[t] = u.rows[t][:0]

	// Eliminate the spike: solve U22^T z = spike in logical column order,
	// pushing each multiplier into the later columns that hold its row
	// (fill joins the key set). Pops are monotone in the order keys and
	// every contribution flows strictly forward, so each column's
	// accumulator is complete when it pops — the same order the positional
	// scan used to visit.
	zpat, zval := u.zpat[:0], u.zval[:0]
	for wi, nw := int(u.okey[t])>>6, int(u.nextKey+63)>>6; wi < nw; wi++ {
		for keys[wi] != 0 {
			j := int(u.keyCol[keys.popMin(wi)])
			sum := u.zacc[j]
			if abs(sum) <= factorDropTol {
				continue
			}
			zj := sum / u.diag[j]
			zpat = append(zpat, int32(j))
			zval = append(zval, zj)
			kj := u.okey[j]
			for _, en := range u.rows[j] {
				c := int(en.col)
				if u.okey[c] <= kj || en.gen != u.cols[c].gen {
					continue
				}
				if u.zflag[c] != u.zmark {
					u.zflag[c] = u.zmark
					u.zacc[c] = 0
					keys.add(int(u.okey[c]))
				}
				u.zacc[c] -= en.val * zj
			}
		}
	}
	u.zpat, u.zval = zpat, zval

	// New diagonal of column t after the row elimination.
	d := 0.0
	if u.aflag[t] == u.amark {
		d = u.acc[t]
	}
	for i, j := range zpat {
		if u.aflag[j] == u.amark {
			d -= zval[i] * u.acc[j]
		}
	}
	if abs(d) < pivTol {
		return ErrNumerical // factorization now invalid; caller refactorizes
	}
	scale := abs(d)
	if a := abs(dAlt); a > scale {
		scale = a
	}
	if abs(d-dAlt) > factorUpdateAccTol*scale {
		return ErrNumerical // elimination lost accuracy; caller refactorizes
	}

	// Install utilde as the new column t. The fresh gen stamp invalidates
	// every row-list entry of the replaced column at once.
	col := &u.cols[t]
	u.nnz -= len(col.ri)
	col.gen++
	ri, rv := col.ri[:0], col.rv[:0]
	for _, r := range upat {
		if r == t32 {
			continue
		}
		v := u.acc[r]
		if abs(v) <= factorDropTol {
			continue
		}
		ri = append(ri, r)
		rv = append(rv, v)
		u.rows[r] = append(u.rows[r], ftRowEntry{col: t32, gen: col.gen, val: v})
	}
	col.ri, col.rv = ri, rv
	u.nnz += len(ri)
	u.diag[t] = d

	if len(zpat) > 0 {
		u.etas = append(u.etas, ftEta{
			t:   t,
			idx: append([]int32(nil), zpat...),
			val: append([]float64(nil), zval...),
		})
	}

	// Rotate column t to the end of the order: a fresh maximal key.
	u.okey[t] = u.nextKey
	u.keyCol = append(u.keyCol, t32)
	u.nextKey++
	if int(u.nextKey) > len(u.keys)<<6 {
		u.keys = append(u.keys, 0)
	}

	u.updates++
	return nil
}
