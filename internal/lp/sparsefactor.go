package lp

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

	m    int
	tmp  []float64 // factor-coordinate scratch for Ftran
	btmp []float64 // separate scratch for Btran, keeps the Ftran record intact

	maxEtas int
	pivTol  float64

	// Record of the most recent Ftran result in factor coordinates.
	// Update consumes it to read the entering column's image sparsely
	// instead of scanning all m entries of w; see Ftran and gatherImage.
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
// drawing columns from the problem matrix a.
func (s *SparseFactor) Factor(a *CSC, basis []int) error {
	lu, _, err := luFactor(a, basis, s.pivTol, false)
	if err != nil {
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
	lu, swaps, err := luFactor(a, basis, s.pivTol, true)
	if err != nil {
		return swaps, err
	}
	s.install(lu, len(basis))
	return swaps, nil
}

func (s *SparseFactor) install(lu *sparseLU, m int) {
	s.lu = lu
	s.m = m
	if cap(s.tmp) < s.m {
		s.tmp = make([]float64, s.m)
		s.btmp = make([]float64, s.m)
	}
	s.u.init(lu)
	s.lastOK = false
}

// Ftran solves B*x = b in place (b has length m). The solve runs in
// factor coordinates — permute, L solve, Forrest-Tomlin row etas, ordered
// U solve, permute back — and records the result's nonzero pattern (in
// factor coordinates) for the Update that may follow.
func (s *SparseFactor) Ftran(b []float64) {
	lu, m := s.lu, s.m
	tmp := s.tmp[:m]
	for i := 0; i < m; i++ {
		tmp[lu.pinv[i]] = b[i]
	}
	lu.lsolve(tmp)
	s.u.applyEtasFtran(tmp)
	s.u.usolve(tmp)
	pat, val := s.lastPat[:0], s.lastVal[:0]
	for k := 0; k < m; k++ {
		v := tmp[k]
		b[lu.q[k]] = v
		if v != 0 {
			pat = append(pat, int32(k))
			val = append(val, v)
		}
	}
	s.lastPat, s.lastVal = pat, val
	s.lastOK = true
}

// Btran solves B^T*y = c in place (c has length m).
func (s *SparseFactor) Btran(c []float64) {
	lu, m := s.lu, s.m
	tmp := s.btmp[:m]
	for k := 0; k < m; k++ {
		tmp[k] = c[lu.q[k]]
	}
	s.u.utsolve(tmp)
	s.u.applyEtasBtran(tmp)
	lu.ltsolve(tmp)
	for i := 0; i < m; i++ {
		c[i] = tmp[lu.pinv[i]]
	}
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

	// Logical column order as a doubly-linked list (onext/oprev, -1
	// terminated) plus a monotonically increasing key per column (okey):
	// key comparison is order comparison. A fresh factorization starts
	// with the identity order and keys 0..m-1; an update splices the
	// replaced column to the tail in O(1) and stamps it with a fresh
	// maximal key, instead of memmoving a positional array and rewriting
	// every trailing position's index.
	onext   []int32
	oprev   []int32
	okey    []int32
	ohead   int32
	otail   int32
	nextKey int32

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
	hcol  []int32 // heap of pending columns, keyed by okey
	sflag []int32 // heap-membership stamp for the hyper-sparse solves
	smark int32
}

// utsolveSparseRatio gates the hyper-sparse BTRAN path: when fewer than
// m/utsolveSparseRatio input entries are nonzero, the solve runs over the
// reachable columns only (heap-ordered) instead of walking the order list.
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
		u.onext = make([]int32, m)
		u.oprev = make([]int32, m)
		u.okey = make([]int32, m)
		u.rows = make([][]ftRowEntry, m)
		u.acc = make([]float64, m)
		u.aflag = make([]int32, m)
		u.upat = make([]int32, 0, m)
		u.zacc = make([]float64, m)
		u.zflag = make([]int32, m)
		u.zpat = make([]int32, 0, m)
		u.zval = make([]float64, 0, m)
		u.hcol = make([]int32, 0, m)
		u.sflag = make([]int32, m)
	} else {
		u.cols = u.cols[:m]
		u.diag = u.diag[:m]
		u.onext = u.onext[:m]
		u.oprev = u.oprev[:m]
		u.okey = u.okey[:m]
		u.rows = u.rows[:m]
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
		u.onext[k] = int32(k + 1)
		u.oprev[k] = int32(k - 1)
		u.okey[k] = int32(k)
		u.rows[k] = u.rows[k][:0]
	}
	u.ohead, u.otail, u.nextKey = 0, int32(m-1), int32(m)
	if m > 0 {
		u.onext[m-1] = -1
	} else {
		u.ohead = -1
	}
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
		u.aflag[i], u.zflag[i], u.sflag[i] = 0, 0, 0
	}
	u.amark, u.zmark, u.smark = 0, 0, 0
}

// usolve solves U*x = x in place, honoring the logical column order. The
// solve is push-form — only nonzero entries propagate — and sparse inputs
// visit exactly the nonzero entries in descending order through a
// max-heap on the order keys instead of walking the whole order list.
// Contributions to any entry arrive in the same descending order the list
// walk produces, so both paths are bit-identical and the density gate
// only ever changes speed.
func (u *ftU) usolve(x []float64) {
	nnz := 0
	for j := 0; j < u.m; j++ {
		if x[j] != 0 {
			nnz++
		}
	}
	if nnz*utsolveSparseRatio > u.m {
		for j := u.otail; j >= 0; j = u.oprev[j] {
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
	u.smark++
	hp := u.hcol[:0]
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
			u.sflag[j] = u.smark
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
			if u.sflag[r] != u.smark {
				u.sflag[r] = u.smark
				push(r)
			}
			x[r] -= c.rv[e] * xj
		}
	}
	u.hcol = hp[:0]
}

// utsolve solves U^T*x = x in place, honoring the logical column order.
// Sparse inputs (the unit-vector BTRANs of the devex machinery, the band
// deltas of the phase-1 cost correction) take a hyper-sparse push-form
// path over the reachable columns only; dense inputs walk the order list
// from the first nonzero, before which every solution entry is exactly 0
// by triangularity.
func (u *ftU) utsolve(x []float64) {
	nnz := 0
	for j := 0; j < u.m; j++ {
		if x[j] != 0 {
			nnz++
		}
	}
	if nnz*utsolveSparseRatio <= u.m {
		u.utsolveSparse(x)
		return
	}
	start := int32(-1)
	bestKey := int32(0)
	for j := 0; j < u.m; j++ {
		if x[j] != 0 && (start < 0 || u.okey[j] < bestKey) {
			start, bestKey = int32(j), u.okey[j]
		}
	}
	for j := start; j >= 0; j = u.onext[j] {
		s := x[j]
		c := &u.cols[j]
		for e, r := range c.ri {
			s -= c.rv[e] * x[r]
		}
		x[j] = s / u.diag[j]
	}
}

// utsolveSparse is the hyper-sparse U^T solve: seed a min-heap (on the
// order keys) with the nonzero input entries, pop in logical order, and
// push each finalized entry forward into the columns that hold its row
// (the gen-validated row lists). Pops are monotone in the keys and every
// contribution flows strictly forward, so each entry is complete when it
// pops; columns never reached stay exactly 0 without being visited.
func (u *ftU) utsolveSparse(x []float64) {
	u.smark++
	hp := u.hcol[:0]
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
			u.sflag[j] = u.smark
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
			if u.sflag[c] != u.smark {
				u.sflag[c] = u.smark
				push(en.col)
			}
			x[c] -= en.val * xj
		}
	}
	u.hcol = hp[:0]
}

// applyEtasFtran applies the row etas in recording order: x[t] -= z . x.
func (u *ftU) applyEtasFtran(x []float64) {
	for k := range u.etas {
		e := &u.etas[k]
		s := 0.0
		for i, r := range e.idx {
			s += e.val[i] * x[r]
		}
		x[e.t] -= s
	}
}

// applyEtasBtran applies the transposed row etas in reverse order:
// x[r] -= z_r * x[t] for every multiplier row r.
func (u *ftU) applyEtasBtran(x []float64) {
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
	// Each spike column joins a min-heap on the order keys, so the
	// elimination below visits columns in logical order while touching
	// only the columns actually involved — never the trailing positions
	// wholesale.
	t32 := int32(t)
	hp := u.hcol[:0]
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
			push(en.col)
			break
		}
	}
	u.rows[t] = u.rows[t][:0]

	// Eliminate the spike: solve U22^T z = spike in logical column order,
	// pushing each multiplier into the later columns that hold its row
	// (fill joins the heap). Heap pops are monotone in the order keys and
	// every contribution flows strictly forward, so each column's
	// accumulator is complete when it pops — the same order the positional
	// scan used to visit.
	zpat, zval := u.zpat[:0], u.zval[:0]
	for len(hp) > 0 {
		j := int(hp[0])
		last := len(hp) - 1
		hp[0] = hp[last]
		hp = hp[:last]
		for i := 0; ; {
			l, r, min := 2*i+1, 2*i+2, i
			if l < len(hp) && u.okey[hp[l]] < u.okey[hp[min]] {
				min = l
			}
			if r < len(hp) && u.okey[hp[r]] < u.okey[hp[min]] {
				min = r
			}
			if min == i {
				break
			}
			hp[min], hp[i] = hp[i], hp[min]
			i = min
		}
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
				push(en.col)
			}
			u.zacc[c] -= en.val * zj
		}
	}
	u.hcol = hp[:0]
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

	// Rotate column t to the end of the order: an O(1) list splice plus a
	// fresh maximal key.
	if u.otail != t32 {
		p, n := u.oprev[t], u.onext[t]
		if p >= 0 {
			u.onext[p] = n
		} else {
			u.ohead = n
		}
		u.oprev[n] = p
		u.onext[u.otail] = t32
		u.oprev[t] = u.otail
		u.onext[t] = -1
		u.otail = t32
	}
	u.okey[t] = u.nextKey
	u.nextKey++

	u.updates++
	return nil
}
