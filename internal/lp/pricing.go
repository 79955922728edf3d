package lp

import "math"

// The simplex prices entering columns with reference-framework devex
// weights: each candidate's reduced cost is normalized by an evolving
// estimate of its steepest-edge norm, which steers the solver away from the
// short degenerate steps that plain largest-reduced-cost pricing is drawn
// to. A long run of degenerate pivots switches to Bland's rule
// (blandAfter) until a pivot makes progress again.

// devexResetLimit caps the devex weights: when any weight outgrows it the
// reference framework has drifted too far and all weights reset to 1.
const devexResetLimit = 1e12

// devexRefreshEvery caps the number of pivots the incremental reduced-cost
// cache absorbs before it is rebuilt from fresh duals. The incremental
// update is exact in exact arithmetic; the periodic rebuild (plus the
// rebuilds forced by refactorizations and phase-1 cost flips) bounds the
// floating-point drift a long pivot chain could otherwise accumulate.
const devexRefreshEvery = 100

// initDevex allocates and resets the devex state. Called once per solve.
func (s *simplex) initDevex() {
	s.gamma = make([]float64, s.n)
	s.beta = make([]float64, s.m)
	s.betaPat = make([]int32, 0, s.m)
	s.d = make([]float64, s.n)
	s.dDirty = true
	s.alpha = make([]float64, s.n)
	s.alphaFlag = make([]int32, s.n)
	s.alphaPat = make([]int32, 0, s.n)
	s.alphaMark = 0
	s.flipPos = make([]int32, 0, 16)
	s.flipDelta = make([]float64, 0, 16)
	s.buildRowMajor()
	s.resetDevex()
}

// buildRowMajor transposes the column-major constraint matrix (structural
// and slack columns alike) into CSR form. The devex update walks the pivot
// row of B^-1 A through it, touching only the rows where the BTRAN image
// is nonzero instead of dotting that image with every column.
func (s *simplex) buildRowMajor() {
	cols := s.p.cols
	nnz := cols.NNZ()
	s.rowPtr = make([]int32, s.m+1)
	s.rowCol = make([]int32, nnz)
	s.rowVal = make([]float64, nnz)
	for _, r := range cols.RowIdx {
		s.rowPtr[r+1]++
	}
	for r := 0; r < s.m; r++ {
		s.rowPtr[r+1] += s.rowPtr[r]
	}
	next := make([]int32, s.m)
	copy(next, s.rowPtr[:s.m])
	for j := 0; j < s.n; j++ {
		for e := cols.ColPtr[j]; e < cols.ColPtr[j+1]; e++ {
			r := cols.RowIdx[e]
			s.rowCol[next[r]] = int32(j)
			s.rowVal[next[r]] = cols.Val[e]
			next[r]++
		}
	}
}

// refreshD rebuilds the reduced-cost cache from fresh duals: one BTRAN of
// the phase costs plus one pass over the matrix.
func (s *simplex) refreshD(phase1 bool) {
	if phase1 {
		s.phase1Costs()
	} else {
		s.phase2Costs()
	}
	copy(s.y, s.cB)
	s.fac.Btran(s.y)
	for j := 0; j < s.n; j++ {
		s.d[j] = s.reducedCost(j, phase1)
	}
	s.dDirty, s.dAge = false, 0
}

// resetDevex restarts the reference framework: every column's weight
// becomes 1 (the framework is the current nonbasic set).
func (s *simplex) resetDevex() {
	for j := range s.gamma {
		s.gamma[j] = 1
	}
	s.maxGamma = 1
}

// devexPrice selects the entering column by the largest d_j^2 / gamma_j
// ratio. The ratio needs no fresh duals — d_j comes from the maintained
// cache — so the only per-column work is the ranking itself, and partial
// pricing keeps even that off the hot path: it scans a rotating window of
// SectionSize columns and takes the best eligible column of the first
// non-empty window, sweeping the whole matrix only when every window comes
// up dry. Optimality is unaffected —
// "no entering column" is only ever reported after a full dry sweep (and
// loop() re-certifies that against freshly rebuilt reduced costs).
func (s *simplex) devexPrice() (entering int, dir float64) {
	section := s.opts.SectionSize
	if section < 0 {
		section = s.n
	}
	best, bestRank := -1, 0.0
	scanned := 0
	j := s.priceStart % s.n
	for scanned < s.n {
		// One window, split where it wraps past the last column.
		for left := min(section, s.n-scanned); left > 0; {
			run := min(left, s.n-j)
			best, bestRank = s.priceRun(j, j+run, best, bestRank)
			j += run
			left -= run
			scanned += run
			if j == s.n {
				j = 0
			}
		}
		if best >= 0 {
			break
		}
	}
	s.stats.PricingScans += int64(scanned)
	if best < 0 {
		return -1, 0
	}
	s.priceStart = j
	if st := s.status[best]; st == nonbasicLower || st == nonbasicFree && s.d[best] < 0 {
		return best, 1
	}
	return best, -1
}

// priceSign turns a reduced cost into an improvement score by column
// status: a column at its lower bound improves the objective by rising
// (d_j < 0), one at its upper bound by falling (d_j > 0), and a basic
// column scores 0. A free column moves either way; priceRun scores it
// |d_j|.
var priceSign = [...]float64{nonbasicLower: -1, nonbasicUpper: 1, nonbasicFree: 1, basic: 0}

// priceRun ranks the columns lo..hi-1 against the best so far and returns
// the new best. A column is eligible when its score exceeds the tolerance
// and it is not shunned, and it wins on a strictly larger d_j^2 / gamma_j,
// so the first of equal ranks in scan order is kept. The score is a
// per-status sign table lookup and one multiply, so the loop branches on
// eligibility and rank but not on the status (apart from free columns,
// which MC-PERF never has).
func (s *simplex) priceRun(lo, hi, best int, bestRank float64) (int, float64) {
	d := s.d[lo:hi]
	gamma, status := s.gamma[lo:hi], s.status[lo:hi]
	gamma, status = gamma[:len(d)], status[:len(d)]
	for k, dk := range d {
		st := status[k]
		sc := dk * priceSign[st&3] // st < 4; the mask drops the bounds check
		if st == nonbasicFree {
			sc = math.Abs(dk)
		}
		if sc <= simplexTol {
			continue
		}
		if rank := sc * sc / gamma[k]; rank > bestRank && !(s.anyShun && s.shunStamp[lo+k] == s.shunGen) {
			best, bestRank = lo+k, rank
		}
	}
	return best, bestRank
}

// devexUpdate refreshes the weights and the reduced-cost cache after a
// basis change: entering column q pivoted in at basis position pos
// (leaving column leave). It must run before the factorization absorbs
// the pivot, because the update needs the pivot row of the outgoing basis
// inverse. s.w still holds the FTRAN image of the entering column.
//
// The pivot row alpha = beta^T A is gathered sparsely through the CSR
// copy of the matrix — only the rows where beta is nonzero are walked —
// and its pattern drives both updates at once: the devex weights
// (gamma_j = max(gamma_j, (alpha_j/alpha_q)^2 gamma_q)) and, when the
// cache is clean, the reduced costs (d'_j = d_j - (d_q/alpha_q) alpha_j;
// columns outside the pattern have alpha_j = 0 and keep both values).
//
// leaveShift is the direct change to the leaving column's cost as it goes
// nonbasic: 0 in phase 2 (the cost vector is fixed), minus its old
// infeasibility band in phase 1 (a nonbasic column sits at a bound, so
// its phase-1 cost is 0).
func (s *simplex) devexUpdate(q, pos, leave int, leaveShift float64) {
	aq := s.w[pos]
	if aq == 0 {
		s.dDirty = true
		return
	}
	pat := s.pivotRow(pos)
	scale := s.gamma[q] / (aq * aq)
	updateD := !s.dDirty
	var rate float64
	if updateD {
		rate = s.d[q] / aq
	}
	for _, j32 := range pat {
		j := int(j32)
		if j == q || s.status[j] == basic {
			continue
		}
		alpha := s.alpha[j]
		if alpha == 0 {
			continue
		}
		if cand := alpha * alpha * scale; cand > s.gamma[j] {
			s.gamma[j] = cand
			if cand > s.maxGamma {
				s.maxGamma = cand
			}
		}
		if updateD {
			s.d[j] -= rate * alpha
		}
	}
	// The leaving column's weight estimates its steepest-edge norm in the
	// new basis; the entering column becomes basic and resets. The leaving
	// column's reduced cost is leaveShift - rate: the pivot contributes
	// -rate * (beta . a_leave) with beta . a_leave = 1 by construction, and
	// leaveShift folds in its phase-1 cost dropping to 0 as it goes
	// nonbasic.
	g := scale
	if g < 1 {
		g = 1
	}
	if g > s.gamma[leave] {
		s.gamma[leave] = g
	}
	if g > s.maxGamma {
		s.maxGamma = g
	}
	s.gamma[q] = 1
	if updateD {
		s.d[leave] = leaveShift - rate
		s.d[q] = 0
		s.dAge++
	}
	if s.maxGamma > devexResetLimit {
		s.resetDevex()
	}
}

// pivotRow gathers the pivot row alpha = beta^T A of basis position pos,
// where beta = e_pos^T B^-1 is the row of the (current) basis inverse,
// into the stamped scratch alpha and returns its pattern. BTRAN returns
// beta's nonzero rows in ascending order, and the gather walks only those
// rows through the CSR copy, so each alpha_j sums its terms in ascending
// row order.
func (s *simplex) pivotRow(pos int) []int32 {
	s.unit[0] = int32(pos)
	s.betaPat = s.btranSparse(s.unit[:], unitVal[:])
	s.alphaMark++
	mark := s.alphaMark
	pat := s.alphaPat[:0]
	for _, r := range s.betaPat {
		br := s.beta[r]
		for e := s.rowPtr[r]; e < s.rowPtr[r+1]; e++ {
			j := s.rowCol[e]
			if s.alphaFlag[j] != mark {
				s.alphaFlag[j] = mark
				s.alpha[j] = 0
				pat = append(pat, j)
			}
			s.alpha[j] += br * s.rowVal[e]
		}
	}
	s.alphaPat = pat
	return pat
}

// unitVal is the value of the unit vector a pivot-row BTRAN solves for.
var unitVal = [1]float64{1}

// btranSparse solves B^T*beta = c for the sparse c given by idx and val,
// clearing the previous beta over its pattern first, and returns beta's
// nonzero positions in ascending order.
func (s *simplex) btranSparse(idx []int32, val []float64) []int32 {
	for _, i := range s.betaPat {
		s.beta[i] = 0
	}
	return s.fac.BtranSparse(idx, val, s.beta, s.betaPat[:0])
}

// applyCostCorrection folds a sparse basic-cost change into the
// reduced-cost cache: with the basic costs shifted by the recorded band
// deltas, the duals shift by v = B^-T delta and every reduced cost by
// -v . A_j. One sparse BTRAN plus a CSR gather over supp(v) replaces the
// full rebuild a phase-1 band flip used to force. Basic columns' cache
// entries pick up a nonzero here, but those entries are never read: basic
// columns price as 0 and d[leave] is set outright when one leaves.
func (s *simplex) applyCostCorrection() {
	s.betaPat = s.btranSparse(s.flipPos, s.flipDelta)
	for _, r := range s.betaPat {
		vr := s.beta[r]
		for e := s.rowPtr[r]; e < s.rowPtr[r+1]; e++ {
			s.d[s.rowCol[e]] -= vr * s.rowVal[e]
		}
	}
}
