package lp

// The simplex prices entering columns with reference-framework devex
// weights: each candidate's reduced cost is normalized by an evolving
// estimate of its steepest-edge norm, which steers the solver away from the
// short degenerate steps that plain largest-reduced-cost pricing is drawn
// to. A long run of degenerate pivots switches to Bland's rule
// (Options.BlandAfter) until a pivot makes progress again.

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
func (s *simplex) devexPrice(phase1 bool) (entering int, dir float64) {
	tol := s.opts.Tol
	section := s.opts.SectionSize
	if section < 0 {
		section = s.n
	}
	bestJ, bestRank, bestDir := -1, 0.0, 0.0
	scanned := 0
	j := s.priceStart % s.n
	for scanned < s.n {
		if sc, dj := s.score(j, phase1); sc > tol {
			if rank := sc * sc / s.gamma[j]; rank > bestRank {
				bestJ, bestRank, bestDir = j, rank, dj
			}
		}
		scanned++
		j++
		if j == s.n {
			j = 0
		}
		if scanned%section == 0 && bestJ >= 0 {
			break
		}
	}
	if bestJ >= 0 {
		s.priceStart = j
	}
	s.stats.PricingScans += int64(scanned)
	return bestJ, bestDir
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
	// beta = e_pos^T B^-1: the pivot row of the pre-pivot basis inverse.
	for i := range s.beta {
		s.beta[i] = 0
	}
	s.beta[pos] = 1
	s.fac.Btran(s.beta)
	s.alphaMark++
	mark := s.alphaMark
	pat := s.alphaPat[:0]
	for r := 0; r < s.m; r++ {
		br := s.beta[r]
		if br == 0 {
			continue
		}
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

// applyCostCorrection folds a sparse basic-cost change into the
// reduced-cost cache: with the basic costs shifted by the recorded band
// deltas, the duals shift by v = B^-T delta and every reduced cost by
// -v . A_j. One sparse BTRAN plus a CSR gather over supp(v) replaces the
// full rebuild a phase-1 band flip used to force. Basic columns' cache
// entries pick up a nonzero here, but those entries are never read: basic
// columns price as 0 and d[leave] is set outright when one leaves.
func (s *simplex) applyCostCorrection() {
	for i := range s.beta {
		s.beta[i] = 0
	}
	for k, i := range s.flipPos {
		s.beta[i] = s.flipDelta[k]
	}
	s.fac.Btran(s.beta)
	for r := 0; r < s.m; r++ {
		vr := s.beta[r]
		if vr == 0 {
			continue
		}
		for e := s.rowPtr[r]; e < s.rowPtr[r+1]; e++ {
			s.d[s.rowCol[e]] -= vr * s.rowVal[e]
		}
	}
}
