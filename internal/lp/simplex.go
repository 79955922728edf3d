package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Options configures the simplex solver.
type Options struct {
	// MaxIter caps the total iteration count (0 = automatic).
	MaxIter int
	// Ctx, when non-nil, cancels the solve: the main loop polls it every
	// CheckEvery iterations and returns an error wrapping the context's
	// cause (errors.Is(err, context.Canceled) etc. hold).
	Ctx context.Context
	// Timeout caps the solve's wall-clock time (0 = unlimited). On expiry
	// the solve returns an error wrapping ErrTimeout.
	Timeout time.Duration
	// CheckEvery is the number of iterations between cancellation and
	// deadline checks (0 = automatic).
	CheckEvery int
	// SectionSize is the number of columns scanned per iteration by
	// partial pricing (0 = automatic; negative = full pricing). Partial
	// pricing scans a rotating window and picks the best eligible column in
	// it, falling back to a full sweep before declaring optimality.
	SectionSize int
	// Start, when non-nil, seeds the solve with a prior basis (warm
	// start). The snapshot is validated against the problem shape and for
	// internal consistency; on any mismatch the solver silently falls back
	// to the crash basis, so a stale Start can cost speed but never
	// correctness. Stats.WarmSolves/ColdSolves report which path ran.
	Start *Basis
	// Presolve controls the presolve/postsolve layer (zero value = on).
	// PresolveOff solves the problem as given, exactly as before the
	// layer existed.
	Presolve PresolveMode
}

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIter == 0 {
		o.MaxIter = 20000 + 100*(m+n)
	}
	if o.SectionSize == 0 {
		o.SectionSize = 2000
		if n < 4*o.SectionSize {
			o.SectionSize = -1 // small problems: full pricing
		}
	}
	if o.CheckEvery == 0 {
		o.CheckEvery = 64
	}
	return o
}

// Solve compiles nothing; it solves an already compiled Problem.
func Solve(p *Problem, opts Options) (*Solution, error) {
	if opts.Presolve != PresolveOff && p.numRows > 0 {
		return solvePresolved(p, opts)
	}
	s := newSimplex(p, opts)
	return s.solve()
}

// SolveModel compiles and solves a Model.
func SolveModel(m *Model, opts Options) (*Solution, error) {
	p, err := m.Compile()
	if err != nil {
		return nil, err
	}
	return Solve(p, opts)
}

// Column status markers.
type colStatus uint8

const (
	nonbasicLower colStatus = iota
	nonbasicUpper
	nonbasicFree
	basic
)

type simplex struct {
	p    *Problem
	opts Options
	m, n int // rows, total columns (struct + slack)

	fac    *SparseFactor
	status []colStatus
	basis  []int     // column basic in each row position
	x      []float64 // current value of every column
	xB     []float64 // values of basic columns (mirror of x at basis positions)
	// viol marks the basis positions whose value lies outside its column's
	// bounds, kept in step with every write to xB or basis, so the
	// infeasibility sum and the dual pass's leaving-row search visit only
	// the violated positions (in ascending order, as a scan of every row
	// would add them).
	viol bitset

	cB []float64 // basic cost vector for the current phase
	// comp weights the true objective into the phase-1 cost vector
	// (cB[i] = band + comp*obj): feasibility restoration then prefers, among
	// equally infeasibility-reducing pivots, the ones that do not degrade
	// the real objective. Zero for cold starts (pure phase 1); set for warm
	// starts, where the seed basis is near-optimal and a cost-blind phase 1
	// would wander away from it only for phase 2 to walk all the way back.
	comp float64
	// p1band mirrors the infeasibility band (-1/0/+1) of each basic column
	// while phase 1 runs; with comp folded into cB the bands need their own
	// store for the flip detection to compare against.
	p1band []float64
	y      []float64 // duals scratch
	w      []float64 // FTRAN image of the entering column
	wPat   []int32   // w's nonzero positions, ascending
	rhs0   []float64 // scratch for -N*xN

	iter       int
	degenerate int
	bland      bool
	priceStart int
	warm       bool // solve was seeded from Options.Start

	gamma   []float64 // devex weight per column
	beta    []float64 // scratch for the pivot row of B^-1
	betaPat []int32   // beta's nonzero positions, ascending
	unit    [1]int32  // position of the unit vector a pivot-row BTRAN solves for

	// Devex reduced-cost cache: d_j maintained incrementally across pivots
	// (d'_j = d_j - (d_q/alpha_q) alpha_j over the pivot row's pattern)
	// instead of recomputed from fresh duals every iteration. dDirty forces
	// a rebuild — set on phase entry, refactorization and pivot rejection,
	// where the incremental formula stops holding.
	d        []float64
	dDirty   bool
	dAge     int // pivots absorbed since the last rebuild
	maxGamma float64

	// Phase-1 cost flips of the current iteration: basis positions whose
	// infeasibility band changed when the basics moved, and the band delta.
	// A sparse BTRAN of the deltas folds the cost change into the cache
	// exactly (applyCostCorrection) instead of forcing a full rebuild.
	flipPos   []int32
	flipDelta []float64

	// Row-major (CSR) copy of p.cols for the devex pivot-row gather.
	rowPtr []int32
	rowCol []int32
	rowVal []float64
	// Stamped scratch holding the pivot row alpha = beta^T A sparsely.
	alpha     []float64
	alphaPat  []int32
	alphaFlag []int32
	alphaMark int32

	// Shunned columns: entering candidates whose pivot was undone because
	// the pivoted basis had no usable factorization. A stamp equal to
	// shunGen excludes the column from pricing; the set clears (by bumping
	// shunGen) at the next successful pivot, which changes the basis the
	// dependence was measured against. Allocated on first rejection.
	shunStamp []int32
	shunGen   int32
	anyShun   bool

	stats     Stats
	start     time.Time
	deadline  time.Time // zero when no timeout is set
	lastCheck int       // iteration count at the last interrupt poll
}

func newSimplex(p *Problem, opts Options) *simplex {
	m := p.numRows
	n := p.numStruct + p.numRows
	opts = opts.withDefaults(m, n)
	s := &simplex{
		p: p, opts: opts, m: m, n: n,
		status: make([]colStatus, n),
		basis:  make([]int, m),
		x:      make([]float64, n),
		xB:     make([]float64, m),
		viol:   newBitset(m),
		cB:     make([]float64, m),
		p1band: make([]float64, m),
		y:      make([]float64, m),
		w:      make([]float64, m),
		wPat:   make([]int32, 0, m),
		rhs0:   make([]float64, m),
		fac:    NewSparseFactor(0),
	}
	s.initDevex()
	return s
}

func (s *simplex) solve() (*Solution, error) {
	s.start = time.Now()
	if s.opts.Timeout > 0 {
		s.deadline = s.start.Add(s.opts.Timeout)
	}
	// Catch an already-canceled context (or an already-expired deadline)
	// before any factorization work.
	if err := s.checkInterrupt(); err != nil {
		return nil, err
	}
	if s.m == 0 {
		return s.solveUnconstrained()
	}
	// Seed from the caller's basis when one is given and usable; a
	// snapshot that fails validation falls back to the all-slack crash
	// basis (structural variables at a bound). A snapshot that installs
	// but factorizes singular — the usual fate of a basis carried across
	// a coefficient change, where two basic columns that were independent
	// under the old values have become parallel — is repaired rather than
	// discarded: the factorization swaps a nonbasic slack into each
	// dependent position as it goes and reports the swaps; the displaced
	// columns rest at their crash bounds.
	if b := s.opts.Start; b.compatibleWith(s.p) {
		s.installBasis(b)
		s.warm = s.factorRepair() == nil
	}
	if !s.warm {
		s.installCrashBasis()
		if err := s.fac.Factor(s.p.cols, s.basis); err != nil {
			return nil, err
		}
	}
	s.stats.InitialFactorizations++
	s.recomputeXB()
	// A warm seed first tries the dual-simplex fast path: restore dual
	// feasibility with bound flips, then pivot the drifted basics feasible
	// while keeping the basis dual feasible. When it converges the phases
	// below reduce to a certifying pricing sweep; when it bails the primal
	// phases continue from its (still consistent) state.
	if s.warm {
		if err := s.dualReoptimize(); err != nil {
			return nil, err
		}
	}

	// Phase 1: drive infeasibility to zero. A warm seed is near-optimal,
	// so its phase 1 runs with a composite cost — the infeasibility bands
	// plus a small multiple of the true objective — that restores
	// feasibility without walking away from the seed; a cost-blind phase 1
	// would drift to an arbitrary feasible basis and leave phase 2 to walk
	// all the way back. If the composite stalls short of feasibility (the
	// cost term can block the last band-reducing pivots), a pure phase 1
	// finishes the job before infeasibility is declared.
	if s.infeasibility() > simplexTol {
		if s.warm {
			s.comp = compositeWeight(s.p.obj)
		}
		if err := s.loop(true); err != nil {
			return nil, err
		}
		if s.comp != 0 {
			s.comp = 0
			if s.infeasibility() > simplexTol {
				s.dDirty = true
				if err := s.loop(true); err != nil {
					return nil, err
				}
			}
		}
		if s.infeasibility() > simplexTol*math.Max(1, s.scale()) {
			return nil, ErrInfeasible
		}
	}
	s.stats.Phase1Iterations = s.iter - s.stats.DualIterations
	// Phase 2: optimize the true objective.
	if err := s.loop(false); err != nil {
		return nil, err
	}
	return s.buildSolution(), nil
}

// factorRepair factorizes the current basis through FactorRepair: a
// dependent basis position takes the slack of an unpivoted row, and the
// column it displaces is rebooked at its crash bound. The caller
// recomputes the basic values.
func (s *simplex) factorRepair() error {
	swaps, err := s.fac.FactorRepair(s.p.cols, s.basis)
	for _, sw := range swaps {
		s.status[sw.old] = s.startStatus(sw.old)
		s.x[sw.old] = s.startValue(sw.old)
		s.status[s.basis[sw.pos]] = basic
		s.stats.BasisRepairs++
	}
	return err
}

// checkInterrupt polls the context and the wall-clock deadline. The
// returned errors are distinguishable: context cancellation wraps the
// context's cause, a timeout wraps ErrTimeout.
func (s *simplex) checkInterrupt() error {
	if ctx := s.opts.Ctx; ctx != nil {
		select {
		case <-ctx.Done():
			return fmt.Errorf("lp: solve interrupted after %d iterations: %w", s.iter, context.Cause(ctx))
		default:
		}
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return fmt.Errorf("%w: budget %v exhausted after %d iterations", ErrTimeout, s.opts.Timeout, s.iter)
	}
	return nil
}

// solveUnconstrained handles the degenerate m == 0 case.
func (s *simplex) solveUnconstrained() (*Solution, error) {
	sol := &Solution{X: make([]float64, s.p.numStruct)}
	obj := 0.0
	for j := 0; j < s.p.numStruct; j++ {
		c := s.p.obj[j]
		switch {
		case c > 0:
			if math.IsInf(s.p.lo[j], -1) {
				return nil, ErrUnbounded
			}
			sol.X[j] = s.p.lo[j]
		case c < 0:
			if math.IsInf(s.p.hi[j], 1) {
				return nil, ErrUnbounded
			}
			sol.X[j] = s.p.hi[j]
		default:
			sol.X[j] = s.startValue(j)
		}
		obj += c * sol.X[j]
	}
	if s.p.sense == Maximize {
		obj = -obj
	}
	sol.Objective = obj
	s.finalizeStats()
	sol.Stats = s.stats
	return sol, nil
}

// finalizeStats stamps the per-solve totals and attributes them to the
// warm- or cold-start ledger so aggregators can tell the two apart.
func (s *simplex) finalizeStats() {
	s.stats.Iterations = s.iter
	s.stats.Wall = time.Since(s.start)
	s.stats.PricingRule = "devex"
	if s.warm {
		s.stats.WarmSolves = 1
		s.stats.WarmIterations = s.iter
		s.stats.WarmRefactorizations = s.stats.Refactorizations
	} else {
		s.stats.ColdSolves = 1
		s.stats.ColdIterations = s.iter
		s.stats.ColdRefactorizations = s.stats.Refactorizations
	}
}

func (s *simplex) startStatus(j int) colStatus {
	lo, hi := s.p.lo[j], s.p.hi[j]
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return nonbasicFree
	case math.IsInf(lo, -1):
		return nonbasicUpper
	default:
		// Prefer the bound closer to zero for finite ranges.
		if !math.IsInf(hi, 1) && abs(hi) < abs(lo) {
			return nonbasicUpper
		}
		return nonbasicLower
	}
}

func (s *simplex) startValue(j int) float64 {
	switch s.startStatus(j) {
	case nonbasicLower:
		return s.p.lo[j]
	case nonbasicUpper:
		return s.p.hi[j]
	default:
		return 0
	}
}

// recomputeXB solves B*xB = -N*xN from scratch.
func (s *simplex) recomputeXB() {
	for i := range s.rhs0 {
		s.rhs0[i] = 0
	}
	for j := 0; j < s.n; j++ {
		if s.status[j] == basic || s.x[j] == 0 {
			continue
		}
		xj := s.x[j]
		ri, rv := s.p.cols.Col(j)
		for k, r := range ri {
			s.rhs0[r] -= rv[k] * xj
		}
	}
	s.fac.Ftran(s.rhs0)
	copy(s.xB, s.rhs0)
	for i, q := range s.basis {
		s.x[q] = s.xB[i]
		s.trackViolation(i)
	}
}

// trackViolation records whether basis position i's value violates its
// column's bounds.
func (s *simplex) trackViolation(i int) {
	q, v := s.basis[i], s.xB[i]
	if v < s.p.lo[q] || v > s.p.hi[q] {
		s.viol.add(i)
	} else {
		s.viol.remove(i)
	}
}

// infeasibility returns the total bound violation of the basic variables,
// summed in ascending position order over the violated positions.
func (s *simplex) infeasibility() float64 {
	sum := 0.0
	for wi, w := range s.viol {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 | bits.TrailingZeros64(w)
			q, v := s.basis[i], s.xB[i]
			if lo := s.p.lo[q]; v < lo {
				sum += lo - v
			} else if hi := s.p.hi[q]; v > hi {
				sum += v - hi
			}
		}
	}
	return sum
}

// scale returns a magnitude estimate used to relativize tolerances.
func (s *simplex) scale() float64 {
	mx := 1.0
	for i := range s.xB {
		if a := abs(s.xB[i]); a > mx {
			mx = a
		}
	}
	return mx
}

// compositeWeight sizes the objective's share of a composite phase-1 cost:
// small enough that a unit of infeasibility (band magnitude 1) dominates
// the largest cost coefficient by two orders of magnitude, so feasibility
// progress is never traded away for cost improvement.
func compositeWeight(obj []float64) float64 {
	mx := 0.0
	for _, c := range obj {
		if a := abs(c); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	return 0.02 / mx
}

// phase1Costs fills cB with the gradient of the infeasibility sum, plus
// comp times the true objective when a composite phase 1 is active.
func (s *simplex) phase1Costs() {
	for i, q := range s.basis {
		v := s.xB[i]
		band := 0.0
		switch {
		case v < s.p.lo[q]-simplexTol:
			band = -1
		case v > s.p.hi[q]+simplexTol:
			band = 1
		}
		s.p1band[i] = band
		s.cB[i] = band + s.comp*s.p.obj[q]
	}
}

func (s *simplex) phase2Costs() {
	for i, q := range s.basis {
		s.cB[i] = s.p.obj[q]
	}
}

// reducedCost computes d_j = c_j - y . A_j for column j given duals in s.y.
func (s *simplex) reducedCost(j int, phase1 bool) float64 {
	var c float64
	if phase1 {
		c = s.comp * s.p.obj[j]
	} else {
		c = s.p.obj[j]
	}
	ri, rv := s.p.cols.Col(j)
	for k, r := range ri {
		c -= s.y[r] * rv[k]
	}
	return c
}

// score rates column j as an entering candidate; score <= tol means not
// eligible. dir is the movement direction of the entering variable.
func (s *simplex) score(j int, phase1 bool) (score, dir float64) {
	st := s.status[j]
	if st == basic {
		return 0, 0
	}
	if s.anyShun && s.shunStamp[j] == s.shunGen {
		return 0, 0
	}
	d := s.d[j] // cache is fresh: loop() rebuilds it before pricing
	switch st {
	case nonbasicLower:
		return -d, 1
	case nonbasicUpper:
		return d, -1
	default: // nonbasicFree
		if d < 0 {
			return -d, 1
		}
		return d, -1
	}
}

// price selects the entering column, returning (-1, 0) at optimality.
// Bland's rule takes the first eligible column of a full sweep; otherwise
// devexPrice ranks the candidates.
func (s *simplex) price(phase1 bool) (entering int, dir float64) {
	if s.bland {
		for j := 0; j < s.n; j++ {
			if sc, dj := s.score(j, phase1); sc > simplexTol {
				s.stats.PricingScans += int64(j + 1)
				return j, dj
			}
		}
		s.stats.PricingScans += int64(s.n)
		return -1, 0
	}
	return s.devexPrice()
}

// ratioEvent describes a blocking event of the ratio test.
type ratioEvent struct {
	t      float64
	pos    int     // basis position (-1 = entering variable's own bound)
	atHi   bool    // leaving variable leaves at its upper bound
	pivMag float64 // |w[pos]|, used for stability tie-breaking
}

// ratioTest scans the FTRAN image w for the first blocking event when the
// entering variable q moves in direction dir. It walks w's nonzeros in
// ascending position order, so ties break as in a scan of every row.
func (s *simplex) ratioTest(q int, dir float64, phase1 bool) (ratioEvent, bool) {
	best := ratioEvent{t: math.Inf(1), pos: -1}
	// Entering variable's own opposite bound (bound flip).
	if rng := s.p.hi[q] - s.p.lo[q]; !math.IsInf(rng, 1) {
		best = ratioEvent{t: rng, pos: -1}
	}
	for _, i32 := range s.wPat {
		i := int(i32)
		wi := s.w[i]
		if abs(wi) <= simplexPivTol {
			continue
		}
		rate := -dir * wi // movement rate of basic i
		qi := s.basis[i]
		lo, hi := s.p.lo[qi], s.p.hi[qi]
		v := s.xB[i]
		var limit float64
		var atHi bool
		switch {
		case phase1 && v < lo-simplexTol:
			// Infeasible below: blocks only when moving up to lo.
			if rate <= 0 {
				continue
			}
			limit, atHi = (lo-v)/rate, false
		case phase1 && v > hi+simplexTol:
			if rate >= 0 {
				continue
			}
			limit, atHi = (hi-v)/rate, true
		case rate > 0:
			if math.IsInf(hi, 1) {
				continue
			}
			limit, atHi = (hi-v)/rate, true
		default: // rate < 0
			if math.IsInf(lo, -1) {
				continue
			}
			limit, atHi = (lo-v)/rate, false
		}
		if limit < 0 {
			limit = 0
		}
		if limit < best.t-simplexTol ||
			(limit < best.t+simplexTol && abs(wi) > best.pivMag) {
			best = ratioEvent{t: limit, pos: i, atHi: atHi, pivMag: abs(wi)}
		}
	}
	if math.IsInf(best.t, 1) {
		return best, false
	}
	return best, true
}

// loop runs simplex iterations for one phase.
func (s *simplex) loop(phase1 bool) error {
	// Each phase has its own cost vector, so the devex reduced-cost cache
	// never survives a phase boundary.
	s.dDirty = true
	for {
		if s.iter >= s.opts.MaxIter {
			return fmt.Errorf("%w after %d iterations", ErrIterLimit, s.iter)
		}
		if s.iter-s.lastCheck >= s.opts.CheckEvery {
			s.lastCheck = s.iter
			if err := s.checkInterrupt(); err != nil {
				return err
			}
		}
		if phase1 && s.infeasibility() <= simplexTol {
			return nil
		}
		// The Bland fallback also prices through the cache (score());
		// refresh every iteration while it is active so anti-cycling sees
		// exact signs.
		refreshed := false
		if s.dDirty || s.bland || s.dAge >= devexRefreshEvery {
			s.refreshD(phase1)
			refreshed = true
		}
		q, dir := s.price(phase1)
		if q < 0 && !refreshed {
			// Optimality must be certified against exact reduced costs, not
			// the incrementally drifted cache.
			s.refreshD(phase1)
			q, dir = s.price(phase1)
		}
		if q < 0 {
			if s.anyShun {
				// Every remaining attractive column is shunned: each one's
				// pivot led to a basis with no usable factorization, so the
				// solver cannot make progress or certify optimality.
				return fmt.Errorf("%w: only numerically unusable entering columns remain", ErrNumerical)
			}
			return nil // optimal for this phase
		}
		s.ftranColumn(q)

		ev, ok := s.ratioTest(q, dir, phase1)
		if !ok {
			if phase1 {
				if s.comp != 0 {
					// The composite cost term admits purely cost-driven
					// rays (e.g. an unbounded slack whose band effect is
					// zero); a pure phase 1 cannot. Drop the term and
					// continue restoring feasibility.
					s.comp = 0
					s.dDirty = true
					continue
				}
				return fmt.Errorf("%w: unbounded phase-1 direction", ErrNumerical)
			}
			return ErrUnbounded
		}
		s.iter++
		if ev.t <= simplexTol {
			s.degenerate++
			s.stats.DegenerateSteps++
			if s.degenerate >= blandAfter {
				if !s.bland {
					s.stats.BlandActivations++
				}
				s.bland = true
			}
		} else {
			s.degenerate = 0
			s.bland = false
		}
		// Move the entering variable and update basics. In phase 1 the cost
		// of a basic column is its infeasibility band (-1/0/+1); a move that
		// carries a basic across a band boundary changes the cost vector.
		// Each crossing is collected as a (position, band delta) pair so the
		// reduced-cost cache can absorb the change exactly; cB is kept in
		// step with the current bands. The pivot position is excluded — the
		// leaving column's cost drop to 0 enters the cache through d[leave]
		// directly (leaveShift below), not through the duals.
		step := dir * ev.t
		trackFlips := phase1 && !s.dDirty
		s.flipPos, s.flipDelta = s.flipPos[:0], s.flipDelta[:0]
		for _, i32 := range s.wPat {
			i := int(i32)
			s.xB[i] -= step * s.w[i]
			s.x[s.basis[i]] = s.xB[i]
			s.trackViolation(i)
			if trackFlips && i != ev.pos {
				qi, v := s.basis[i], s.xB[i]
				band := 0.0
				switch {
				case v < s.p.lo[qi]-simplexTol:
					band = -1
				case v > s.p.hi[qi]+simplexTol:
					band = 1
				}
				if band != s.p1band[i] {
					s.flipPos = append(s.flipPos, int32(i))
					s.flipDelta = append(s.flipDelta, band-s.p1band[i])
					s.cB[i] += band - s.p1band[i]
					s.p1band[i] = band
				}
			}
		}
		if ev.pos < 0 {
			s.stats.BoundFlips++
			// Bound flip: the entering variable jumps to its other bound.
			if s.status[q] == nonbasicLower {
				s.status[q] = nonbasicUpper
				s.x[q] = s.p.hi[q]
			} else {
				s.status[q] = nonbasicLower
				s.x[q] = s.p.lo[q]
			}
			// No basis change, but the move may have flipped bands.
			if trackFlips && len(s.flipPos) > 0 {
				s.applyCostCorrection()
			}
			continue
		}
		// Pivot: q enters at basis position ev.pos; the old basic leaves.
		// The entering column's pre-pivot state is kept so a pivot whose
		// basis turns out to have no factorization can be undone.
		leave := s.basis[ev.pos]
		qStatus, qX := s.status[q], s.x[q]
		if ev.atHi {
			s.status[leave] = nonbasicUpper
			s.x[leave] = s.p.hi[leave]
		} else {
			s.status[leave] = nonbasicLower
			s.x[leave] = s.p.lo[leave]
		}
		s.x[q] += step
		s.xB[ev.pos] = s.x[q]
		s.basis[ev.pos] = q
		s.status[q] = basic
		s.trackViolation(ev.pos)
		// The pivot position swaps costs: the leaving column's band
		// (cB[ev.pos]) drops to 0 as it exits to a feasible bound — a direct
		// shift of d[leave], since leave is nonbasic now — and the entering
		// column picks up the band of its new value, a basic cost change
		// folded in through the dual correction like any other flip.
		var leaveShift float64
		if trackFlips {
			// Only the band part shifts d[leave] directly: the comp*obj
			// parts of the old and new pivot-position costs flow through
			// the standard reduced-cost update (they are ordinary column
			// costs, present in d_q), exactly as in phase 2.
			leaveShift = -s.p1band[ev.pos]
			v := s.xB[ev.pos]
			band := 0.0
			switch {
			case v < s.p.lo[q]-simplexTol:
				band = -1
			case v > s.p.hi[q]+simplexTol:
				band = 1
			}
			if band != 0 {
				s.flipPos = append(s.flipPos, int32(ev.pos))
				s.flipDelta = append(s.flipDelta, band)
			}
			s.p1band[ev.pos] = band
			s.cB[ev.pos] = band + s.comp*s.p.obj[q]
		}

		// Must run against the pre-pivot factorization: the weight update
		// needs the outgoing basis inverse's pivot row.
		s.devexUpdate(q, ev.pos, leave, leaveShift)
		refactor, err := s.fac.Update(s.w, ev.pos)
		if err != nil {
			// A numerically unusable pivot is recoverable: refactorizing
			// from scratch absorbs the basis change exactly. Anything else
			// is a contract violation and must surface, not be papered
			// over by a refactorization.
			if !errors.Is(err, ErrNumerical) {
				return fmt.Errorf("lp: basis update at iteration %d: %w", s.iter, err)
			}
			refactor = true
		}
		if refactor {
			if err := s.fac.Factor(s.p.cols, s.basis); err != nil {
				if !errors.Is(err, ErrNumerical) {
					return err
				}
				// The pivoted basis has no usable factorization: the
				// entering column is numerically dependent on the rest of
				// the basis, and its acceptable ratio-test pivot existed
				// only through round-off. Undo the pivot, refactorize the
				// previous basis and shun the column until the next
				// successful pivot changes the basis. The previous basis
				// may have been factorable only through the update chain,
				// so the refactorization repairs it as a warm start is
				// repaired. The devex weights keep their post-pivot
				// values; they are heuristic and self-correct.
				s.basis[ev.pos] = leave
				s.status[leave] = basic
				s.status[q] = qStatus
				s.x[q] = qX
				if err := s.factorRepair(); err != nil {
					return fmt.Errorf("lp: refactorizing restored basis: %w", err)
				}
				s.stats.Refactorizations++
				s.stats.PivotRejections++
				s.recomputeXB()
				s.shunColumn(q)
				// devexUpdate already folded the undone pivot into the
				// reduced-cost cache; rebuild it.
				s.dDirty = true
				continue
			}
			s.stats.Refactorizations++
			s.recomputeXB()
			// recomputeXB can nudge basic values across phase-1 bands, and
			// the fresh factorization gives cheaper exact duals anyway.
			s.dDirty = true
		}
		// Fold this iteration's phase-1 cost flips into the cache. Runs
		// against the post-pivot factorization (Update absorbed the pivot);
		// a refactorization marks the cache dirty and skips this.
		if !s.dDirty && len(s.flipPos) > 0 {
			s.applyCostCorrection()
		}
		if s.anyShun {
			// A pivot succeeded: the basis the shunned columns were
			// dependent on is gone, so they become candidates again.
			s.shunGen++
			s.anyShun = false
		}
	}
}

// ftranColumn solves B*w = a_q for the entering column q, clearing the
// previous image over its pattern first.
func (s *simplex) ftranColumn(q int) {
	for _, i := range s.wPat {
		s.w[i] = 0
	}
	ri, rv := s.p.cols.Col(q)
	s.wPat = s.fac.FtranSparse(ri, rv, s.w, s.wPat[:0])
}

// shunColumn excludes column q from pricing until the next successful
// pivot (score reports it as unattractive).
func (s *simplex) shunColumn(q int) {
	if s.shunStamp == nil {
		s.shunStamp = make([]int32, s.n)
		s.shunGen = 1
	}
	s.shunStamp[q] = s.shunGen
	s.anyShun = true
}

func (s *simplex) buildSolution() *Solution {
	s.finalizeStats()
	sol := &Solution{
		X:          make([]float64, s.p.numStruct),
		Duals:      make([]float64, s.m),
		Iterations: s.iter,
		Stats:      s.stats,
		Basis:      s.snapshotBasis(),
	}
	obj := 0.0
	for j := 0; j < s.p.numStruct; j++ {
		sol.X[j] = s.x[j]
		obj += s.p.obj[j] * s.x[j]
	}
	if s.p.sense == Maximize {
		obj = -obj
	}
	sol.Objective = obj
	// Duals from the final basis: y = B^-T cB with phase-2 costs. Our slack
	// columns carry coefficient -1, so the conventional row dual is -y.
	s.phase2Costs()
	copy(s.y, s.cB)
	s.fac.Btran(s.y)
	for i := 0; i < s.m; i++ {
		d := s.y[i]
		if s.p.sense == Maximize {
			d = -d
		}
		sol.Duals[i] = d
	}
	return sol
}
