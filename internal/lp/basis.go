package lp

import "math"

// Basis is a snapshot of a simplex basis: the basic column occupying each
// row position plus the bound status of every column (structural and
// slack). A Basis is produced by a successful solve (Solution.Basis) and
// can seed a later solve of a same-shaped problem through Options.Start —
// the classic warm start for parameter sweeps where only the right-hand
// side moves between solves.
//
// A Basis is immutable once created and safe to share across goroutines;
// the solver copies it on installation and never writes through it.
type Basis struct {
	numRows int
	numCols int // structural + slack columns
	basic   []int
	status  []colStatus
}

// compatibleWith reports whether the snapshot can seed a solve of p: the
// shape must match exactly and the snapshot must be internally consistent
// (every basic column in range and unique, statuses agreeing with the
// basic set). A nil Basis is never compatible. Callers fall back to the
// crash basis on false; a stale or corrupted snapshot can cost a cold
// start but never a wrong answer.
func (b *Basis) compatibleWith(p *Problem) bool {
	if b == nil || b.numRows != p.numRows || b.numCols != p.numStruct+p.numRows {
		return false
	}
	if len(b.basic) != b.numRows || len(b.status) != b.numCols {
		return false
	}
	seen := make([]bool, b.numCols)
	for _, q := range b.basic {
		if q < 0 || q >= b.numCols || seen[q] {
			return false
		}
		seen[q] = true
		if b.status[q] != basic {
			return false
		}
	}
	nBasic := 0
	for _, st := range b.status {
		if st == basic {
			nBasic++
		}
	}
	return nBasic == b.numRows
}

// snapshotBasis captures the solver's final basis for Solution.Basis.
func (s *simplex) snapshotBasis() *Basis {
	return &Basis{
		numRows: s.m,
		numCols: s.n,
		basic:   append([]int(nil), s.basis...),
		status:  append([]colStatus(nil), s.status...),
	}
}

// installBasis seeds the solver state from a compatible snapshot. Nonbasic
// statuses that the current problem's bounds make meaningless (a snapshot
// taken under different bounds may rest a column on a bound that is now
// infinite) are repaired to the crash-start status of that column, so the
// installed point always respects the bounds of the problem being solved.
func (s *simplex) installBasis(b *Basis) {
	for j := 0; j < s.n; j++ {
		st := b.status[j]
		if st == basic {
			continue // assigned from b.basic below
		}
		lo, hi := s.p.lo[j], s.p.hi[j]
		switch st {
		case nonbasicLower:
			if math.IsInf(lo, -1) {
				st = s.startStatus(j)
			}
		case nonbasicUpper:
			if math.IsInf(hi, 1) {
				st = s.startStatus(j)
			}
		case nonbasicFree:
			if !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
				st = s.startStatus(j)
			}
		}
		s.status[j] = st
		switch st {
		case nonbasicLower:
			s.x[j] = s.p.lo[j]
		case nonbasicUpper:
			s.x[j] = s.p.hi[j]
		default:
			s.x[j] = 0
		}
	}
	copy(s.basis, b.basic)
	for _, q := range b.basic {
		s.status[q] = basic
	}
}

// installCrashBasis seeds the solver with the all-slack crash basis:
// structural variables rest at a bound, one slack is basic per row.
func (s *simplex) installCrashBasis() {
	for j := 0; j < s.n; j++ {
		s.status[j] = s.startStatus(j)
		s.x[j] = s.startValue(j)
	}
	for i := 0; i < s.m; i++ {
		q := s.p.numStruct + i
		s.basis[i] = q
		s.status[q] = basic
	}
}
