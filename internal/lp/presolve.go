package lp

import (
	"math"
	"time"
)

// PresolveMode controls the presolve/postsolve layer around a solve.
type PresolveMode int

// Presolve modes. The zero value resolves to "on" so a zero Options
// struct always gets the recommended configuration; PresolveOff restores
// the pre-presolve solve path exactly.
const (
	PresolveAuto PresolveMode = iota
	PresolveOn
	PresolveOff
)

// The presolve layer shrinks a Problem before the simplex runs and maps
// the reduced solution back afterwards. Every installed reduction
// preserves the feasible set exactly (comparisons are strict, never
// tolerance-widened), so the reduced optimum IS the original optimum and
// presolve can never change a bound, only the work needed to reach it:
//
//   - empty rows: a row with no live structural entry constrains only its
//     own slack; it is satisfied or infeasible outright.
//   - redundant (including free) rows: when the activity range implied by
//     the live variable bounds fits inside the row bounds, the row can
//     never bind.
//   - singleton rows: a row with one live variable is a bound on that
//     variable; the row folds into the column bounds.
//   - forcing rows: when the extreme activity only just reaches a row
//     bound, every variable in the row is pinned at the extreme achieving
//     it (the pins become fixed columns).
//   - fixed columns: a column with lo == hi contributes a constant; the
//     constant folds into the slack bounds of its rows. Row-activity
//     bound tightening is applied only through these pinning reductions:
//     general implied-bound tightening is deliberately NOT installed,
//     because an optimum resting on an implied (non-original) bound of a
//     kept row has no exact basis image in the original space.
//   - free singleton columns (zero cost): the column can absorb its only
//     row's activity, so both disappear.
//
// Postsolve replays the reduction stack in reverse, reconstructing not
// just the primal point but the full simplex basis and the row duals, so
// warm-start chaining across presolved solves keeps working and a
// re-solve from the postsolved basis starts optimal.

// psKind tags one recorded reduction.
type psKind uint8

const (
	psFixedCol psKind = iota
	psEmptyRow
	psRedundantRow
	psSingletonRow
	psFreeCol
)

// psEntry is one live (column, coefficient) element of a removed row.
type psEntry struct {
	col int
	val float64
}

// psAction is one reduction on the postsolve stack.
type psAction struct {
	kind  psKind
	row   int     // removed/affected row (-1 for psFixedCol)
	col   int     // affected structural column (-1 for row-only kinds)
	coef  float64 // a[row][col] for singleton / free-column kinds
	shift float64 // fixed-column contribution folded into the row at removal
	val   float64 // fixed value (psFixedCol)
	preLo float64 // column bounds before this action (psSingletonRow) or
	preHi float64 // the original bounds (psFixedCol)
	sLo   float64 // working (shifted) slack bounds at removal
	sHi   float64
	rest  []psEntry // other live structural entries of the row at removal
}

// presolver holds the working state of one presolve run.
type presolver struct {
	p   *Problem
	tol float64
	n   int // structural columns
	m   int // rows

	// Working bounds for every column (structural + slack). Slack bounds
	// are shifted in place as fixed columns fold their contribution out.
	lo, hi []float64
	// shift[i] is the accumulated fixed-column contribution of row i:
	// original slack = working slack + shift.
	shift []float64

	colAlive []bool
	rowAlive []bool

	// Row-major view of the structural part of the matrix.
	rowPtr []int
	rowCol []int
	rowVal []float64

	stack       []psAction
	rowsRemoved int
	colsRemoved int
}

func newPresolver(p *Problem, tol float64) *presolver {
	ps := &presolver{
		p: p, tol: tol,
		n:        p.numStruct,
		m:        p.numRows,
		lo:       append([]float64(nil), p.lo...),
		hi:       append([]float64(nil), p.hi...),
		shift:    make([]float64, p.numRows),
		colAlive: make([]bool, p.numStruct),
		rowAlive: make([]bool, p.numRows),
	}
	for j := range ps.colAlive {
		ps.colAlive[j] = true
	}
	for i := range ps.rowAlive {
		ps.rowAlive[i] = true
	}
	// Transpose the structural columns into CSR for row scans.
	counts := make([]int, ps.m+1)
	for j := 0; j < ps.n; j++ {
		ri, _ := p.cols.Col(j)
		for _, r := range ri {
			counts[r+1]++
		}
	}
	for i := 0; i < ps.m; i++ {
		counts[i+1] += counts[i]
	}
	ps.rowPtr = counts
	nnz := counts[ps.m]
	ps.rowCol = make([]int, nnz)
	ps.rowVal = make([]float64, nnz)
	next := append([]int(nil), counts[:ps.m]...)
	for j := 0; j < ps.n; j++ {
		ri, rv := p.cols.Col(j)
		for k, r := range ri {
			ps.rowCol[next[r]] = j
			ps.rowVal[next[r]] = rv[k]
			next[r]++
		}
	}
	return ps
}

// run iterates the reductions to a fixpoint (or a generous pass cap).
func (ps *presolver) run() error {
	for pass := 0; pass < 32; pass++ {
		changed, err := ps.fixColumns()
		if err != nil {
			return err
		}
		rowChanged, err := ps.scanRows()
		if err != nil {
			return err
		}
		changed = changed || rowChanged
		changed = ps.freeColumns() || changed
		if !changed {
			return nil
		}
	}
	return nil
}

// removeRow marks row i dead and pushes its postsolve action.
func (ps *presolver) removeRow(i int, a psAction) {
	ps.rowAlive[i] = false
	ps.rowsRemoved++
	ps.stack = append(ps.stack, a)
}

// fixColumns substitutes out every live column with lo == hi, folding the
// constant contribution into the slack bounds of its live rows.
func (ps *presolver) fixColumns() (bool, error) {
	changed := false
	for j := 0; j < ps.n; j++ {
		if !ps.colAlive[j] || ps.lo[j] < ps.hi[j] {
			continue
		}
		v := ps.lo[j]
		if math.IsInf(v, 0) {
			continue // degenerate input; leave to the simplex
		}
		ri, rv := ps.p.cols.Col(j)
		for k, r := range ri {
			if !ps.rowAlive[r] {
				continue
			}
			c := rv[k] * v
			sj := ps.n + r
			ps.lo[sj] -= c
			ps.hi[sj] -= c
			ps.shift[r] += c
		}
		ps.colAlive[j] = false
		ps.colsRemoved++
		ps.stack = append(ps.stack, psAction{
			kind: psFixedCol, row: -1, col: j, val: v,
			preLo: ps.p.lo[j], preHi: ps.p.hi[j],
		})
		changed = true
	}
	return changed, nil
}

// scanRows applies the row reductions: empty, singleton, redundant and
// forcing rows.
func (ps *presolver) scanRows() (bool, error) {
	changed := false
	for i := 0; i < ps.m; i++ {
		if !ps.rowAlive[i] {
			continue
		}
		sj := ps.n + i
		sLo, sHi := ps.lo[sj], ps.hi[sj]
		nLive := 0
		lastJ, lastV := -1, 0.0
		actLo, actHi := 0.0, 0.0 // activity range of the live entries
		for k := ps.rowPtr[i]; k < ps.rowPtr[i+1]; k++ {
			j, v := ps.rowCol[k], ps.rowVal[k]
			if !ps.colAlive[j] || v == 0 {
				continue
			}
			nLive++
			lastJ, lastV = j, v
			if v > 0 {
				actLo += v * ps.lo[j]
				actHi += v * ps.hi[j]
			} else {
				actLo += v * ps.hi[j]
				actHi += v * ps.lo[j]
			}
		}
		feasTol := ps.tol * (1 + math.Abs(ps.shift[i]))
		if nLive == 0 {
			// Only the slack remains: s' must be 0.
			if sLo > feasTol || sHi < -feasTol {
				return false, ErrInfeasible
			}
			ps.removeRow(i, psAction{kind: psEmptyRow, row: i, col: -1, shift: ps.shift[i], sLo: sLo, sHi: sHi})
			changed = true
			continue
		}
		if nLive == 1 {
			j, a := lastJ, lastV
			var xlo, xhi float64
			if a > 0 {
				xlo, xhi = sLo/a, sHi/a
			} else {
				xlo, xhi = sHi/a, sLo/a
			}
			if math.IsInf(xlo, 1) || math.IsInf(xhi, -1) {
				return false, ErrInfeasible
			}
			newLo, newHi := math.Max(ps.lo[j], xlo), math.Min(ps.hi[j], xhi)
			if newLo > newHi {
				if newLo-newHi > ps.tol*(1+math.Abs(newLo)) {
					return false, ErrInfeasible
				}
				// The intervals only just miss each other: any point in
				// between violates either side by at most tol.
				mid := (newLo + newHi) / 2
				mid = math.Min(math.Max(mid, ps.lo[j]), ps.hi[j])
				newLo, newHi = mid, mid
			}
			ps.stack = append(ps.stack, psAction{
				kind: psSingletonRow, row: i, col: j, coef: a, shift: ps.shift[i],
				preLo: ps.lo[j], preHi: ps.hi[j], sLo: sLo, sHi: sHi,
			})
			ps.lo[j], ps.hi[j] = newLo, newHi
			ps.rowAlive[i] = false
			ps.rowsRemoved++
			changed = true
			continue
		}
		// Redundant row: the live activity range fits strictly inside the
		// row bounds, so the row can never bind. Strict comparisons keep
		// the feasible set exactly unchanged; a free row (both bounds
		// infinite) is always redundant.
		if actLo >= sLo && actHi <= sHi {
			rest := make([]psEntry, 0, nLive)
			for k := ps.rowPtr[i]; k < ps.rowPtr[i+1]; k++ {
				if j, v := ps.rowCol[k], ps.rowVal[k]; ps.colAlive[j] && v != 0 {
					rest = append(rest, psEntry{j, v})
				}
			}
			ps.removeRow(i, psAction{kind: psRedundantRow, row: i, col: -1, shift: ps.shift[i], sLo: sLo, sHi: sHi, rest: rest})
			changed = true
			continue
		}
		actTol := ps.tol * (1 + math.Abs(actLo) + math.Abs(actHi))
		if actLo > sHi+actTol || actHi < sLo-actTol {
			return false, ErrInfeasible
		}
		// Forcing row: the extreme activity only just reaches a bound, so
		// every live variable is pinned at the extreme achieving it. The
		// pins become fixed columns; the emptied row is removed on the
		// next pass.
		if actHi <= sLo && !math.IsInf(actHi, 0) {
			for k := ps.rowPtr[i]; k < ps.rowPtr[i+1]; k++ {
				j, v := ps.rowCol[k], ps.rowVal[k]
				if !ps.colAlive[j] || v == 0 {
					continue
				}
				if v > 0 {
					ps.lo[j] = ps.hi[j]
				} else {
					ps.hi[j] = ps.lo[j]
				}
			}
			changed = true
		} else if actLo >= sHi && !math.IsInf(actLo, 0) {
			for k := ps.rowPtr[i]; k < ps.rowPtr[i+1]; k++ {
				j, v := ps.rowCol[k], ps.rowVal[k]
				if !ps.colAlive[j] || v == 0 {
					continue
				}
				if v > 0 {
					ps.hi[j] = ps.lo[j]
				} else {
					ps.lo[j] = ps.hi[j]
				}
			}
			changed = true
		}
	}
	return changed, nil
}

// freeColumns removes zero-cost free columns with exactly one live row:
// the column can absorb whatever activity the rest of the row produces,
// so the row constrains nothing and both disappear.
func (ps *presolver) freeColumns() bool {
	changed := false
	for j := 0; j < ps.n; j++ {
		if !ps.colAlive[j] || ps.p.obj[j] != 0 {
			continue
		}
		if !math.IsInf(ps.lo[j], -1) || !math.IsInf(ps.hi[j], 1) {
			continue
		}
		ri, rv := ps.p.cols.Col(j)
		liveRow, liveCnt := -1, 0
		var a float64
		for k, r := range ri {
			if ps.rowAlive[r] && rv[k] != 0 {
				liveRow, a = r, rv[k]
				liveCnt++
			}
		}
		if liveCnt != 1 {
			continue
		}
		var rest []psEntry
		for k := ps.rowPtr[liveRow]; k < ps.rowPtr[liveRow+1]; k++ {
			if jj, v := ps.rowCol[k], ps.rowVal[k]; jj != j && ps.colAlive[jj] && v != 0 {
				rest = append(rest, psEntry{jj, v})
			}
		}
		sj := ps.n + liveRow
		ps.colAlive[j] = false
		ps.colsRemoved++
		ps.removeRow(liveRow, psAction{
			kind: psFreeCol, row: liveRow, col: j, coef: a, shift: ps.shift[liveRow],
			sLo: ps.lo[sj], sHi: ps.hi[sj], rest: rest,
		})
		changed = true
	}
	return changed
}

// psResult is the outcome of a successful, non-trivial presolve.
type psResult struct {
	orig    *Problem
	reduced *Problem
	tol     float64

	colMap   []int // original structural column -> reduced (-1 removed)
	keptCols []int
	rowMap   []int // original row -> reduced (-1 removed)
	keptRows []int

	stack       []psAction
	rowsRemoved int
	colsRemoved int
}

// result assembles the reduced Problem and the postsolve mappings.
func (ps *presolver) result() *psResult {
	p := ps.p
	out := &psResult{
		orig: p, tol: ps.tol,
		colMap: make([]int, ps.n), rowMap: make([]int, ps.m),
		stack: ps.stack, rowsRemoved: ps.rowsRemoved, colsRemoved: ps.colsRemoved,
	}
	for j := 0; j < ps.n; j++ {
		out.colMap[j] = -1
		if ps.colAlive[j] {
			out.colMap[j] = len(out.keptCols)
			out.keptCols = append(out.keptCols, j)
		}
	}
	for i := 0; i < ps.m; i++ {
		out.rowMap[i] = -1
		if ps.rowAlive[i] {
			out.rowMap[i] = len(out.keptRows)
			out.keptRows = append(out.keptRows, i)
		}
	}
	nS, nR := len(out.keptCols), len(out.keptRows)
	total := nS + nR
	red := &Problem{
		sense: p.sense, numStruct: nS, numRows: nR,
		lo: make([]float64, total), hi: make([]float64, total), obj: make([]float64, total),
		varNames: make([]string, nS), conNames: make([]string, nR),
	}
	for rj, j := range out.keptCols {
		red.lo[rj], red.hi[rj] = ps.lo[j], ps.hi[j]
		red.obj[rj] = p.obj[j]
		red.varNames[rj] = p.varNames[j]
	}
	for ri, i := range out.keptRows {
		sj := ps.n + i
		red.lo[nS+ri], red.hi[nS+ri] = ps.lo[sj], ps.hi[sj]
		red.conNames[ri] = p.conNames[i]
	}
	tb := NewTripletBuilder(nR, total)
	for rj, j := range out.keptCols {
		ri, rv := p.cols.Col(j)
		for k, r := range ri {
			if out.rowMap[r] >= 0 && rv[k] != 0 {
				tb.Add(out.rowMap[r], rj, rv[k])
			}
		}
	}
	for ri := 0; ri < nR; ri++ {
		tb.Add(ri, nS+ri, -1)
	}
	red.cols = tb.ToCSC()
	out.reduced = red
	return out
}

// origCol maps a reduced column index back to the original column space.
func (ps *psResult) origCol(rq int) int {
	if rq < ps.reduced.numStruct {
		return ps.keptCols[rq]
	}
	return ps.orig.numStruct + ps.keptRows[rq-ps.reduced.numStruct]
}

// mapStart forward-maps an original-space warm-start basis into the
// reduced space: removed columns drop out, a kept row whose basic column
// was removed falls back to its own slack, and the result is validated
// like any other Start basis. Any inconsistency returns nil (cold start)
// — the mapping can cost speed, never correctness.
func (ps *psResult) mapStart(b *Basis) *Basis {
	p, red := ps.orig, ps.reduced
	if b == nil || b.numRows != p.numRows || b.numCols != p.numStruct+p.numRows {
		return nil
	}
	if len(b.basic) != b.numRows || len(b.status) != b.numCols {
		return nil
	}
	nRed := red.numStruct + red.numRows
	status := make([]colStatus, nRed)
	for rj, j := range ps.keptCols {
		if st := b.status[j]; st != basic {
			status[rj] = st
		} else {
			status[rj] = nonbasicLower // demoted; repaired on install if invalid
		}
	}
	for ri, i := range ps.keptRows {
		if st := b.status[p.numStruct+i]; st != basic {
			status[red.numStruct+ri] = st
		} else {
			status[red.numStruct+ri] = nonbasicLower
		}
	}
	basicArr := make([]int, red.numRows)
	used := make([]bool, nRed)
	for ri, i := range ps.keptRows {
		q := b.basic[i]
		if q < 0 || q >= b.numCols {
			return nil
		}
		var rq int
		if q < p.numStruct {
			rq = ps.colMap[q]
		} else if mr := ps.rowMap[q-p.numStruct]; mr >= 0 {
			rq = red.numStruct + mr
		} else {
			rq = -1
		}
		if rq < 0 {
			rq = red.numStruct + ri // basic column removed: slack stands in
		}
		if used[rq] {
			return nil
		}
		used[rq] = true
		basicArr[ri] = rq
		status[rq] = basic
	}
	nb := &Basis{numRows: red.numRows, numCols: nRed, basic: basicArr, status: status}
	if !nb.compatibleWith(red) {
		return nil
	}
	return nb
}

// postsolve maps the reduced solution back to the original space:
// structural values, objective, row duals and the full simplex basis.
func (ps *psResult) postsolve(rsol *Solution) *Solution {
	p, red := ps.orig, ps.reduced
	nS, nR := p.numStruct, p.numRows
	x := make([]float64, nS+nR)
	status := make([]colStatus, nS+nR)
	basicOf := make([]int, nR)
	for i := range basicOf {
		basicOf[i] = -1
	}
	y := make([]float64, nR) // internal duals (minimize convention)
	sign := 1.0
	if p.sense == Maximize {
		sign = -1
	}

	// Reduced statuses: straight from the reduced basis, or synthesized
	// from the point when the reduction left no rows (no basis exists).
	redTot := red.numStruct + red.numRows
	redStatus := make([]colStatus, redTot)
	if rb := rsol.Basis; rb != nil {
		copy(redStatus, rb.status)
		for ri, rq := range rb.basic {
			basicOf[ps.keptRows[ri]] = ps.origCol(rq)
		}
	} else {
		for rj := 0; rj < red.numStruct; rj++ {
			v := rsol.X[rj]
			switch {
			case !math.IsInf(red.lo[rj], -1) && v == red.lo[rj]:
				redStatus[rj] = nonbasicLower
			case !math.IsInf(red.hi[rj], 1) && v == red.hi[rj]:
				redStatus[rj] = nonbasicUpper
			default:
				redStatus[rj] = nonbasicFree
			}
		}
	}
	for rj, j := range ps.keptCols {
		x[j] = rsol.X[rj]
		status[j] = redStatus[rj]
	}
	for ri, i := range ps.keptRows {
		status[nS+i] = redStatus[red.numStruct+ri]
		y[i] = sign * rsol.Duals[ri]
	}

	near := func(v, b float64) bool {
		return !math.IsInf(b, 0) && math.Abs(v-b) <= ps.tol*(1+math.Abs(v))
	}
	// reducedCost of an original column under the current duals.
	reduced := func(j int) float64 {
		d := p.obj[j]
		ri, rv := p.cols.Col(j)
		for k, r := range ri {
			d -= y[r] * rv[k]
		}
		return d
	}

	// Replay the reduction stack in reverse. Each removed row regains a
	// basic column (its slack, or the variable the row was folded into)
	// and a dual consistent with the reduced optimum.
	var fixed []int // fixed columns; statuses finalized after all duals exist
	for k := len(ps.stack) - 1; k >= 0; k-- {
		a := ps.stack[k]
		switch a.kind {
		case psFixedCol:
			x[a.col] = a.val
			status[a.col] = nonbasicLower // provisional
			fixed = append(fixed, a.col)
		case psEmptyRow:
			sj := nS + a.row
			x[sj] = a.shift // s' = 0
			status[sj] = basic
			basicOf[a.row] = sj
			y[a.row] = 0
		case psRedundantRow:
			sj := nS + a.row
			act := a.shift
			for _, e := range a.rest {
				act += e.val * x[e.col]
			}
			x[sj] = act
			status[sj] = basic
			basicOf[a.row] = sj
			y[a.row] = 0
		case psSingletonRow:
			j, av := a.col, a.coef
			v := x[j]
			sj := nS + a.row
			sPrime := av * v
			x[sj] = sPrime + a.shift
			if status[j] == basic || near(v, a.preLo) || near(v, a.preHi) {
				// The variable rests where its pre-fold bounds allow (or
				// is already basic elsewhere): the restored row never
				// binds, its slack floats at the activity.
				if status[j] != basic {
					if near(v, a.preLo) {
						status[j] = nonbasicLower
					} else {
						status[j] = nonbasicUpper
					}
				}
				status[sj] = basic
				basicOf[a.row] = sj
				y[a.row] = 0
				continue
			}
			// The variable rests on a bound this row created: it becomes
			// basic in the restored row, the slack binds at the matching
			// side, and the row dual absorbs the variable's reduced cost
			// (d_j - y*a = 0 keeps the basic column priced out; the sign
			// analysis per side keeps the slack dual-feasible).
			status[j] = basic
			basicOf[a.row] = j
			if math.Abs(sPrime-a.sLo) <= math.Abs(sPrime-a.sHi) {
				status[sj] = nonbasicLower
			} else {
				status[sj] = nonbasicUpper
			}
			y[a.row] = reduced(j) / av
		case psFreeCol:
			j, av := a.col, a.coef
			sj := nS + a.row
			act := 0.0
			for _, e := range a.rest {
				act += e.val * x[e.col]
			}
			y[a.row] = 0 // the column's zero cost forces a zero dual
			if act >= a.sLo && act <= a.sHi {
				x[j] = 0
				status[j] = nonbasicFree
				x[sj] = act + a.shift
				status[sj] = basic
				basicOf[a.row] = sj
				continue
			}
			sPrime := math.Min(math.Max(act, a.sLo), a.sHi)
			x[j] = (sPrime - act) / av
			status[j] = basic
			basicOf[a.row] = j
			x[sj] = sPrime + a.shift
			if sPrime == a.sLo {
				status[sj] = nonbasicLower
			} else {
				status[sj] = nonbasicUpper
			}
		}
	}
	// Finalize fixed-column statuses now that every dual is known: a
	// column fixed in the original problem can rest on either side, so
	// pick the one its reduced cost prices out; a column pinned inside
	// wider original bounds must sit on the matching side. Columns a
	// later replay step made basic stay basic.
	for _, j := range fixed {
		if status[j] == basic {
			continue
		}
		switch {
		case p.lo[j] < p.hi[j]:
			if near(x[j], p.hi[j]) && !near(x[j], p.lo[j]) {
				status[j] = nonbasicUpper
			} else {
				status[j] = nonbasicLower
			}
		case reduced(j) >= 0:
			status[j] = nonbasicLower
		default:
			status[j] = nonbasicUpper
		}
	}

	obj := 0.0
	for j := 0; j < nS; j++ {
		obj += p.obj[j] * x[j]
	}
	obj *= sign
	duals := make([]float64, nR)
	for i := range duals {
		duals[i] = sign * y[i]
	}
	stats := rsol.Stats
	stats.PresolveRowsRemoved = ps.rowsRemoved
	stats.PresolveColsRemoved = ps.colsRemoved
	return &Solution{
		Objective:  obj,
		X:          x[:nS:nS],
		Duals:      duals,
		Iterations: rsol.Iterations,
		Stats:      stats,
		Basis:      &Basis{numRows: nR, numCols: nS + nR, basic: basicOf, status: status},
	}
}

// solvePresolved runs the presolve layer around a solve: reduce, solve
// the reduced problem (forward-mapping any warm-start basis), postsolve.
func solvePresolved(p *Problem, opts Options) (*Solution, error) {
	wallStart := time.Now()
	pr := newPresolver(p, simplexTol)
	if err := pr.run(); err != nil {
		return nil, err
	}
	inner := opts
	inner.Presolve = PresolveOff
	if pr.rowsRemoved == 0 && pr.colsRemoved == 0 {
		// Nothing reduced: solve the original problem unchanged.
		s := newSimplex(p, inner)
		return s.solve()
	}
	ps := pr.result()
	inner.Start = ps.mapStart(opts.Start)
	s := newSimplex(ps.reduced, inner)
	rsol, err := s.solve()
	if err != nil {
		return nil, err
	}
	sol := ps.postsolve(rsol)
	sol.Stats.Wall = time.Since(wallStart)
	return sol, nil
}
