package lp

import (
	"errors"
	"fmt"
	"math"
)

// Inf is the bound value used to express an absent (infinite) bound.
var Inf = math.Inf(1)

// Sense selects the optimization direction of a Model.
type Sense int

// Optimization directions.
const (
	Minimize Sense = iota + 1
	Maximize
)

var (
	// ErrInfeasible is returned when no feasible point exists.
	ErrInfeasible = errors.New("lp: problem is infeasible")
	// ErrUnbounded is returned when the objective is unbounded.
	ErrUnbounded = errors.New("lp: problem is unbounded")
	// ErrIterLimit is returned when the simplex hits its iteration cap.
	ErrIterLimit = errors.New("lp: iteration limit reached")
	// ErrNumerical is returned when the factorization becomes unusable.
	ErrNumerical = errors.New("lp: numerical failure")
	// ErrTimeout is returned when a solve exceeds Options.Timeout.
	ErrTimeout = errors.New("lp: solve wall-clock timeout")
)

// Coef is a single (variable, coefficient) entry of a constraint row.
type Coef struct {
	Var   int
	Value float64
}

// variable holds the builder-side description of one decision variable.
type variable struct {
	name string
	lo   float64
	hi   float64
	obj  float64
}

// constraint holds the builder-side description of one range constraint.
type constraint struct {
	name  string
	coefs []Coef
	lo    float64
	hi    float64
}

// Model accumulates variables and constraints and compiles them into a
// Problem that the simplex solver consumes. The zero value is not usable;
// construct models with NewModel.
type Model struct {
	sense Sense
	vars  []variable
	cons  []constraint
}

// NewModel returns an empty model with the given optimization sense.
func NewModel(sense Sense) *Model {
	return &Model{sense: sense}
}

// NumVars reports the number of variables added so far.
func (m *Model) NumVars() int { return len(m.vars) }

// AddVar adds a variable with bounds [lo, hi] and objective coefficient obj,
// returning its index. Use -Inf/Inf for free sides.
func (m *Model) AddVar(lo, hi, obj float64, name string) int {
	m.vars = append(m.vars, variable{name: name, lo: lo, hi: hi, obj: obj})
	return len(m.vars) - 1
}

// SetObj overwrites the objective coefficient of variable v.
func (m *Model) SetObj(v int, obj float64) { m.vars[v].obj = obj }

// AddRange adds the constraint lo <= sum(coefs) <= hi and returns its index.
// The coefficient slice is copied.
func (m *Model) AddRange(coefs []Coef, lo, hi float64, name string) int {
	cp := make([]Coef, len(coefs))
	copy(cp, coefs)
	m.cons = append(m.cons, constraint{name: name, coefs: cp, lo: lo, hi: hi})
	return len(m.cons) - 1
}

// AddLE adds sum(coefs) <= rhs.
func (m *Model) AddLE(coefs []Coef, rhs float64, name string) int {
	return m.AddRange(coefs, math.Inf(-1), rhs, name)
}

// AddGE adds sum(coefs) >= rhs.
func (m *Model) AddGE(coefs []Coef, rhs float64, name string) int {
	return m.AddRange(coefs, rhs, Inf, name)
}

// AddEQ adds sum(coefs) == rhs.
func (m *Model) AddEQ(coefs []Coef, rhs float64, name string) int {
	return m.AddRange(coefs, rhs, rhs, name)
}

// Problem is the compiled, solver-ready form of a Model.
//
// The internal standard form appends one slack variable per row so that the
// constraint system becomes A*x - s = 0 with s ranging over the original
// [lo, hi] of each row. Columns 0..numStruct-1 are the structural variables
// in insertion order; columns numStruct..numStruct+numRows-1 are slacks.
type Problem struct {
	sense     Sense
	numStruct int
	numRows   int

	// Column-compressed structural+slack matrix.
	cols *CSC

	// Per-column bounds and objective (slacks have zero objective).
	lo  []float64
	hi  []float64
	obj []float64

	varNames []string
	conNames []string
}

// Compile validates the model and produces a Problem.
func (m *Model) Compile() (*Problem, error) {
	if m.sense != Minimize && m.sense != Maximize {
		return nil, errors.New("lp: model has no optimization sense")
	}
	n := len(m.vars)
	r := len(m.cons)
	total := n + r
	p := &Problem{
		sense:     m.sense,
		numStruct: n,
		numRows:   r,
		lo:        make([]float64, total),
		hi:        make([]float64, total),
		obj:       make([]float64, total),
		varNames:  make([]string, n),
		conNames:  make([]string, r),
	}
	for j, v := range m.vars {
		if v.lo > v.hi {
			return nil, fmt.Errorf("lp: variable %d (%s): lower bound %g > upper bound %g", j, v.name, v.lo, v.hi)
		}
		p.lo[j], p.hi[j] = v.lo, v.hi
		sign := 1.0
		if m.sense == Maximize {
			sign = -1.0
		}
		p.obj[j] = sign * v.obj
		p.varNames[j] = v.name
	}

	tb := NewTripletBuilder(r, total)
	for i, c := range m.cons {
		if c.lo > c.hi {
			return nil, fmt.Errorf("lp: constraint %d (%s): lower bound %g > upper bound %g", i, c.name, c.lo, c.hi)
		}
		p.conNames[i] = c.name
		seen := make(map[int]bool, len(c.coefs))
		for _, cf := range c.coefs {
			if cf.Var < 0 || cf.Var >= n {
				return nil, fmt.Errorf("lp: constraint %d (%s): variable index %d out of range", i, c.name, cf.Var)
			}
			if seen[cf.Var] {
				return nil, fmt.Errorf("lp: constraint %d (%s): duplicate variable %d", i, c.name, cf.Var)
			}
			seen[cf.Var] = true
			if cf.Value != 0 {
				tb.Add(i, cf.Var, cf.Value)
			}
		}
		// Slack column: A*x - s = 0, s in [lo, hi].
		tb.Add(i, n+i, -1)
		p.lo[n+i], p.hi[n+i] = c.lo, c.hi
	}
	p.cols = tb.ToCSC()
	return p, nil
}

// SetRowBounds replaces the bounds of constraint row i with [lo, hi] and
// leaves the matrix untouched. In the internal standard form a row's
// bounds live on its slack column, so rebinding is a two-float write: the
// compiled matrix, variable order and every prior Solution stay valid,
// which is what lets parameter sweeps compile one Problem and move only
// the right-hand sides between solves. The Problem must not be solved
// concurrently with a SetRowBounds call.
func (p *Problem) SetRowBounds(i int, lo, hi float64) error {
	if i < 0 || i >= p.numRows {
		return fmt.Errorf("lp: SetRowBounds row %d out of range [0, %d)", i, p.numRows)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		return fmt.Errorf("lp: SetRowBounds row %d: invalid bounds [%g, %g]", i, lo, hi)
	}
	p.lo[p.numStruct+i], p.hi[p.numStruct+i] = lo, hi
	return nil
}

// SetCoef overwrites the matrix entry of constraint row i and structural
// column j in place. The entry must already exist in the compiled sparsity
// pattern: Compile drops exact zeros, so a model that wants an entry to be
// rebindable later must compile it with any nonzero placeholder value.
// Writing an exact zero afterwards is allowed — the entry keeps its slot
// (so it can be rewritten again) and both the simplex and the presolve
// layer treat zero-valued entries as absent. Like SetRowBounds, this must
// not race with a Solve of the same Problem.
func (p *Problem) SetCoef(i, j int, v float64) error {
	if i < 0 || i >= p.numRows {
		return fmt.Errorf("lp: SetCoef row %d out of range [0, %d)", i, p.numRows)
	}
	if j < 0 || j >= p.numStruct {
		return fmt.Errorf("lp: SetCoef column %d out of range [0, %d)", j, p.numStruct)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("lp: SetCoef (%d, %d): value %g is not finite", i, j, v)
	}
	ri, rv := p.cols.Col(j)
	// Columns are sorted by row index (TripletBuilder.ToCSC), so the slot
	// is found by binary search.
	lo, hi := 0, len(ri)
	for lo < hi {
		mid := (lo + hi) / 2
		if ri[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(ri) || ri[lo] != i {
		return fmt.Errorf("lp: SetCoef (%d, %d): entry not in the compiled sparsity pattern", i, j)
	}
	rv[lo] = v
	return nil
}

// SetObjCoef overwrites the objective coefficient of structural column j,
// stated in the model's original optimization sense.
func (p *Problem) SetObjCoef(j int, v float64) error {
	if j < 0 || j >= p.numStruct {
		return fmt.Errorf("lp: SetObjCoef column %d out of range [0, %d)", j, p.numStruct)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("lp: SetObjCoef column %d: value %g is not finite", j, v)
	}
	if p.sense == Maximize {
		v = -v
	}
	p.obj[j] = v
	return nil
}

// Solution holds the result of a successful solve.
type Solution struct {
	// Objective is the optimal objective in the user's original sense.
	Objective float64
	// X holds the values of the structural variables.
	X []float64
	// Duals holds one dual multiplier per constraint row (sign convention:
	// for a Minimize model, Duals[i] is the rate of change of the optimal
	// objective per unit increase of the row's bounds).
	Duals []float64
	// Iterations is the total simplex iteration count across both phases
	// (mirrors Stats.Iterations; kept for convenience).
	Iterations int
	// Stats carries the full solver-effort breakdown for this solve.
	Stats Stats
	// Basis is the final simplex basis, reusable through Options.Start to
	// warm-start a later solve of a same-shaped problem (nil for the
	// unconstrained zero-row case, which has no basis).
	Basis *Basis
}
