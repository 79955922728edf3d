package core

import (
	"errors"
	"fmt"
	"math"

	"wideplace/internal/lp"
)

// This file implements a Lagrangian-decomposition bound engine for the QoS
// metric. The exact engine (bounds.go) solves one large LP; at the paper's
// full scale (|N||I||K| in the hundreds of thousands) that is the
// 12-hours-of-CPLEX regime. Relaxing the constraints that couple objects —
// the per-node QoS rows (2) and, for SC/RC classes, the shared capacity
// rows (16)/(17) — decomposes MC-PERF into one small LP per object.
// For any non-negative multipliers the Lagrangian value is a valid lower
// bound on the class cost, and maximizing it by projected subgradient
// converges toward the LP bound (equality at the dual optimum, by LP
// duality). The engine therefore trades tightness for memory and time: it
// never exceeds the LP bound, and reaches a configurable fraction of it.

// LagrangianOptions configures LagrangianBound.
type LagrangianOptions struct {
	// MaxIters caps subgradient iterations (0 = 300).
	MaxIters int
	// LP configures the per-object subproblem solver.
	LP lp.Options
}

func (o LagrangianOptions) withDefaults() LagrangianOptions {
	if o.MaxIters == 0 {
		o.MaxIters = 300
	}
	return o
}

// LagrangianBound computes a lower bound for the class by Lagrangian
// decomposition. The result's LPBound field holds the best Lagrangian
// value found (a valid class lower bound, at most the exact LP bound).
func (in *Instance) LagrangianBound(class *Class, opts LagrangianOptions) (*Bound, error) {
	if in.Goal.Kind != QoSGoal {
		return nil, errors.New("core: Lagrangian engine supports the QoS goal metric")
	}
	if class == nil {
		class = General()
	}
	if class.Storage == PerEntity || class.Replica == PerEntity {
		return nil, fmt.Errorf("core: Lagrangian engine does not support per-entity SC/RC (class %s)", class.Name)
	}
	if class.Storage != NoConstraint && class.Replica != NoConstraint {
		return nil, fmt.Errorf("core: class %s combines storage and replica constraints; not supported", class.Name)
	}
	opts = opts.withDefaults()
	eng, err := newLagrangian(in, class, opts)
	if err != nil {
		return nil, err
	}
	return eng.solve()
}

type lagrangian struct {
	in    *Instance
	class *Class
	opts  LagrangianOptions

	nN, nI, nK int
	origin     int
	numPlace   int

	reach    [][]int
	servedBy [][]int
	origCov  []bool
	createOK [][][]bool

	// required is the per-node coverage requirement (after origin constants).
	required []float64

	// stats aggregates solver effort across all subproblem solves.
	stats lp.Stats

	// Multipliers.
	lambda []float64   // per node, >= 0 (QoS rows)
	mu     [][]float64 // per (placement node, interval), >= 0 (SC rows)
	nu     [][]float64 // per (interval, object), >= 0 (RC rows)

	subs []*objectSub
}

// objectSub is the reusable per-object subproblem.
type objectSub struct {
	k        int
	model    *lp.Model
	storeIdx [][]int // [n][i] (origin row nil)
	covIdx   [][]int // [n][i] covered variable per user node (-1 absent)
	readW    [][]float64
}

func newLagrangian(in *Instance, class *Class, opts LagrangianOptions) (*lagrangian, error) {
	nN, nI, nK := in.Dims()
	eng := &lagrangian{
		in: in, class: class, opts: opts,
		nN: nN, nI: nI, nK: nK,
		origin:   in.Topo.Origin,
		numPlace: nN - 1,
		reach:    in.Reach(class),
		createOK: in.createAllowed(class),
		origCov:  make([]bool, nN),
		required: make([]float64, nN),
		lambda:   make([]float64, nN),
	}
	for n := 0; n < nN; n++ {
		eng.origCov[n] = in.originReachable(class, n)
	}
	eng.servedBy = make([][]int, nN)
	for u := 0; u < nN; u++ {
		for _, m := range eng.reach[u] {
			eng.servedBy[m] = append(eng.servedBy[m], u)
		}
	}
	if class.Storage == Uniform {
		eng.mu = make([][]float64, nN)
		for n := range eng.mu {
			eng.mu[n] = make([]float64, nI)
		}
	}
	if class.Replica == Uniform {
		eng.nu = make([][]float64, nI)
		for i := range eng.nu {
			eng.nu[i] = make([]float64, nK)
		}
	}
	// Per-node coverage requirements and attainability.
	for n := 0; n < nN; n++ {
		total := 0.0
		for i := 0; i < nI; i++ {
			for k := 0; k < nK; k++ {
				total += float64(in.Counts.Reads[n][i][k])
			}
		}
		if eng.origCov[n] {
			continue
		}
		req := in.Goal.Tqos * total
		eng.required[n] = req
		if len(eng.reach[n]) == 0 && req > 1e-9 {
			return nil, fmt.Errorf("%w: node %d has no serving candidates", ErrGoalUnattainable, n)
		}
	}
	if err := in.Attainable(class); err != nil {
		return nil, err
	}
	eng.subs = make([]*objectSub, nK)
	for k := 0; k < nK; k++ {
		eng.subs[k] = eng.buildObjectSub(k)
	}
	return eng, nil
}

// buildObjectSub assembles the per-object polytope P_k: store/create with
// constraints (3)-(4) and the class history bounds, plus covered variables
// with constraint (5)+(18). Objective coefficients are rewritten each
// subgradient iteration.
func (eng *lagrangian) buildObjectSub(k int) *objectSub {
	in := eng.in
	nN, nI := eng.nN, eng.nI
	m := lp.NewModel(lp.Minimize)
	sub := &objectSub{k: k, model: m}
	sub.storeIdx = make([][]int, nN)
	sub.covIdx = make([][]int, nN)
	sub.readW = make([][]float64, nN)
	for n := 0; n < nN; n++ {
		sub.covIdx[n] = make([]int, nI)
		sub.readW[n] = make([]float64, nI)
		for i := range sub.covIdx[n] {
			sub.covIdx[n][i] = -1
			sub.readW[n][i] = float64(in.Counts.Reads[n][i][k])
		}
		if n == eng.origin {
			continue
		}
		sub.storeIdx[n] = make([]int, nI)
		for i := 0; i < nI; i++ {
			sub.storeIdx[n][i] = m.AddVar(0, 1, 0, "")
		}
	}
	// Constraint (3)/(4) with create folded in: when creation is allowed
	// a create variable carries beta; otherwise store may not rise.
	for n := 0; n < nN; n++ {
		if n == eng.origin {
			continue
		}
		for i := 0; i < nI; i++ {
			coefs := []lp.Coef{{Var: sub.storeIdx[n][i], Value: 1}}
			rhs := 0.0
			if i > 0 {
				coefs = append(coefs, lp.Coef{Var: sub.storeIdx[n][i-1], Value: -1})
			} else if in.initiallyStored(n, k) {
				rhs = 1
			}
			if eng.createOK[n] == nil || eng.createOK[n][i][k] {
				cid := m.AddVar(0, 1, in.Cost.Beta, "")
				coefs = append(coefs, lp.Coef{Var: cid, Value: -1})
			}
			m.AddLE(coefs, rhs, "")
		}
	}
	// Covered variables for read-positive, non-origin-covered users.
	for u := 0; u < nN; u++ {
		if eng.origCov[u] || len(eng.reach[u]) == 0 {
			continue
		}
		for i := 0; i < nI; i++ {
			if in.Counts.Reads[u][i][k] == 0 {
				continue
			}
			cid := m.AddVar(0, 1, 0, "")
			sub.covIdx[u][i] = cid
			coefs := make([]lp.Coef, 0, len(eng.reach[u])+1)
			coefs = append(coefs, lp.Coef{Var: cid, Value: 1})
			for _, mm := range eng.reach[u] {
				coefs = append(coefs, lp.Coef{Var: sub.storeIdx[mm][i], Value: -1})
			}
			m.AddLE(coefs, 0, "")
		}
	}
	return sub
}

// solveSub re-prices and solves subproblem k, returning its optimum value
// and the store/mass data needed for subgradients.
func (eng *lagrangian) solveSub(sub *objectSub, store [][]float64) (float64, error) {
	in := eng.in
	chargeCapacity := eng.mu != nil || eng.nu != nil
	for n := 0; n < eng.nN; n++ {
		if n == eng.origin {
			continue
		}
		for i := 0; i < eng.nI; i++ {
			c := in.Cost.Alpha
			if chargeCapacity {
				c = 0
			}
			if eng.mu != nil {
				c += eng.mu[n][i]
			}
			if eng.nu != nil {
				c += eng.nu[i][sub.k]
			}
			sub.model.SetObj(sub.storeIdx[n][i], c)
		}
	}
	for u := 0; u < eng.nN; u++ {
		for i := 0; i < eng.nI; i++ {
			if id := sub.covIdx[u][i]; id >= 0 {
				sub.model.SetObj(id, -eng.lambda[u]*sub.readW[u][i])
			}
		}
	}
	sol, err := lp.SolveModel(sub.model, eng.opts.LP)
	if err != nil {
		return 0, fmt.Errorf("object %d subproblem: %w", sub.k, err)
	}
	eng.stats.Add(sol.Stats)
	for n := 0; n < eng.nN; n++ {
		if n == eng.origin {
			continue
		}
		for i := 0; i < eng.nI; i++ {
			store[n][i] = sol.X[sub.storeIdx[n][i]]
		}
	}
	return sol.Objective, nil
}

// solve runs the projected subgradient ascent.
func (eng *lagrangian) solve() (*Bound, error) {
	in := eng.in
	nN, nI, nK := eng.nN, eng.nI, eng.nK
	capObjUnit := in.Cost.Alpha * float64(eng.numPlace*nI) // C's cost (SC)
	repObjUnit := in.Cost.Alpha * float64(nK*nI)           // R's cost (RC)

	best := 0.0
	theta := 2.0 // relative step size, halved after 10 steps without progress
	stall := 0
	store := make([][]float64, nN)
	for n := range store {
		store[n] = make([]float64, nI)
	}
	// q[u]: demand covered for node u at the current subproblem optimum.
	q := make([]float64, nN)
	gLambda := make([]float64, nN)
	sumStoreNI := make([][]float64, nN)
	for n := range sumStoreNI {
		sumStoreNI[n] = make([]float64, nI)
	}
	sumStoreIK := make([][]float64, nI)
	for i := range sumStoreIK {
		sumStoreIK[i] = make([]float64, nK)
	}

	for iter := 0; iter < eng.opts.MaxIters; iter++ {
		value := 0.0
		for u := range q {
			q[u] = 0
		}
		for n := range sumStoreNI {
			for i := range sumStoreNI[n] {
				sumStoreNI[n][i] = 0
			}
		}
		for k := 0; k < nK; k++ {
			sub := eng.subs[k]
			v, err := eng.solveSub(sub, store)
			if err != nil {
				return nil, err
			}
			value += v
			// Coverage mass per user (exact min(1, mass), independent of
			// the LP's covered values, which vanish when lambda_u = 0).
			for u := 0; u < nN; u++ {
				if eng.origCov[u] || len(eng.reach[u]) == 0 {
					continue
				}
				for i := 0; i < nI; i++ {
					rd := sub.readW[u][i]
					if rd == 0 {
						continue
					}
					mass := 0.0
					for _, mm := range eng.reach[u] {
						mass += store[mm][i]
					}
					cov := math.Min(1, mass)
					q[u] += rd * cov
					// The subproblem value used covered (= min at
					// optimum when lambda > 0); when lambda_u = 0 the
					// term is zero either way.
				}
			}
			for n := 0; n < nN; n++ {
				if n == eng.origin {
					continue
				}
				for i := 0; i < nI; i++ {
					sumStoreNI[n][i] += store[n][i]
				}
			}
			if eng.nu != nil {
				for i := 0; i < nI; i++ {
					sumStoreIK[i][k] = storeSumNodes(store, eng.origin, i)
				}
			}
		}
		// Constant and closed-form terms.
		for u := 0; u < nN; u++ {
			value += eng.lambda[u] * eng.required[u]
		}
		var capStar float64
		if eng.mu != nil {
			coef := capObjUnit
			for n := range eng.mu {
				for i := range eng.mu[n] {
					coef -= eng.mu[n][i]
				}
			}
			if coef < 0 {
				capStar = float64(nK)
				value += coef * capStar
			}
		}
		var repStar float64
		if eng.nu != nil {
			coef := repObjUnit
			for i := range eng.nu {
				for k := range eng.nu[i] {
					coef -= eng.nu[i][k]
				}
			}
			if coef < 0 {
				repStar = float64(eng.numPlace)
				value += coef * repStar
			}
		}
		if value > best {
			best = value
			stall = 0
		} else {
			stall++
			if stall >= 10 {
				theta /= 2
				stall = 0
				if theta < 1e-4 {
					break
				}
			}
		}
		// Subgradients and projected step.
		norm := 0.0
		for u := 0; u < nN; u++ {
			gLambda[u] = eng.required[u] - q[u]
			norm += gLambda[u] * gLambda[u]
		}
		if eng.mu != nil {
			for n := range eng.mu {
				for i := range eng.mu[n] {
					g := sumStoreNI[n][i] - capStar
					norm += g * g
				}
			}
		}
		if eng.nu != nil {
			for i := range eng.nu {
				for k := range eng.nu[i] {
					g := sumStoreIK[i][k] - repStar
					norm += g * g
				}
			}
		}
		if norm < 1e-12 {
			break // all relaxed constraints satisfied: dual optimal
		}
		step := theta * math.Max(best, 1) / norm
		for u := 0; u < nN; u++ {
			eng.lambda[u] = math.Max(0, eng.lambda[u]+step*gLambda[u])
		}
		if eng.mu != nil {
			for n := range eng.mu {
				for i := range eng.mu[n] {
					eng.mu[n][i] = math.Max(0, eng.mu[n][i]+step*(sumStoreNI[n][i]-capStar))
				}
			}
		}
		if eng.nu != nil {
			for i := range eng.nu {
				for k := range eng.nu[i] {
					eng.nu[i][k] = math.Max(0, eng.nu[i][k]+step*(sumStoreIK[i][k]-repStar))
				}
			}
		}
	}
	return &Bound{
		Class:        eng.class.Name,
		LPBound:      best,
		LPIterations: eng.stats.Iterations,
		Stats:        eng.stats,
	}, nil
}

// storeSumNodes sums one interval's store values across placement nodes.
func storeSumNodes(store [][]float64, origin, i int) float64 {
	total := 0.0
	for n := range store {
		if n == origin {
			continue
		}
		total += store[n][i]
	}
	return total
}
