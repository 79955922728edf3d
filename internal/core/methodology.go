package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// This file implements the two ways the paper applies its bounds: choosing
// a heuristic for an existing infrastructure (Sec. 6.1) and deciding where
// to deploy nodes before choosing the heuristic (Sec. 6.2).

// ClassBound pairs a class with its bound (or the reason none exists).
type ClassBound struct {
	Class *Class
	Bound *Bound
	Err   error
}

// Feasible reports whether the class can meet the goal.
func (cb *ClassBound) Feasible() bool { return cb.Err == nil && cb.Bound != nil }

// Selection is the outcome of the Sec. 6.1 methodology.
type Selection struct {
	// General is the bound no algorithm whatsoever can beat.
	General *Bound
	// Ranked lists all candidate classes by ascending bound; infeasible
	// classes sort last.
	Ranked []ClassBound
	// Best is the cheapest feasible class.
	Best *ClassBound
}

// CloseToGeneral reports whether the best class's bound is within factor
// rel of the general bound, meaning no other class of heuristics could be
// significantly better (the paper's acceptance criterion).
func (s *Selection) CloseToGeneral(rel float64) bool {
	if s.Best == nil || !s.Best.Feasible() {
		return false
	}
	if s.General.LPBound <= 0 {
		return s.Best.Bound.LPBound <= 0
	}
	return s.Best.Bound.LPBound <= s.General.LPBound*(1+rel)
}

// CompareClasses computes bounds for every class. Classes that cannot meet
// the goal are retained with their error instead of aborting the sweep.
func (in *Instance) CompareClasses(classes []*Class, opts BoundOptions) ([]ClassBound, error) {
	out := make([]ClassBound, 0, len(classes))
	for _, class := range classes {
		b, err := in.LowerBound(class, opts)
		if err != nil && !errors.Is(err, ErrGoalUnattainable) {
			return nil, fmt.Errorf("bound for class %s: %w", class.Name, err)
		}
		out = append(out, ClassBound{Class: class, Bound: b, Err: err})
	}
	return out, nil
}

// SelectHeuristic runs the Sec. 6.1 methodology: compute the general bound
// and one bound per candidate class, rank them, and pick the cheapest
// feasible class.
func (in *Instance) SelectHeuristic(classes []*Class, opts BoundOptions) (*Selection, error) {
	gen, err := in.LowerBound(General(), opts)
	if err != nil {
		return nil, fmt.Errorf("general bound: %w", err)
	}
	ranked, err := in.CompareClasses(classes, opts)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(ranked, func(a, b int) bool {
		fa, fb := ranked[a].Feasible(), ranked[b].Feasible()
		if fa != fb {
			return fa
		}
		if !fa {
			return false
		}
		return ranked[a].Bound.LPBound < ranked[b].Bound.LPBound
	})
	sel := &Selection{General: gen, Ranked: ranked}
	if len(ranked) > 0 && ranked[0].Feasible() {
		sel.Best = &ranked[0]
	}
	return sel, nil
}

// Deployment is the outcome of the Sec. 6.2 two-phase methodology.
type Deployment struct {
	// OpenNodes are the original-topology sites where nodes are deployed
	// (always includes the origin).
	OpenNodes []int
	// Assignment maps every original site to the open site serving its
	// users.
	Assignment []int
	// Phase1 is the bound of the opening-cost LP (its cost includes
	// Zeta * fractional open mass).
	Phase1 *Bound
	// Instance is the phase-2 instance over the reduced topology with the
	// workload reassigned; run SelectHeuristic or CompareClasses on it.
	Instance *Instance
	// Topology is the reduced topology (indices renumbered to open order).
	Topology *topology.Topology
	// Trace is the reassigned workload trace.
	Trace *workload.Trace
}

// PlanDeployment runs phase 1 of the Sec. 6.2 methodology: solve MC-PERF
// with node-opening cost zeta for the phase-1 class (the paper uses the
// reactive class here), pick the sites to open from the fractional open
// variables, and build the reduced phase-2 instance.
//
// Site selection rounds the LP's open values greedily: sites are added in
// decreasing fractional-openness order until every site's users can
// attain the QoS goal on the reduced system, with the origin always open.
func PlanDeployment(topo *topology.Topology, trace *workload.Trace, delta time.Duration,
	cost Cost, goal Goal, zeta float64, phase1Class *Class, opts BoundOptions) (*Deployment, error) {
	if zeta <= 0 {
		return nil, errors.New("core: deployment needs a positive opening cost")
	}
	counts, err := trace.Bucket(delta)
	if err != nil {
		return nil, err
	}
	p1cost := cost
	p1cost.Zeta = zeta
	p1inst, err := NewInstance(topo, counts, p1cost, goal)
	if err != nil {
		return nil, err
	}
	if phase1Class == nil {
		phase1Class = Reactive()
	}
	p1opts := opts
	p1opts.SkipRounding = true
	p1bound, err := p1inst.LowerBound(phase1Class, p1opts)
	if err != nil {
		return nil, fmt.Errorf("phase 1: %w", err)
	}
	if p1bound.Open == nil {
		return nil, errors.New("core: phase 1 produced no open variables")
	}

	// Rank candidate sites by fractional openness.
	type cand struct {
		node int
		v    float64
	}
	cands := make([]cand, 0, topo.N)
	mass := 0.0
	for n := 0; n < topo.N; n++ {
		if n == topo.Origin {
			continue
		}
		cands = append(cands, cand{node: n, v: p1bound.Open[n]})
		mass += p1bound.Open[n]
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].v > cands[b].v })

	// Size the deployment by the LP's total open mass, not by per-site
	// fractions: which sites carry the fractions is an artifact of the
	// optimal vertex the solver lands on (degenerate optima abound), but
	// the mass itself is monotone in the opening cost — a higher zeta can
	// never justify more open capacity. The top-ranked candidates then
	// fill that budget.
	k := int(math.Ceil(mass - 1e-6))
	if k < 0 {
		k = 0
	}
	if k > len(cands) {
		k = len(cands)
	}
	open := []int{topo.Origin}
	for _, c := range cands[:k] {
		open = append(open, c.node)
	}
	sort.Ints(open)

	// Grow the open set until the goal is attainable on the reduced
	// system (it may not be if the LP covered some demand fractionally).
	for {
		dep, err := buildReduced(topo, trace, delta, cost, goal, open)
		if err == nil {
			if attErr := dep.Instance.Attainable(phase1Class); attErr == nil {
				dep.Phase1 = p1bound
				return dep, nil
			}
		}
		// Add the next-best unopened site.
		added := false
		for _, c := range cands {
			inOpen := false
			for _, o := range open {
				if o == c.node {
					inOpen = true
					break
				}
			}
			if !inOpen {
				open = append(open, c.node)
				sort.Ints(open)
				added = true
				break
			}
		}
		if !added {
			return nil, fmt.Errorf("%w: goal unattainable even with every site open", ErrGoalUnattainable)
		}
	}
}

// buildReduced constructs the phase-2 reduced instance.
func buildReduced(topo *topology.Topology, trace *workload.Trace, delta time.Duration,
	cost Cost, goal Goal, open []int) (*Deployment, error) {
	sub, assign, err := topo.Restrict(open)
	if err != nil {
		return nil, err
	}
	subTrace, err := trace.Reassign(assign, open)
	if err != nil {
		return nil, err
	}
	subCounts, err := subTrace.Bucket(delta)
	if err != nil {
		return nil, err
	}
	inst, err := NewInstance(sub, subCounts, cost, goal)
	if err != nil {
		return nil, err
	}
	return &Deployment{
		OpenNodes:  append([]int(nil), open...),
		Assignment: assign,
		Instance:   inst,
		Topology:   sub,
		Trace:      subTrace,
	}, nil
}

// Attainable reports (as an error when not) whether the QoS goal can be met
// under the class with unlimited storage: it checks, per node, the read
// share that is coverable at all given reachability and the class's
// creation windows.
func (in *Instance) Attainable(class *Class) error {
	if in.Goal.Kind != QoSGoal {
		return nil
	}
	nN, nI, nK := in.Dims()
	reach := in.Reach(class)
	// firstAllowed[m][k]: earliest interval where m may create k.
	firstAllowed := in.firstAllowed(class)
	var totCov, totAll float64
	for u := 0; u < nN; u++ {
		var covered, total float64
		orig := in.originReachable(class, u)
		for i := 0; i < nI; i++ {
			for k := 0; k < nK; k++ {
				rd := float64(in.Counts.Reads[u][i][k])
				if rd == 0 {
					continue
				}
				total += rd
				if orig {
					covered += rd
					continue
				}
				for _, m := range reach[u] {
					if firstAllowed[m][k] <= i {
						covered += rd
						break
					}
				}
			}
		}
		totCov += covered
		totAll += total
		if in.Goal.Scope == PerUser && total > 0 && covered < in.Goal.Tqos*total {
			return fmt.Errorf("%w: node %d attains at most %.5f", ErrGoalUnattainable, u, covered/total)
		}
	}
	if in.Goal.Scope == Overall && totAll > 0 && totCov < in.Goal.Tqos*totAll {
		return fmt.Errorf("%w: system attains at most %.5f", ErrGoalUnattainable, totCov/totAll)
	}
	return nil
}
