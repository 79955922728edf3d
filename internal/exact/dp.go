package exact

import (
	"fmt"
	"math"
	"sort"
)

// Solve computes a provably optimal placement for the Problem.
//
// Uncapacitated (Any, Upwards, Closest — the latter two coincide): the
// bottom-up greedy of the tree-placement papers. Walking postorder, each
// node carries the slacks (remaining latency budget) of the demands in
// its subtree that no chosen replica serves yet; a replica is forced
// exactly when the tightest pending slack could not survive the edge to
// the parent. An exchange argument makes this optimal: any solution must
// serve the critical demand from inside the subtree, and a replica at the
// subtree's top serves everything such a server could.
//
// Closest with per-replica capacity: a Pareto dynamic program over
// (replica count, unserved load, tightest slack) per subtree — placing at
// a node is only allowed when the pending load fits the capacity, because
// the closest policy forces that entire load onto the new replica.
//
// Capacity under Any/Upwards is rejected; see Problem.Capacity.
func Solve(p Problem) (*Placement, error) {
	t, err := buildTree(&p)
	if err != nil {
		return nil, err
	}
	if err := supportedCapacity(&p); err != nil {
		return nil, err
	}
	var replicas []int
	if p.Capacity > 0 {
		replicas, err = closestCapDP(&p, t)
		if err != nil {
			return nil, err
		}
	} else {
		replicas = solveUncap(&p, t)
	}
	return makePlacement(&p, t, replicas)
}

// solveUncap is the greedy exchange algorithm shared by every
// uncapacitated policy. For PolicyAny it additionally tracks, per
// subtree, the distance to the nearest already-chosen replica, since
// global routing lets replicas serve across branches: a pending demand
// whose slack reaches that replica is covered for free at the meeting
// node.
func solveUncap(p *Problem, t *tree) []int {
	pend := make([][]float64, t.n) // slacks of yet-unserved demands per subtree
	upd := make([]float64, t.n)    // PolicyAny: min distance to a chosen replica in the subtree
	var chosen []int
	for _, v := range t.post {
		var sl []float64
		u := math.Inf(1)
		for _, c := range t.children[v] {
			for _, s := range pend[c] {
				sl = append(sl, s-p.EdgeLat[c])
			}
			pend[c] = nil
			if uc := upd[c] + p.EdgeLat[c]; uc < u {
				u = uc
			}
		}
		if p.Demand[v] > 0 {
			sl = append(sl, p.bound(v))
		}
		if p.Policy == PolicyAny && len(sl) > 0 && !math.IsInf(u, 1) {
			kept := sl[:0]
			for _, s := range sl {
				if s < u { // out of the nearest replica's reach: still pending
					kept = append(kept, s)
				}
			}
			sl = kept
		}
		if v == t.root {
			// The origin copy serves every pending demand: the invariant
			// keeps slacks non-negative, i.e. within each demand's bound.
			sl = nil
		} else if len(sl) > 0 {
			mn := sl[0]
			for _, s := range sl[1:] {
				if s < mn {
					mn = s
				}
			}
			if mn < p.EdgeLat[v] {
				// The critical demand cannot be served from outside the
				// subtree; place here, serving everything pending (all
				// slacks are >= 0, so v is within every pending bound).
				chosen = append(chosen, v)
				sl = nil
				u = 0
			}
		}
		pend[v] = sl
		upd[v] = u
	}
	return chosen
}

// capState is one Pareto point of the capacitated-closest DP: cnt
// replicas placed in the subtree, load units of demand not yet served
// (flowing up to the first replica above), and the tightest remaining
// slack among them (+Inf when load is 0). prev/mergeB record provenance
// for witness reconstruction.
type capState struct {
	cnt   int
	load  float64
	slack float64

	placed    bool
	prev      *capState // pre-decision (merged) state; nil on base states
	mergeA    *capState // earlier accumulator state of a merge
	mergeB    *capState // merged child's final state
	childNode int       // node of mergeB
}

func closestCapDP(p *Problem, t *tree) ([]int, error) {
	final := make([][]*capState, t.n)
	for _, v := range t.post {
		base := &capState{load: p.Demand[v], slack: math.Inf(1)}
		if p.Demand[v] > 0 {
			base.slack = p.bound(v)
		}
		acc := []*capState{base}
		for _, c := range t.children[v] {
			var next []*capState
			for _, a := range acc {
				for _, b := range final[c] {
					s2 := b.slack - p.EdgeLat[c]
					if s2 < 0 {
						// A pending demand below ran out of budget before
						// reaching v: this branch is infeasible.
						continue
					}
					sl := a.slack
					if s2 < sl {
						sl = s2
					}
					next = append(next, &capState{
						cnt: a.cnt + b.cnt, load: a.load + b.load, slack: sl,
						mergeA: a, mergeB: b, childNode: c,
					})
				}
			}
			acc = pruneCap(next)
			final[c] = nil
		}
		var out []*capState
		for _, a := range acc {
			out = append(out, &capState{cnt: a.cnt, load: a.load, slack: a.slack, prev: a})
			if v != t.root && a.load <= p.Capacity {
				// Placing at v forces the whole pending load onto the new
				// replica (closest semantics), so it must fit.
				out = append(out, &capState{cnt: a.cnt + 1, slack: math.Inf(1), placed: true, prev: a})
			}
		}
		final[v] = pruneCap(out)
	}
	roots := final[t.root]
	if len(roots) == 0 {
		return nil, ErrInfeasible
	}
	best := roots[0]
	for _, s := range roots[1:] {
		if s.cnt < best.cnt {
			best = s
		}
	}
	var replicas []int
	var mark func(v int, s *capState)
	mark = func(v int, s *capState) {
		if s.placed {
			replicas = append(replicas, v)
		}
		for m := s.prev; m != nil; m = m.mergeA {
			if m.mergeB != nil {
				mark(m.childNode, m.mergeB)
			}
		}
	}
	mark(t.root, best)
	return replicas, nil
}

// pruneCap keeps the Pareto frontier of (cnt min, load min, slack max),
// deterministically: states sort by that key, and a state survives only
// if no earlier survivor dominates it.
func pruneCap(states []*capState) []*capState {
	sort.Slice(states, func(i, j int) bool {
		a, b := states[i], states[j]
		if a.cnt != b.cnt {
			return a.cnt < b.cnt
		}
		if a.load != b.load {
			return a.load < b.load
		}
		return a.slack > b.slack
	})
	out := states[:0]
	for _, s := range states {
		dominated := false
		for _, o := range out {
			if o.cnt <= s.cnt && o.load <= s.load && o.slack >= s.slack {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, s)
		}
	}
	return out
}

// makePlacement turns a chosen replica set into a Placement with a
// serving witness, verifying the assignment honors the policy, the
// bounds and the capacity — a defensive check on the solver itself.
func makePlacement(p *Problem, t *tree, replicas []int) (*Placement, error) {
	sort.Ints(replicas)
	pl := &Placement{
		Replicas: replicas,
		Cost:     p.costPer() * float64(len(replicas)),
		Server:   make([]int, t.n),
	}
	if err := assignServers(p, t, pl); err != nil {
		return nil, fmt.Errorf("exact: internal: optimal placement fails its own witness check: %w", err)
	}
	return pl, nil
}

// assignServers fills pl.Server with the policy's serving node per demand
// and errors if any demand is out of bound or a replica over capacity.
// The assignment rule is deterministic: nearest (ties to the lowest
// index) under PolicyAny, the deepest on-path replica otherwise — which
// is also the nearest on-path one, since path distances grow toward the
// root.
func assignServers(p *Problem, t *tree, pl *Placement) error {
	inSet := make([]bool, t.n)
	for _, r := range pl.Replicas {
		if r < 0 || r >= t.n {
			return fmt.Errorf("replica %d out of range", r)
		}
		if r == t.root {
			return fmt.Errorf("the root cannot be a replica site")
		}
		inSet[r] = true
	}
	inSet[t.root] = true // the origin copy
	load := make([]float64, t.n)
	for v := 0; v < t.n; v++ {
		pl.Server[v] = -1
		if p.Demand[v] == 0 {
			continue
		}
		srv := -1
		if p.Policy == PolicyAny {
			best := math.Inf(1)
			for c := 0; c < t.n; c++ {
				if inSet[c] && t.dist[v][c] < best {
					best, srv = t.dist[v][c], c
				}
			}
		} else {
			for u := v; u >= 0; u = t.parent[u] {
				if inSet[u] {
					srv = u
					break
				}
			}
		}
		if srv < 0 || t.dist[v][srv] > p.bound(v) {
			return fmt.Errorf("demand at node %d has no server within its bound %g", v, p.bound(v))
		}
		pl.Server[v] = srv
		load[srv] += p.Demand[v]
	}
	if p.Capacity > 0 {
		for r := 0; r < t.n; r++ {
			if r != t.root && inSet[r] && load[r] > p.Capacity {
				return fmt.Errorf("replica at node %d carries load %g above capacity %g", r, load[r], p.Capacity)
			}
		}
	}
	return nil
}
