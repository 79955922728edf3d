// Package exact solves single-object replica placement on tree networks
// to provable optimality, following the subtree-aggregation algorithms of
// the tree-placement literature (Benoit–Rehn–Robert, "Strategies for
// Replica Placement in Tree Networks"; Rehn-Sonigo, "Optimal Replica
// Placement in Tree Networks with QoS and Bandwidth Constraints").
//
// The repo's LP bound + rounding certificate is self-consistent but has
// no external ground truth. On trees one exists: MC-PERF instances with a
// tree topology, a single evaluation interval and a Tqos=1 goal decompose
// into independent minimum distance-bounded cover problems per object,
// each solvable exactly in linear time by a bottom-up greedy exchange
// argument. SolveInstance bridges whole MC-PERF instances onto Solve, so
// the stack can assert
//
//	LP lower bound <= exact optimum <= rounded certificate cost
//
// on every tree scenario — an end-to-end optimality oracle, not just a
// consistency check. BruteForce is the oracle's oracle: subset
// enumeration for small instances, used by the differential, property and
// fuzz tests to pin the DP itself down.
package exact

import (
	"errors"
	"fmt"
	"math"
)

// Policy selects the allocation discipline of the tree-placement
// literature.
type Policy int

// Allocation policies.
const (
	// PolicyAny lets any replica within the latency bound serve a client —
	// MC-PERF's global routing, the "Multiple" flavor of the tree papers.
	PolicyAny Policy = iota
	// PolicyUpwards restricts a client to replicas on its path to the
	// root (plus the root's own permanent copy).
	PolicyUpwards
	// PolicyClosest serves every client from the deepest replica on its
	// path to the root; with per-replica capacities the whole load of a
	// subtree is forced onto that replica. Uncapacitated, Closest and
	// Upwards have identical optimal costs (the deepest in-bound ancestor
	// is also the nearest).
	PolicyClosest
)

func (p Policy) String() string {
	switch p {
	case PolicyAny:
		return "any"
	case PolicyUpwards:
		return "upwards"
	case PolicyClosest:
		return "closest"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Problem is one single-object replica placement question on a tree. The
// root models the MC-PERF origin: it permanently holds the object, serves
// any client within the latency bound for free, and is never a placement
// candidate.
type Problem struct {
	// Parent encodes the rooted tree: Parent[v] is v's parent, -1 for
	// exactly one root.
	Parent []int
	// EdgeLat[v] is the latency of the edge v->Parent[v] in ms (ignored
	// at the root). Must be finite and non-negative.
	EdgeLat []float64
	// Demand[v] is the request load originating at node v; 0 means no
	// demand. Only feasibility cares about the magnitude (per-replica
	// capacity); coverage is per-node.
	Demand []float64
	// Bound is the QoS latency bound in ms: every demand node's requests
	// must reach a serving replica within it.
	Bound float64
	// QoS optionally overrides Bound per node (nil = uniform Bound), the
	// per-client QoS of Rehn-Sonigo.
	QoS []float64
	// Capacity caps the demand one replica may serve (0 = uncapacitated;
	// the root's origin copy is never capacitated). Only PolicyClosest
	// supports a capacity: there the policy forces the assignment, so
	// feasibility stays polynomial. Under Upwards (and Any) the server
	// choice turns feasibility itself into a packing problem —
	// Benoit–Rehn–Robert prove Upwards+capacity NP-complete — so those
	// combinations are rejected rather than approximated.
	Capacity float64
	// CostPerReplica is the cost of placing one replica (0 = 1).
	CostPerReplica float64
	// Policy is the allocation discipline.
	Policy Policy
}

// Placement is an optimal solution together with its witness.
type Placement struct {
	// Replicas are the chosen nodes in ascending order; the root never
	// appears (its copy is free).
	Replicas []int
	// Cost is CostPerReplica * len(Replicas).
	Cost float64
	// Server[v] is the node serving v's demand (-1 when Demand[v] == 0).
	// The root appears where the origin copy serves.
	Server []int
}

// ErrInfeasible is returned when no placement can serve every demand —
// only possible with capacities (an uncapacitated demand node can always
// host its own replica).
var ErrInfeasible = errors.New("exact: no feasible placement")

// costPer resolves the per-replica cost default.
func (p *Problem) costPer() float64 {
	if p.CostPerReplica == 0 {
		return 1
	}
	return p.CostPerReplica
}

// bound returns node v's effective latency bound.
func (p *Problem) bound(v int) float64 {
	if p.QoS != nil {
		return p.QoS[v]
	}
	return p.Bound
}

// tree is the validated, preprocessed form of a Problem's topology.
type tree struct {
	n        int
	root     int
	parent   []int
	children [][]int
	post     []int       // postorder; children precede parents
	dist     [][]float64 // all-pairs tree distances
}

// buildTree validates the Problem and precomputes traversal order and
// distances.
func buildTree(p *Problem) (*tree, error) {
	n := len(p.Parent)
	if n == 0 {
		return nil, errors.New("exact: empty problem")
	}
	if len(p.EdgeLat) != n || len(p.Demand) != n {
		return nil, fmt.Errorf("exact: Parent/EdgeLat/Demand lengths %d/%d/%d disagree", n, len(p.EdgeLat), len(p.Demand))
	}
	if p.QoS != nil && len(p.QoS) != n {
		return nil, fmt.Errorf("exact: QoS covers %d nodes, problem has %d", len(p.QoS), n)
	}
	t := &tree{n: n, root: -1, parent: p.Parent, children: make([][]int, n)}
	for v := 0; v < n; v++ {
		pa := p.Parent[v]
		switch {
		case pa == -1:
			if t.root >= 0 {
				return nil, fmt.Errorf("exact: nodes %d and %d both claim to be the root", t.root, v)
			}
			t.root = v
		case pa < 0 || pa >= n:
			return nil, fmt.Errorf("exact: parent of node %d is %d, out of range", v, pa)
		case pa == v:
			return nil, fmt.Errorf("exact: node %d is its own parent", v)
		default:
			t.children[pa] = append(t.children[pa], v)
			if el := p.EdgeLat[v]; el < 0 || math.IsNaN(el) || math.IsInf(el, 0) {
				return nil, fmt.Errorf("exact: edge latency %v at node %d must be finite and non-negative", el, v)
			}
		}
		if d := p.Demand[v]; d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("exact: demand %v at node %d must be finite and non-negative", d, v)
		}
		if b := p.bound(v); b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("exact: latency bound %v at node %d must be finite and non-negative", b, v)
		}
	}
	if t.root < 0 {
		return nil, errors.New("exact: no root (no node with parent -1)")
	}
	if p.Capacity < 0 || math.IsNaN(p.Capacity) || math.IsInf(p.Capacity, 0) {
		return nil, fmt.Errorf("exact: capacity %v must be finite and non-negative", p.Capacity)
	}
	if p.CostPerReplica < 0 || math.IsNaN(p.CostPerReplica) || math.IsInf(p.CostPerReplica, 0) {
		return nil, fmt.Errorf("exact: cost per replica %v must be finite and non-negative", p.CostPerReplica)
	}
	// Iterative DFS from the root gives preorder; reversing it is a valid
	// postorder (children before parents) and detects cycles/unreachable
	// nodes by count.
	pre := make([]int, 0, n)
	stack := []int{t.root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pre = append(pre, v)
		stack = append(stack, t.children[v]...)
	}
	if len(pre) != n {
		return nil, fmt.Errorf("exact: parent pointers contain a cycle (%d of %d nodes reachable from the root)", len(pre), n)
	}
	t.post = make([]int, n)
	for i, v := range pre {
		t.post[n-1-i] = v
	}
	// All-pairs tree distances by BFS per source over the adjacency.
	t.dist = make([][]float64, n)
	for s := 0; s < n; s++ {
		d := make([]float64, n)
		for i := range d {
			d[i] = math.Inf(1)
		}
		d[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			step := func(w int, lat float64) {
				if math.IsInf(d[w], 1) {
					d[w] = d[v] + lat
					queue = append(queue, w)
				}
			}
			if pa := t.parent[v]; pa >= 0 {
				step(pa, p.EdgeLat[v])
			}
			for _, c := range t.children[v] {
				step(c, p.EdgeLat[c])
			}
		}
		t.dist[s] = d
	}
	return t, nil
}

// supportedCapacity rejects the policy/capacity combinations the solver
// (and the brute-force oracle) do not model; see Problem.Capacity.
func supportedCapacity(p *Problem) error {
	if p.Capacity > 0 && p.Policy != PolicyClosest {
		return fmt.Errorf("exact: per-replica capacity under the %s policy is not supported (server choice makes feasibility a packing problem; NP-complete for upwards per Benoit–Rehn–Robert)", p.Policy)
	}
	return nil
}
