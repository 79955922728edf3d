// Package core implements the paper's contribution: the MC-PERF problem
// (minimal replication cost subject to a performance goal), heuristic
// classes expressed as extra constraints, LP-relaxation lower bounds, the
// domain-specific rounding algorithm that certifies bound tightness, and
// the two selection methodologies of Section 6.
package core

import (
	"errors"
	"fmt"

	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// Cost holds the unit costs of the MC-PERF cost function (paper Table 1).
// The paper's evaluation uses Alpha = Beta = 1 and everything else zero.
type Cost struct {
	Alpha float64 // storage cost per object per interval
	Beta  float64 // replica creation cost
	Gamma float64 // penalty per access served beyond the latency threshold
	Delta float64 // update propagation cost per write per replica
	Zeta  float64 // node enabling (opening) cost
}

// DefaultCost returns the constants used throughout the paper's evaluation.
func DefaultCost() Cost { return Cost{Alpha: 1, Beta: 1} }

// GoalKind distinguishes the two performance metrics of Section 3.1.
type GoalKind int

// Supported performance-goal metrics.
const (
	// QoSGoal requires a fraction Tqos of each user's reads to be served
	// within the latency threshold Tlat (constraint 2).
	QoSGoal GoalKind = iota + 1
	// AvgLatencyGoal requires each user's average read latency to be at
	// most Tavg (constraints 7-10).
	AvgLatencyGoal
)

// GoalScope selects whose accesses a QoS goal aggregates over.
type GoalScope int

// Supported goal scopes.
const (
	// PerUser states the goal for every node separately (the paper's
	// default in Section 6: "performance goals are specified on a per-user
	// basis over all objects").
	PerUser GoalScope = iota + 1
	// Overall states one aggregate goal over all nodes.
	Overall
)

// Goal is the performance goal of an instance.
type Goal struct {
	Kind  GoalKind
	Scope GoalScope
	// Tlat is the latency threshold in milliseconds (QoSGoal, and the
	// penalty term of the cost function).
	Tlat float64
	// Tqos is the required fraction of reads within Tlat (QoSGoal).
	Tqos float64
	// Tavg is the average latency target in milliseconds (AvgLatencyGoal).
	Tavg float64
}

// QoS returns the paper's standard goal: fraction tqos of each user's reads
// within tlat milliseconds.
func QoS(tqos, tlat float64) Goal {
	return Goal{Kind: QoSGoal, Scope: PerUser, Tqos: tqos, Tlat: tlat}
}

// AvgLatency returns an average-latency goal of tavg milliseconds per user.
// Tlat (used by the class reachability matrices) defaults to tavg.
func AvgLatency(tavg float64) Goal {
	return Goal{Kind: AvgLatencyGoal, Scope: PerUser, Tavg: tavg, Tlat: tavg}
}

// Instance is one MC-PERF problem: a system, a workload bucketed into
// evaluation intervals, unit costs and a performance goal.
//
// The origin (headquarters) node of the topology permanently stores every
// object at no cost and is not a placement candidate; replicas can be
// created on every other node.
type Instance struct {
	Topo   *topology.Topology
	Counts *workload.Counts
	Cost   Cost
	Goal   Goal
	// Initial optionally holds the placement in force before the first
	// interval: Initial[n][k] says node n already stores object k at the
	// start of the execution (paper constraint (4) "could be trivially
	// modified to account for any initial placement", and (21) makes
	// initial replicas part of the activity history, so reactive classes
	// may re-create initially-held objects in interval 0). Holding an
	// initial replica through interval 0 costs alpha as usual, but its
	// creation is sunk. Nil means the paper's default cold start.
	Initial [][]bool
}

// SetInitial installs an initial placement (dimensions: nodes x objects).
func (in *Instance) SetInitial(initial [][]bool) error {
	if initial == nil {
		in.Initial = nil
		return nil
	}
	if len(initial) != in.Counts.Nodes {
		return fmt.Errorf("core: initial placement covers %d nodes, instance has %d", len(initial), in.Counts.Nodes)
	}
	for n := range initial {
		if len(initial[n]) != in.Counts.Objects {
			return fmt.Errorf("core: initial placement row %d covers %d objects, instance has %d", n, len(initial[n]), in.Counts.Objects)
		}
	}
	in.Initial = initial
	return nil
}

// initiallyStored reports whether node n held object k before the trace
// started.
func (in *Instance) initiallyStored(n, k int) bool {
	return in.Initial != nil && in.Initial[n][k]
}

// WarmInitial returns an initial placement holding every object on every
// placement node — the "long-running system" assumption under which even
// single-interval-history reactive heuristics can serve interval 0.
func (in *Instance) WarmInitial() [][]bool {
	nN, _, nK := in.Dims()
	out := make([][]bool, nN)
	for n := range out {
		out[n] = make([]bool, nK)
		if n == in.Topo.Origin {
			continue
		}
		for k := range out[n] {
			out[n][k] = true
		}
	}
	return out
}

// NewInstance validates and assembles an instance.
func NewInstance(topo *topology.Topology, counts *workload.Counts, cost Cost, goal Goal) (*Instance, error) {
	if topo == nil || counts == nil {
		return nil, errors.New("core: instance needs a topology and counts")
	}
	if topo.N != counts.Nodes {
		return nil, fmt.Errorf("core: topology has %d nodes, counts has %d", topo.N, counts.Nodes)
	}
	switch goal.Kind {
	case QoSGoal:
		if goal.Tqos <= 0 || goal.Tqos > 1 {
			return nil, fmt.Errorf("core: Tqos = %g outside (0, 1]", goal.Tqos)
		}
		if goal.Tlat < 0 {
			return nil, errors.New("core: negative latency threshold")
		}
	case AvgLatencyGoal:
		if goal.Tavg <= 0 {
			return nil, errors.New("core: Tavg must be positive")
		}
	default:
		return nil, errors.New("core: goal kind not set")
	}
	if goal.Scope != PerUser && goal.Scope != Overall {
		return nil, errors.New("core: goal scope not set")
	}
	if cost.Alpha < 0 || cost.Beta < 0 || cost.Gamma < 0 || cost.Delta < 0 || cost.Zeta < 0 {
		return nil, errors.New("core: negative unit cost")
	}
	return &Instance{Topo: topo, Counts: counts, Cost: cost, Goal: goal}, nil
}

// Dims returns (nodes, intervals, objects).
func (in *Instance) Dims() (n, i, k int) {
	return in.Counts.Nodes, in.Counts.Intervals, in.Counts.Objects
}

// MaxQoS returns the largest achievable QoS fraction for node n under a
// class: the share of n's reads that can be served within Tlat even with
// replicas on every node reachable through the class's fetch matrix. A
// class whose MaxQoS is below Tqos for some node cannot meet the goal at
// any cost (this is how "local caching cannot even achieve a QoS goal above
// 99%" manifests for WEB in the paper).
func (in *Instance) MaxQoS(class *Class, n int) float64 {
	reach := in.Reach(class)
	total := 0
	for i := 0; i < in.Counts.Intervals; i++ {
		for k := 0; k < in.Counts.Objects; k++ {
			total += in.Counts.Reads[n][i][k]
		}
	}
	if total == 0 {
		return 1
	}
	if len(reach[n]) > 0 || in.originReachable(class, n) {
		return 1
	}
	return 0
}

// Reach returns, for each node n, the placement-candidate nodes m (origin
// excluded) whose replicas can serve n within the latency threshold under
// the class's routing knowledge: dist[n][m] AND fetch[n][m].
func (in *Instance) Reach(class *Class) [][]int {
	dist := in.Topo.Dist(in.Goal.Tlat)
	fetch := class.fetchMatrix(in.Topo)
	out := make([][]int, in.Topo.N)
	for n := 0; n < in.Topo.N; n++ {
		for m := 0; m < in.Topo.N; m++ {
			if m == in.Topo.Origin {
				continue
			}
			if dist[n][m] && fetch[n][m] {
				out[n] = append(out[n], m)
			}
		}
	}
	return out
}

// originReachable reports whether node n is served by the origin's
// permanent copy within the latency threshold under the class's routing.
func (in *Instance) originReachable(class *Class, n int) bool {
	fetch := class.fetchMatrix(in.Topo)
	o := in.Topo.Origin
	return fetch[n][o] && in.Topo.Latency[n][o] <= in.Goal.Tlat
}
