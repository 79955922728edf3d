// Package heuristics implements live replica placement heuristics from the
// paper's Table 3 for evaluation in the simulator: LRU and LFU caching, a
// greedy-global storage-constrained placement (Kangasharju-style) and a
// greedy replica-constrained placement (Qiu-style), the last two with
// prefetching (current-interval knowledge), as Figure 2 simulates them.
package heuristics

import (
	"errors"
	"sort"

	"wideplace/internal/sim"
	"wideplace/internal/workload"
)

// neighborOrder returns, for each node, all nodes sorted by ascending
// latency (self first).
func neighborOrder(env *sim.Env) [][]int {
	n := env.Topo.N
	out := make([][]int, n)
	for u := 0; u < n; u++ {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return env.Topo.Latency[u][order[a]] < env.Topo.Latency[u][order[b]]
		})
		out[u] = order
	}
	return out
}

// serveNearest returns the lowest-latency source currently holding the
// object: the node itself, another holder, or the origin (global routing).
func serveNearest(env *sim.Env, order [][]int, node, object int) int {
	for _, m := range order[node] {
		if m == env.Topo.Origin || env.Tracker.Stored(m, object) {
			if m == env.Topo.Origin {
				return sim.Origin
			}
			return m
		}
	}
	return sim.Origin
}

// intervalDemand returns the demand matrix [node][object] of interval i,
// which the periodic centralized heuristics see when they place for it
// (they prefetch), or nil past the trace.
func intervalDemand(counts *workload.Counts, i int) [][]int {
	if i < 0 || i >= counts.Intervals {
		return nil
	}
	out := make([][]int, counts.Nodes)
	for n := range out {
		out[n] = counts.Reads[n][i]
	}
	return out
}

var errNilEnv = errors.New("heuristics: Attach called with nil environment")
