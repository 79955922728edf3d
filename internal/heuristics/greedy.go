package heuristics

import (
	"container/heap"
	"fmt"
	"time"

	"wideplace/internal/sim"
	"wideplace/internal/workload"
)

// GreedyGlobal is the storage-constrained greedy placement in the style of
// Kangasharju et al. (paper Table 3: storage constrained heuristics): every
// evaluation interval, a central coordinator re-places objects subject to a
// fixed per-node capacity, greedily maximizing the demand newly covered
// within the latency threshold. Requests are served by the nearest replica
// (global routing knowledge), falling back to the origin. The coordinator
// sees the current interval's demand (the prefetching variant).
type GreedyGlobal struct {
	capacity int
	counts   *workload.Counts
	env      *sim.Env
	order    [][]int
	within   [][]int // within[m]: nodes u with latency(u, m) <= Tlat
}

var _ sim.Heuristic = (*GreedyGlobal)(nil)

// NewGreedyGlobalPrefetch returns the prefetching storage-constrained
// greedy heuristic with the given per-node capacity, informed by the
// bucketed workload.
func NewGreedyGlobalPrefetch(capacity int, counts *workload.Counts) *GreedyGlobal {
	return &GreedyGlobal{capacity: capacity, counts: counts}
}

// Name implements sim.Heuristic.
func (g *GreedyGlobal) Name() string {
	return fmt.Sprintf("greedy-global-prefetch(c=%d)", g.capacity)
}

// Attach implements sim.Heuristic.
func (g *GreedyGlobal) Attach(env *sim.Env) error {
	if env == nil {
		return errNilEnv
	}
	g.env = env
	g.order = neighborOrder(env)
	g.within = make([][]int, env.Topo.N)
	for m := 0; m < env.Topo.N; m++ {
		for u := 0; u < env.Topo.N; u++ {
			if env.Topo.Latency[u][m] <= env.Tlat {
				g.within[m] = append(g.within[m], u)
			}
		}
	}
	return nil
}

// gainItem is a lazy-greedy priority queue entry.
type gainItem struct {
	node, object int
	gain         float64
}

type gainHeap []gainItem

func (h gainHeap) Len() int            { return len(h) }
func (h gainHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h gainHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x interface{}) { *h = append(*h, x.(gainItem)) }
func (h *gainHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// OnIntervalStart implements sim.Heuristic: recompute the placement for the
// coming interval from the visible demand.
func (g *GreedyGlobal) OnIntervalStart(interval int, at time.Duration) {
	d := intervalDemand(g.counts, interval)
	target := g.computePlacement(d)
	// Transition: evict replicas that are no longer wanted, create the new
	// ones.
	nN := g.env.Topo.N
	for n := 0; n < nN; n++ {
		if n == g.env.Topo.Origin {
			continue
		}
		for _, k := range g.env.Tracker.HoldersOn(n) {
			if !target[n][k] {
				g.env.Tracker.Evict(n, k, at)
			}
		}
		for k := range target[n] {
			g.env.Tracker.Create(n, k, at)
		}
	}
}

// computePlacement runs the lazy greedy: repeatedly place the (node,
// object) pair with the highest uncovered demand within the threshold,
// respecting per-node capacities.
func (g *GreedyGlobal) computePlacement(demand [][]int) []map[int]bool {
	nN := g.env.Topo.N
	target := make([]map[int]bool, nN)
	for n := range target {
		target[n] = make(map[int]bool)
	}
	if demand == nil || g.capacity == 0 {
		return target
	}
	nK := g.env.Objects
	origin := g.env.Topo.Origin
	// covered[u][k]: u's demand for k is already served within Tlat
	// (origin coverage counts).
	covered := make([][]bool, nN)
	for u := range covered {
		covered[u] = make([]bool, nK)
		if g.env.Topo.Latency[u][origin] <= g.env.Tlat {
			for k := range covered[u] {
				covered[u][k] = true
			}
		}
	}
	gain := func(n, k int) float64 {
		total := 0.0
		for _, u := range g.within[n] {
			if !covered[u][k] {
				total += float64(demand[u][k])
			}
		}
		return total
	}
	h := make(gainHeap, 0, (nN-1)*nK)
	for n := 0; n < nN; n++ {
		if n == origin {
			continue
		}
		for k := 0; k < nK; k++ {
			if v := gain(n, k); v > 0 {
				h = append(h, gainItem{node: n, object: k, gain: v})
			}
		}
	}
	heap.Init(&h)
	used := make([]int, nN)
	for h.Len() > 0 {
		item := heap.Pop(&h).(gainItem)
		if used[item.node] >= g.capacity || target[item.node][item.object] {
			continue
		}
		// Lazy re-evaluation: the stored gain may be stale.
		current := gain(item.node, item.object)
		if current <= 0 {
			continue
		}
		if current < item.gain-1e-12 {
			item.gain = current
			heap.Push(&h, item)
			continue
		}
		target[item.node][item.object] = true
		used[item.node]++
		for _, u := range g.within[item.node] {
			covered[u][item.object] = true
		}
	}
	return target
}

// OnRead implements sim.Heuristic: serve from the nearest replica (global
// routing), falling back to the origin.
func (g *GreedyGlobal) OnRead(node, object int, at time.Duration) int {
	if node == g.env.Topo.Origin {
		return node
	}
	return serveNearest(g.env, g.order, node, object)
}

// ProvisionedObjectHours implements sim.Heuristic: fixed capacity on every
// placement node.
func (g *GreedyGlobal) ProvisionedObjectHours(horizon time.Duration) float64 {
	return float64(g.capacity) * float64(g.env.Topo.N-1) * horizon.Hours()
}
