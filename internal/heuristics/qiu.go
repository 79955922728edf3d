package heuristics

import (
	"fmt"
	"time"

	"wideplace/internal/sim"
	"wideplace/internal/workload"
)

// QiuGreedy is the replica-constrained greedy placement of Qiu, Padmanabhan
// and Voelker (paper Table 3: replica constrained heuristics [11]): every
// evaluation interval, each object gets exactly R replicas, placed one at a
// time so that each placement minimizes the demand-weighted access latency
// given the replicas (and the origin) already chosen. Requests are served
// by the nearest replica (global routing knowledge). The placement uses the
// current interval's demand (the prefetching variant).
type QiuGreedy struct {
	replicas int
	counts   *workload.Counts
	env      *sim.Env
	order    [][]int
}

var _ sim.Heuristic = (*QiuGreedy)(nil)

// NewQiuGreedyPrefetch returns the prefetching replica-constrained greedy
// heuristic with R replicas per object.
func NewQiuGreedyPrefetch(replicas int, counts *workload.Counts) *QiuGreedy {
	return &QiuGreedy{replicas: replicas, counts: counts}
}

// Name implements sim.Heuristic.
func (q *QiuGreedy) Name() string {
	return fmt.Sprintf("qiu-greedy-prefetch(r=%d)", q.replicas)
}

// Attach implements sim.Heuristic.
func (q *QiuGreedy) Attach(env *sim.Env) error {
	if env == nil {
		return errNilEnv
	}
	q.env = env
	q.order = neighborOrder(env)
	return nil
}

// OnIntervalStart implements sim.Heuristic.
func (q *QiuGreedy) OnIntervalStart(interval int, at time.Duration) {
	demand := intervalDemand(q.counts, interval)
	nN := q.env.Topo.N
	origin := q.env.Topo.Origin
	target := make([]map[int]bool, nN)
	for n := range target {
		target[n] = make(map[int]bool)
	}
	if demand != nil && q.replicas > 0 {
		nK := q.env.Objects
		best := make([]float64, nN) // per user: best latency so far for k
		for k := 0; k < nK; k++ {
			// Skip objects nobody asked for.
			active := false
			for u := 0; u < nN; u++ {
				if demand[u][k] > 0 {
					active = true
					break
				}
			}
			if !active {
				continue
			}
			for u := 0; u < nN; u++ {
				best[u] = q.env.Topo.Latency[u][origin]
			}
			placed := make(map[int]bool, q.replicas)
			for r := 0; r < q.replicas && len(placed) < nN-1; r++ {
				// Choose the node that most reduces total weighted latency.
				bestNode, bestGain := -1, 0.0
				for m := 0; m < nN; m++ {
					if m == origin || placed[m] {
						continue
					}
					gain := 0.0
					for u := 0; u < nN; u++ {
						d := float64(demand[u][k])
						if d == 0 {
							continue
						}
						if l := q.env.Topo.Latency[u][m]; l < best[u] {
							gain += d * (best[u] - l)
						}
					}
					if bestNode < 0 || gain > bestGain {
						bestNode, bestGain = m, gain
					}
				}
				if bestNode < 0 {
					break
				}
				placed[bestNode] = true
				target[bestNode][k] = true
				for u := 0; u < nN; u++ {
					if l := q.env.Topo.Latency[u][bestNode]; l < best[u] {
						best[u] = l
					}
				}
			}
		}
	}
	for n := 0; n < nN; n++ {
		if n == origin {
			continue
		}
		for _, k := range q.env.Tracker.HoldersOn(n) {
			if !target[n][k] {
				q.env.Tracker.Evict(n, k, at)
			}
		}
		for k := range target[n] {
			q.env.Tracker.Create(n, k, at)
		}
	}
}

// OnRead implements sim.Heuristic.
func (q *QiuGreedy) OnRead(node, object int, at time.Duration) int {
	if node == q.env.Topo.Origin {
		return node
	}
	return serveNearest(q.env, q.order, node, object)
}

// ProvisionedObjectHours implements sim.Heuristic: replica-constrained
// heuristics store exactly what they place, so actual usage is charged.
func (q *QiuGreedy) ProvisionedObjectHours(time.Duration) float64 { return -1 }
