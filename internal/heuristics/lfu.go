package heuristics

import (
	"fmt"
	"time"

	"wideplace/internal/sim"
)

// LFU is local caching with least-frequently-used eviction; another member
// of the paper's caching class, included to show that bounds hold for the
// class rather than one policy.
type LFU struct {
	capacity int
	env      *sim.Env
	counts   []map[int]int // per node: object -> access count
}

var _ sim.Heuristic = (*LFU)(nil)

// NewLFU returns local LFU caching with the given per-node capacity.
func NewLFU(capacity int) *LFU { return &LFU{capacity: capacity} }

// Name implements sim.Heuristic.
func (l *LFU) Name() string { return fmt.Sprintf("lfu-caching(c=%d)", l.capacity) }

// Attach implements sim.Heuristic.
func (l *LFU) Attach(env *sim.Env) error {
	if env == nil {
		return errNilEnv
	}
	l.env = env
	l.counts = make([]map[int]int, env.Topo.N)
	for n := range l.counts {
		l.counts[n] = make(map[int]int)
	}
	return nil
}

// OnIntervalStart implements sim.Heuristic.
func (l *LFU) OnIntervalStart(int, time.Duration) {}

// OnRead implements sim.Heuristic.
func (l *LFU) OnRead(node, object int, at time.Duration) int {
	if node == l.env.Topo.Origin {
		return node
	}
	cached := l.env.Tracker.Stored(node, object)
	l.counts[node][object]++
	if cached {
		return node
	}
	if l.capacity > 0 {
		if l.env.Tracker.Count(node) >= l.capacity {
			victim, vc := -1, 0
			for k, c := range l.counts[node] {
				if !l.env.Tracker.Stored(node, k) {
					continue
				}
				// Ties break toward the smaller object id so eviction —
				// and therefore the whole replay — is deterministic
				// despite the map iteration order.
				if victim < 0 || c < vc || (c == vc && k < victim) {
					victim, vc = k, c
				}
			}
			if victim >= 0 {
				l.env.Tracker.Evict(node, victim, at)
			}
		}
		l.env.Tracker.Create(node, object, at)
	}
	return sim.Origin
}

// ProvisionedObjectHours implements sim.Heuristic.
func (l *LFU) ProvisionedObjectHours(horizon time.Duration) float64 {
	return float64(l.capacity) * float64(l.env.Topo.N-1) * horizon.Hours()
}
