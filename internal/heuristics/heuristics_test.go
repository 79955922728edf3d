package heuristics

import (
	"testing"
	"time"

	"wideplace/internal/sim"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

func line3(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.New(3, []topology.Link{{A: 0, B: 1, Latency: 100}, {A: 1, B: 2, Latency: 100}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func env3(t *testing.T, objects int) *sim.Env {
	t.Helper()
	tp := line3(t)
	return &sim.Env{
		Topo:    tp,
		Objects: objects,
		Tlat:    150,
		Tracker: sim.NewTracker(tp.N, objects, tp.Origin),
	}
}

func TestLRUHitAfterMiss(t *testing.T) {
	e := env3(t, 5)
	h := NewLRU(2)
	if err := h.Attach(e); err != nil {
		t.Fatal(err)
	}
	if src := h.OnRead(2, 0, 0); src != sim.Origin {
		t.Errorf("first access served from %d, want origin miss", src)
	}
	if src := h.OnRead(2, 0, time.Minute); src != 2 {
		t.Errorf("second access served from %d, want local hit", src)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	e := env3(t, 5)
	h := NewLRU(2)
	if err := h.Attach(e); err != nil {
		t.Fatal(err)
	}
	h.OnRead(2, 0, 0)
	h.OnRead(2, 1, time.Minute)
	h.OnRead(2, 0, 2*time.Minute) // touch 0: now 1 is LRU
	h.OnRead(2, 2, 3*time.Minute) // evicts 1
	if !e.Tracker.Stored(2, 0) || !e.Tracker.Stored(2, 2) {
		t.Error("expected objects 0 and 2 cached")
	}
	if e.Tracker.Stored(2, 1) {
		t.Error("object 1 should have been evicted (LRU)")
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	e := env3(t, 5)
	h := NewLRU(0)
	if err := h.Attach(e); err != nil {
		t.Fatal(err)
	}
	h.OnRead(2, 0, 0)
	h.OnRead(2, 0, time.Minute)
	if e.Tracker.Count(2) != 0 {
		t.Error("zero-capacity cache stored something")
	}
}

func TestLRUOriginReadsServeLocally(t *testing.T) {
	e := env3(t, 5)
	h := NewLRU(2)
	if err := h.Attach(e); err != nil {
		t.Fatal(err)
	}
	if src := h.OnRead(0, 3, 0); src != 0 {
		t.Errorf("origin read served from %d, want 0", src)
	}
}

func TestLFUKeepsFrequent(t *testing.T) {
	e := env3(t, 5)
	h := NewLFU(1)
	if err := h.Attach(e); err != nil {
		t.Fatal(err)
	}
	h.OnRead(2, 0, 0)
	h.OnRead(2, 0, time.Minute)
	h.OnRead(2, 0, 2*time.Minute) // count(0) = 3
	h.OnRead(2, 1, 3*time.Minute) // count(1) = 1; 0 stays (evict compares counts)
	// With capacity 1 the new object replaces the old one only by
	// eviction; LFU evicts the least-frequent stored object, which is 0's
	// competitor... object 0 has count 3, so it is the victim only if it
	// is the minimum. Object 1 is inserted after evicting the minimum
	// stored (object 0 is the only stored one).
	if e.Tracker.Count(2) != 1 {
		t.Fatalf("Count = %d, want 1", e.Tracker.Count(2))
	}
}

func mkCounts(t *testing.T, tp *topology.Topology, acc []workload.Access, objects int, horizon, delta time.Duration) *workload.Counts {
	t.Helper()
	tr := &workload.Trace{Accesses: acc, NumNodes: tp.N, NumObjects: objects, Duration: horizon}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := tr.Bucket(delta)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGreedyGlobalPrefetchSeesCurrentInterval(t *testing.T) {
	tp := line3(t)
	acc := []workload.Access{{At: 0, Node: 2, Object: 1}}
	counts := mkCounts(t, tp, acc, 3, time.Hour, time.Hour)
	e := &sim.Env{Topo: tp, Objects: 3, Tlat: 150, Tracker: sim.NewTracker(3, 3, 0)}
	h := NewGreedyGlobalPrefetch(1, counts)
	if err := h.Attach(e); err != nil {
		t.Fatal(err)
	}
	h.OnIntervalStart(0, 0)
	if !e.Tracker.Stored(1, 1) && !e.Tracker.Stored(2, 1) {
		t.Error("prefetch variant did not place for current-interval demand")
	}
	if src := h.OnRead(2, 1, 10*time.Minute); src == sim.Origin {
		t.Error("read not served from the placed replica")
	}
}

func TestGreedyGlobalRespectsCapacity(t *testing.T) {
	tp := line3(t)
	var acc []workload.Access
	for k := 0; k < 4; k++ {
		for r := 0; r < 3; r++ {
			acc = append(acc, workload.Access{
				At: time.Duration(k*3+r) * time.Minute, Node: 2, Object: k,
			})
		}
	}
	counts := mkCounts(t, tp, acc, 4, 2*time.Hour, time.Hour)
	e := &sim.Env{Topo: tp, Objects: 4, Tlat: 150, Tracker: sim.NewTracker(3, 4, 0)}
	h := NewGreedyGlobalPrefetch(2, counts)
	if err := h.Attach(e); err != nil {
		t.Fatal(err)
	}
	h.OnIntervalStart(0, 0)
	if e.Tracker.Count(1) > 2 || e.Tracker.Count(2) > 2 {
		t.Errorf("capacity exceeded: node1=%d node2=%d", e.Tracker.Count(1), e.Tracker.Count(2))
	}
}

func TestQiuGreedyPlacesReplicas(t *testing.T) {
	tp := line3(t)
	acc := []workload.Access{
		{At: 0, Node: 1, Object: 0},
		{At: time.Minute, Node: 2, Object: 0},
		{At: 2 * time.Minute, Node: 2, Object: 0},
	}
	counts := mkCounts(t, tp, acc, 2, 2*time.Hour, time.Hour)
	e := &sim.Env{Topo: tp, Objects: 2, Tlat: 150, Tracker: sim.NewTracker(3, 2, 0)}
	h := NewQiuGreedyPrefetch(1, counts)
	if err := h.Attach(e); err != nil {
		t.Fatal(err)
	}
	h.OnIntervalStart(0, 0)
	// One replica for object 0; node 2 has the most demand-weighted
	// latency savings (node 2 is 200ms from origin, node 1 only 100ms).
	if !e.Tracker.Stored(2, 0) {
		t.Error("replica not placed at the highest-gain node 2")
	}
	if e.Tracker.Stored(1, 0) {
		t.Error("more replicas than R=1 placed")
	}
	// Object 1 has no demand: no replicas.
	if e.Tracker.Stored(1, 1) || e.Tracker.Stored(2, 1) {
		t.Error("replica placed for unrequested object")
	}
}

func TestQiuGreedyEvictsStalePlacement(t *testing.T) {
	tp := line3(t)
	acc := []workload.Access{
		{At: 0, Node: 2, Object: 0},
		{At: 70 * time.Minute, Node: 2, Object: 1},
	}
	counts := mkCounts(t, tp, acc, 2, 2*time.Hour, time.Hour)
	e := &sim.Env{Topo: tp, Objects: 2, Tlat: 150, Tracker: sim.NewTracker(3, 2, 0)}
	h := NewQiuGreedyPrefetch(1, counts)
	if err := h.Attach(e); err != nil {
		t.Fatal(err)
	}
	h.OnIntervalStart(0, 0) // places object 0
	if !e.Tracker.Stored(2, 0) {
		t.Fatal("object 0 not placed")
	}
	h.OnIntervalStart(1, time.Hour) // demand moved to object 1
	if e.Tracker.Stored(2, 0) {
		t.Error("stale replica of object 0 not evicted")
	}
	if !e.Tracker.Stored(2, 1) {
		t.Error("object 1 not placed")
	}
}

func TestEndToEndSimulationCosts(t *testing.T) {
	// Full pipeline sanity: simulate LRU on a generated workload and check
	// cost composition and QoS bracketing.
	tp, err := topology.Generate(topology.GenOptions{N: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.GenerateWeb(workload.WebOptions{Nodes: 6, Objects: 20, Requests: 2000, Seed: 9, Duration: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Topo: tp, Trace: tr, Tlat: 150, Alpha: 1, Beta: 1}
	m, err := sim.Run(cfg, NewLRU(5))
	if err != nil {
		t.Fatal(err)
	}
	if m.QoS < 0 || m.QoS > 1 {
		t.Errorf("QoS = %g out of range", m.QoS)
	}
	wantStorage := 5.0 * float64(tp.N-1) * 6 // capacity * nodes * hours
	if m.StorageCost != wantStorage {
		t.Errorf("StorageCost = %g, want %g (capacity charging)", m.StorageCost, wantStorage)
	}
	if m.CreationCost <= 0 {
		t.Error("no creations recorded for a busy LRU")
	}
	// Larger caches can only improve QoS (monotonicity used by Tune).
	m2, err := sim.Run(cfg, NewLRU(20))
	if err != nil {
		t.Fatal(err)
	}
	if m2.QoS < m.QoS-1e-9 {
		t.Errorf("QoS decreased with capacity: %g -> %g", m.QoS, m2.QoS)
	}
}

func TestCentralizedBeatsCachingOnZipf(t *testing.T) {
	// The paper's headline shape at small scale: for a heavy-tailed
	// workload, a tuned greedy-global placement meets the same QoS at
	// lower cost than tuned LRU caching.
	tp, err := topology.Generate(topology.GenOptions{N: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.GenerateWeb(workload.WebOptions{Nodes: 8, Objects: 50, Requests: 8000, Seed: 2, Duration: 12 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := tr.Bucket(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Topo: tp, Trace: tr, Interval: time.Hour, Tlat: 150, Alpha: 1, Beta: 1}
	const tqos = 0.8

	_, lruM, err := sim.Tune(cfg, func(c int) sim.Heuristic { return NewLRU(c) }, 0, 50, tqos, false)
	if err != nil {
		t.Skipf("LRU cannot reach %g on this trace: %v", tqos, err)
	}
	_, gM, err := sim.Tune(cfg, func(c int) sim.Heuristic { return NewGreedyGlobalPrefetch(c, counts) }, 0, 50, tqos, false)
	if err != nil {
		t.Fatalf("greedy-global cannot reach %g: %v", tqos, err)
	}
	if gM.Cost > lruM.Cost*1.25 {
		t.Errorf("greedy-global cost %g should not exceed LRU cost %g by >25%%", gM.Cost, lruM.Cost)
	}
}
