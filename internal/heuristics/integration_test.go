package heuristics

import (
	"testing"
	"time"

	"wideplace/internal/sim"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// TestAllHeuristicsReplayCleanly replays generated traces against every
// heuristic at several capacities; sim.Run's internal invariants (never
// serve from a non-holder, valid sources) act as the oracle.
func TestAllHeuristicsReplayCleanly(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		tp, err := topology.Generate(topology.GenOptions{N: 7, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := workload.GenerateWeb(workload.WebOptions{
			Nodes: 7, Objects: 25, Requests: 3000, Seed: seed, Duration: 6 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		counts, err := tr.Bucket(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{Topo: tp, Trace: tr, Interval: time.Hour, Tlat: 150, Alpha: 1, Beta: 1}
		for _, cap := range []int{0, 1, 5, 25} {
			all := []sim.Heuristic{
				NewLRU(cap),
				NewLFU(cap),
				NewGreedyGlobalPrefetch(cap, counts),
				NewQiuGreedyPrefetch(min(cap, tp.N-1), counts),
			}
			for _, h := range all {
				m, err := sim.Run(cfg, h)
				if err != nil {
					t.Fatalf("seed %d cap %d %s: %v", seed, cap, h.Name(), err)
				}
				if m.Served != 3000 {
					t.Errorf("%s: served %d of 3000", h.Name(), m.Served)
				}
				if m.QoS < 0 || m.QoS > 1 || m.MinNodeQoS < 0 || m.MinNodeQoS > 1 {
					t.Errorf("%s: QoS out of range: %g/%g", h.Name(), m.QoS, m.MinNodeQoS)
				}
				if m.Cost < 0 {
					t.Errorf("%s: negative cost %g", h.Name(), m.Cost)
				}
				if cap == 0 && m.CreationCost != 0 {
					t.Errorf("%s: creations with zero capacity", h.Name())
				}
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
