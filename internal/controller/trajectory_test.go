package controller

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"testing"

	"wideplace/internal/core"
	"wideplace/internal/workload"
)

// replayTrajectoryGolden is the SHA-256 of every step of a 6-interval
// reactive diurnal-shift replay (tqos 0.95): the bound and cost bits, the
// warm flag and the solve's full counters. Each interval is planned from
// the previous rounded placement, so a pivot that moves anywhere moves
// every later step.
const replayTrajectoryGolden = "e7f6d1072662bec74f24766d2c57cfb5eca1d9e463c547291d2431582cd0d4be"

// TestReplayTrajectoryGolden pins the solver's trajectory through the
// online path: warm dual re-solves after coefficient rewrites, where
// bound sums alone would not notice a changed pivot sequence. The digest
// is amd64's: fused multiply-adds elsewhere change the bits.
func TestReplayTrajectoryGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("trajectory digest is recorded on amd64; fused multiply-adds change the bits elsewhere")
	}
	sys := diurnalSystem(t)
	c := sys.Counts.Dense()
	counts := &workload.Counts{
		Reads: make([][][]int, c.Nodes), Writes: make([][][]int, c.Nodes),
		Nodes: c.Nodes, Intervals: 6, Objects: c.Objects, Delta: c.Delta,
	}
	for n := range counts.Reads {
		counts.Reads[n] = c.Reads[n][:6]
		counts.Writes[n] = c.Writes[n][:6]
	}
	cfg := Config{Topo: sys.Topo, Cost: core.DefaultCost(), Goal: core.QoS(0.95, sys.Spec.Tlat)}
	tr, err := Replay(cfg, counts, false)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, st := range tr.Steps {
		stats := st.Stats
		stats.Wall = 0
		fmt.Fprintf(h, "%d %x %x %d %t %+v\n", st.Interval, math.Float64bits(st.Bound), math.Float64bits(st.Cost), st.Iterations, st.Warm, stats)
		t.Logf("interval %d: bound %.6f cost %.6f iterations %d warm %t", st.Interval, st.Bound, st.Cost, st.Iterations, st.Warm)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != replayTrajectoryGolden {
		t.Errorf("replay trajectory digest %s, want %s", got, replayTrajectoryGolden)
	}
}
