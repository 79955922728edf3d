package core

import (
	"math"
	"testing"
	"time"

	"wideplace/internal/lp"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// driftCounts buckets a small diurnal workload for the drift tests.
func driftCounts(t *testing.T, nodes, objects int) (*topology.Topology, *workload.Counts) {
	t.Helper()
	topo, err := topology.Generate(topology.GenOptions{N: nodes, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	st, err := workload.StreamDiurnal(workload.DiurnalOptions{
		Nodes: nodes, Objects: objects, Requests: 2500, Duration: 12 * time.Hour,
		Period: 12 * time.Hour, Seed: 9, ObjectDrift: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.Counts(3 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return topo, c
}

// singleInterval builds a one-interval Counts holding the given demand.
func singleInterval(reads [][]int, objects int, delta time.Duration) *workload.Counts {
	c := &workload.Counts{
		Reads:  make([][][]int, len(reads)),
		Writes: make([][][]int, len(reads)),
		Nodes:  len(reads), Intervals: 1, Objects: objects, Delta: delta,
	}
	for n := range reads {
		c.Reads[n] = [][]int{reads[n]}
		c.Writes[n] = [][]int{make([]int, objects)}
	}
	return c
}

// The drift-rebindable problem must be indistinguishable from a fresh
// sparse build at every interval: same bound (within LP tolerance) with
// the warm chain and the carried-over initial placement in effect.
func TestDriftQoSMatchesFreshBuildPerInterval(t *testing.T) {
	topo, counts := driftCounts(t, 8, 6)
	goal := QoS(0.95, 60)
	cost := DefaultCost()
	d, err := CompileDriftQoS(topo, counts.Objects, counts.Delta, cost, goal, nil)
	if err != nil {
		t.Fatal(err)
	}
	var basis *lp.Basis
	var placement [][]bool
	for i := 0; i < counts.Intervals; i++ {
		reads, err := counts.IntervalReads(i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.SetReads(reads); err != nil {
			t.Fatalf("interval %d: SetReads: %v", i, err)
		}
		if err := d.SetInitial(placement); err != nil {
			t.Fatalf("interval %d: SetInitial: %v", i, err)
		}
		warm, err := d.LowerBound(BoundOptions{LP: lp.Options{Start: basis}})
		if err != nil {
			t.Fatalf("interval %d: warm: %v", i, err)
		}

		in, err := NewInstance(topo, singleInterval(reads, counts.Objects, counts.Delta), cost, goal)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.SetInitial(placement); err != nil {
			t.Fatal(err)
		}
		cold, err := in.LowerBound(nil, BoundOptions{})
		if err != nil {
			t.Fatalf("interval %d: cold: %v", i, err)
		}
		tol := 1e-9 * math.Max(1, math.Abs(cold.LPBound))
		if diff := math.Abs(warm.LPBound - cold.LPBound); diff > tol {
			t.Fatalf("interval %d: warm bound %.12f vs cold %.12f (diff %g)", i, warm.LPBound, cold.LPBound, diff)
		}
		if i > 0 && warm.Stats.WarmSolves == 0 {
			t.Fatalf("interval %d: warm chain fell back to a cold start", i)
		}
		basis = warm.Basis
		placement = make([][]bool, len(warm.Store))
		for n := range warm.Store {
			placement[n] = warm.Store[n][0]
		}
	}
}

// An initial placement must flip only create-row right-hand sides: with
// every replica pre-placed, re-planning the same demand charges storage
// but no creation.
func TestDriftQoSInitialPlacementDiscountsCreation(t *testing.T) {
	topo, counts := driftCounts(t, 6, 5)
	goal := QoS(0.9, 60)
	d, err := CompileDriftQoS(topo, counts.Objects, counts.Delta, DefaultCost(), goal, nil)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := counts.IntervalReads(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetReads(reads); err != nil {
		t.Fatal(err)
	}
	coldStart, err := d.LowerBound(BoundOptions{SkipRounding: true})
	if err != nil {
		t.Fatal(err)
	}
	full := make([][]bool, topo.N)
	for n := range full {
		full[n] = make([]bool, counts.Objects)
		if n == topo.Origin {
			continue
		}
		for k := range full[n] {
			full[n][k] = true
		}
	}
	if err := d.SetInitial(full); err != nil {
		t.Fatal(err)
	}
	warmStart, err := d.LowerBound(BoundOptions{SkipRounding: true})
	if err != nil {
		t.Fatal(err)
	}
	if warmStart.LPBound >= coldStart.LPBound {
		t.Fatalf("pre-placed bound %.6f not below cold-start bound %.6f", warmStart.LPBound, coldStart.LPBound)
	}
	// And back: clearing the initial placement restores the original bound.
	if err := d.SetInitial(nil); err != nil {
		t.Fatal(err)
	}
	again, err := d.LowerBound(BoundOptions{SkipRounding: true})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(again.LPBound - coldStart.LPBound); diff > 1e-9*math.Max(1, coldStart.LPBound) {
		t.Fatalf("bound after clearing initial %.12f, want %.12f", again.LPBound, coldStart.LPBound)
	}
}

// Demand arriving at a node out of range of every other node can only be
// met by a local replica (under the unrestricted class a node always
// reaches itself at zero latency, so per-user QoS is never unattainable).
// The drifted problem must price that forced replica exactly like a fresh
// build: bound above one storage+creation unit, equal within tolerance.
func TestDriftQoSFarNodeForcesLocalReplica(t *testing.T) {
	// A 3-node chain with 100ms links and a 50ms threshold: node 2 is out
	// of range of both the origin (200ms) and node 1 (100ms).
	topo, err := topology.New(3, []topology.Link{
		{A: 0, B: 1, Latency: 100}, {A: 1, B: 2, Latency: 100},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := CompileDriftQoS(topo, 2, time.Hour, DefaultCost(), QoS(0.9, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	reads := [][]int{{0, 0}, {0, 0}, {5, 0}}
	if _, err := d.SetReads(reads); err != nil {
		t.Fatal(err)
	}
	got, err := d.LowerBound(BoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The relaxation covers the QoS share fractionally: at least 0.9 of
	// one object stored on node 2 for the hour plus 0.9 of its creation.
	if got.LPBound < 1.8-1e-9 {
		t.Fatalf("bound %.6f does not cover the forced local replica", got.LPBound)
	}
	if !got.Store[2][0][0] {
		t.Fatal("rounded placement does not hold object 0 on the far node")
	}
	in, err := NewInstance(topo, singleInterval(reads, 2, time.Hour), DefaultCost(), QoS(0.9, 50))
	if err != nil {
		t.Fatal(err)
	}
	want, err := in.LowerBound(nil, BoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(got.LPBound - want.LPBound); diff > 1e-9*math.Max(1, want.LPBound) {
		t.Fatalf("drift bound %.12f, fresh build %.12f", got.LPBound, want.LPBound)
	}
}
