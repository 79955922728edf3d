package core

import (
	"math"
	"testing"
	"time"

	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// smallSystem returns an 8-site topology and a WEB trace bucketed hourly.
func smallSystem(t *testing.T, seed uint64) (*topology.Topology, *workload.Counts) {
	t.Helper()
	tp, err := topology.Generate(topology.GenOptions{N: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.GenerateWeb(workload.WebOptions{
		Nodes: 8, Objects: 15, Requests: 1500, Seed: seed, Duration: 6 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := tr.Bucket(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return tp, counts
}

func TestSelectHeuristic(t *testing.T) {
	tp, counts := smallSystem(t, 21)
	inst, err := NewInstance(tp, counts, DefaultCost(), QoS(0.9, 150))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := inst.SelectHeuristic(Classes(tp, 150), BoundOptions{SkipRounding: true})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best == nil {
		t.Fatal("no feasible class found")
	}
	// Ranking must be ascending among feasible classes.
	prev := -1.0
	for _, cb := range sel.Ranked {
		if !cb.Feasible() {
			continue
		}
		if cb.Bound.LPBound < prev-1e-9 {
			t.Errorf("ranking not ascending: %s at %g after %g", cb.Class.Name, cb.Bound.LPBound, prev)
		}
		prev = cb.Bound.LPBound
		if cb.Bound.LPBound < sel.General.LPBound-1e-6 {
			t.Errorf("class %s bound %g below general %g", cb.Class.Name, cb.Bound.LPBound, sel.General.LPBound)
		}
	}
	// The first ranked entry includes the general class itself, whose
	// bound equals the general bound, so Best is always close to general
	// when the general class is among the candidates.
	if !sel.CloseToGeneral(1e-6) {
		t.Error("general class in candidate set but Best not close to general")
	}
}

func TestPlanDeployment(t *testing.T) {
	tp, counts := smallSystem(t, 33)
	dep, err := PlanDeployment(tp, counts, DefaultCost(), QoS(0.7, 150), 50, nil, BoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.OpenNodes) == 0 || len(dep.OpenNodes) > tp.N {
		t.Fatalf("open nodes = %v", dep.OpenNodes)
	}
	hasOrigin := false
	for _, o := range dep.OpenNodes {
		if o == tp.Origin {
			hasOrigin = true
		}
	}
	if !hasOrigin {
		t.Error("origin not in open set")
	}
	if dep.Topology.N != len(dep.OpenNodes) {
		t.Errorf("reduced topology has %d nodes, want %d", dep.Topology.N, len(dep.OpenNodes))
	}
	// Phase-2 bounds must be computable on the reduced instance.
	b, err := dep.Instance.LowerBound(Reactive(), BoundOptions{SkipRounding: true})
	if err != nil {
		t.Fatalf("phase 2 reactive bound: %v", err)
	}
	if b.LPBound < 0 {
		t.Errorf("negative bound %g", b.LPBound)
	}
	// A high opening cost must never open more sites than a low one needs:
	// compare against a very high zeta.
	depHigh, err := PlanDeployment(tp, counts, DefaultCost(), QoS(0.7, 150), 1e7, nil, BoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(depHigh.OpenNodes) > len(dep.OpenNodes) {
		t.Errorf("higher opening cost opened more sites: %d > %d", len(depHigh.OpenNodes), len(dep.OpenNodes))
	}
}

func TestPlanDeploymentRejectsZeroZeta(t *testing.T) {
	tp, counts := smallSystem(t, 5)
	if _, err := PlanDeployment(tp, counts, DefaultCost(), QoS(0.9, 150), 0, nil, BoundOptions{}); err == nil {
		t.Error("zeta = 0 accepted")
	}
}

func TestCloseToGeneral(t *testing.T) {
	s := &Selection{
		General: &Bound{LPBound: 100},
		Best:    &ClassBound{Class: General(), Bound: &Bound{LPBound: 105}},
	}
	if !s.CloseToGeneral(0.10) {
		t.Error("5% over should be within 10%")
	}
	if s.CloseToGeneral(0.01) {
		t.Error("5% over should not be within 1%")
	}
	if (&Selection{General: &Bound{LPBound: 100}}).CloseToGeneral(0.5) {
		t.Error("nil Best should not be close")
	}
}

func TestGapComputation(t *testing.T) {
	b := &Bound{LPBound: 100, FeasibleCost: 108}
	if math.Abs(b.Gap()-0.08) > 1e-12 {
		t.Errorf("Gap = %g, want 0.08", b.Gap())
	}
	zero := &Bound{LPBound: 0, FeasibleCost: 0}
	if zero.Gap() != 0 {
		t.Errorf("zero-bound gap = %g, want 0", zero.Gap())
	}
}
