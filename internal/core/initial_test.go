package core

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"wideplace/internal/workload"
)

// allStored returns an initial placement holding every object on every
// node: the "long-running system" assumption under which even
// single-interval-history reactive heuristics can serve interval 0.
func allStored(in *Instance) [][]bool {
	out := make([][]bool, in.Topo.N)
	for n := range out {
		out[n] = slices.Repeat([]bool{true}, in.Counts.Objects)
	}
	return out
}

func TestSetInitialValidation(t *testing.T) {
	tp := lineTopo(t)
	counts := traceCounts(t, 3, 2, time.Hour, time.Hour, []workload.Access{{Node: 2}})
	inst, err := NewInstance(tp, counts, DefaultCost(), QoS(1.0, 150))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.SetInitial([][]bool{{true}}); err == nil {
		t.Error("short initial placement accepted")
	}
	if err := inst.SetInitial([][]bool{{true}, {true}, {true}}); err == nil {
		t.Error("short object row accepted")
	}
	if err := inst.SetInitial(allStored(inst)); err != nil {
		t.Errorf("warm initial rejected: %v", err)
	}
	if err := inst.SetInitial(nil); err != nil || inst.Initial != nil {
		t.Error("clearing initial placement failed")
	}
}

func TestInitialPlacementUnblocksReactiveColdStart(t *testing.T) {
	// Cold start: reactive caching cannot serve node 2's single interval-0
	// read (TestCachingColdMissInfeasible). With a warm initial placement
	// the same goal becomes attainable: the replica is already there.
	tp := lineTopo(t)
	acc := []workload.Access{{Node: 2}}
	counts := traceCounts(t, 3, 1, time.Hour, time.Hour, acc)
	inst, err := NewInstance(tp, counts, DefaultCost(), QoS(1.0, 150))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.LowerBound(Caching(tp), BoundOptions{}); !errors.Is(err, ErrGoalUnattainable) {
		t.Fatalf("cold start should be unattainable, got %v", err)
	}
	if err := inst.SetInitial(allStored(inst)); err != nil {
		t.Fatal(err)
	}
	b, err := inst.LowerBound(Caching(tp), BoundOptions{})
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	// Holding the initial replica on node 2 through interval 0: alpha
	// for the storage, no creation (it was already there), and the SC
	// capacity charge covers both placement nodes: 2 alpha total.
	if math.Abs(b.LPBound-2) > 0.05 {
		t.Errorf("warm caching bound = %g, want ~2 (no creation cost)", b.LPBound)
	}
}

func TestInitialPlacementAvoidsCreationCost(t *testing.T) {
	tp := lineTopo(t)
	acc := []workload.Access{{Node: 2}}
	counts := traceCounts(t, 3, 1, time.Hour, time.Hour, acc)
	inst, err := NewInstance(tp, counts, DefaultCost(), QoS(1.0, 150))
	if err != nil {
		t.Fatal(err)
	}
	// Initial copy only on node 2.
	initial := [][]bool{{false}, {false}, {true}}
	if err := inst.SetInitial(initial); err != nil {
		t.Fatal(err)
	}
	b, err := inst.LowerBound(General(), BoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Cold start costs 2 (alpha + beta); warm costs 1 (alpha only).
	if math.Abs(b.LPBound-1) > 1e-6 {
		t.Errorf("bound = %g, want 1", b.LPBound)
	}
	if math.Abs(b.FeasibleCost-1) > 1e-6 {
		t.Errorf("feasible = %g, want 1", b.FeasibleCost)
	}
	// SolutionCost agrees: holding the initial replica charges no beta.
	store := [][][]bool{{{false}}, {{false}}, {{true}}}
	if got := inst.SolutionCost(General(), store); got != 1 {
		t.Errorf("SolutionCost = %g, want 1", got)
	}
	// VerifySolution accepts holding an initial replica under reactive
	// classes (no illegal "creation" at interval 0).
	if err := inst.VerifySolution(Caching(tp), store); err != nil {
		t.Errorf("holding initial replica rejected: %v", err)
	}
}

func TestInitialHistoryExpires(t *testing.T) {
	// Single-interval-history reactive caching: an initially-held object
	// may be (re)created at interval 0, but by interval 2 the initial
	// history has expired and only recent accesses count.
	tp := lineTopo(t)
	acc := []workload.Access{{At: 0, Node: 2, Object: 0}}
	counts := traceCounts(t, 3, 2, 3*time.Hour, time.Hour, acc)
	inst, err := NewInstance(tp, counts, DefaultCost(), QoS(1.0, 150))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.SetInitial(allStored(inst)); err != nil {
		t.Fatal(err)
	}
	ca := inst.createAllowed(Caching(tp))
	if ca[2] == nil {
		t.Fatal("caching must restrict creation")
	}
	if !ca[2][0][0] || !ca[2][0][1] {
		t.Error("interval 0: initial placement should allow creation of all objects")
	}
	if !ca[2][1][0] {
		t.Error("interval 1: object 0 accessed in interval 0, creatable")
	}
	if ca[2][1][1] {
		t.Error("interval 1: object 1 has no recent access; initial history expired")
	}
	if ca[2][2][0] {
		t.Error("interval 2: object 0's access history expired (window 1)")
	}
}

func TestWarmLagrangianMatchesExact(t *testing.T) {
	inst := lagSystem(t, 23, 6, 10, 900)
	if err := inst.SetInitial(allStored(inst)); err != nil {
		t.Fatal(err)
	}
	exact, err := inst.LowerBound(General(), BoundOptions{SkipRounding: true})
	if err != nil {
		t.Fatal(err)
	}
	lag, err := inst.LagrangianBound(General(), LagrangianOptions{MaxIters: 300})
	if err != nil {
		t.Fatal(err)
	}
	if lag.LPBound > exact.LPBound*(1+1e-6)+1e-6 {
		t.Errorf("warm Lagrangian %g exceeds exact %g", lag.LPBound, exact.LPBound)
	}
}
