package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"wideplace/internal/topology"
	"wideplace/internal/workload"
	"wideplace/internal/xrand"
)

// lineTopo builds the 3-node line 0 --100ms-- 1 --100ms-- 2 with origin 0.
func lineTopo(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.New(3, []topology.Link{{A: 0, B: 1, Latency: 100}, {A: 1, B: 2, Latency: 100}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// traceCounts builds counts directly from explicit accesses.
func traceCounts(t *testing.T, nodes, objects int, horizon time.Duration, delta time.Duration, acc []workload.Access) *workload.Counts {
	t.Helper()
	tr := &workload.Trace{Accesses: acc, NumNodes: nodes, NumObjects: objects, Duration: horizon}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := tr.Bucket(delta)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewInstanceValidation(t *testing.T) {
	tp := lineTopo(t)
	c := traceCounts(t, 3, 1, time.Hour, time.Hour, []workload.Access{{Node: 2}})
	if _, err := NewInstance(nil, c, DefaultCost(), QoS(0.9, 150)); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := NewInstance(tp, c, DefaultCost(), QoS(0, 150)); err == nil {
		t.Error("zero Tqos accepted")
	}
	if _, err := NewInstance(tp, c, DefaultCost(), QoS(1.5, 150)); err == nil {
		t.Error("Tqos > 1 accepted")
	}
	if _, err := NewInstance(tp, c, Cost{Alpha: -1}, QoS(0.9, 150)); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := NewInstance(tp, c, DefaultCost(), Goal{}); err == nil {
		t.Error("unset goal accepted")
	}
	badCounts := traceCounts(t, 2, 1, time.Hour, time.Hour, nil)
	if _, err := NewInstance(tp, badCounts, DefaultCost(), QoS(0.9, 150)); err == nil {
		t.Error("node-count mismatch accepted")
	}
	if _, err := NewInstance(tp, c, DefaultCost(), QoS(0.9, 150)); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

func TestGeneralBoundTinyExact(t *testing.T) {
	// One object, one interval; only node 2 reads (10 times), 200ms from
	// the origin. QoS 100% within 150ms requires one replica on node 1 or
	// 2 for one interval: cost alpha + beta = 2 exactly.
	tp := lineTopo(t)
	acc := make([]workload.Access, 10)
	for i := range acc {
		acc[i] = workload.Access{At: time.Duration(i) * time.Minute, Node: 2}
	}
	counts := traceCounts(t, 3, 1, time.Hour, time.Hour, acc)
	inst, err := NewInstance(tp, counts, DefaultCost(), QoS(1.0, 150))
	if err != nil {
		t.Fatal(err)
	}
	b, err := inst.LowerBound(General(), BoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.LPBound-2) > 1e-6 {
		t.Errorf("general LP bound = %g, want 2", b.LPBound)
	}
	if math.Abs(b.FeasibleCost-2) > 1e-6 {
		t.Errorf("feasible cost = %g, want 2", b.FeasibleCost)
	}
}

func TestOriginCoveredNodeIsFree(t *testing.T) {
	// Node 1 is 100ms from the origin: within the threshold, its reads
	// cost nothing. The bound must be 0.
	tp := lineTopo(t)
	acc := []workload.Access{{Node: 1}, {At: time.Minute, Node: 1}}
	counts := traceCounts(t, 3, 1, time.Hour, time.Hour, acc)
	inst, err := NewInstance(tp, counts, DefaultCost(), QoS(1.0, 150))
	if err != nil {
		t.Fatal(err)
	}
	b, err := inst.LowerBound(General(), BoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.LPBound != 0 || b.FeasibleCost != 0 {
		t.Errorf("bound = (%g, %g), want (0, 0)", b.LPBound, b.FeasibleCost)
	}
}

func TestCachingColdMissInfeasible(t *testing.T) {
	// Reactive local caching cannot serve the very first access to an
	// object: a 100% QoS goal is unattainable for node 2 (one interval).
	tp := lineTopo(t)
	acc := []workload.Access{{Node: 2}}
	counts := traceCounts(t, 3, 1, time.Hour, time.Hour, acc)
	inst, err := NewInstance(tp, counts, DefaultCost(), QoS(1.0, 150))
	if err != nil {
		t.Fatal(err)
	}
	_, err = inst.LowerBound(Caching(tp), BoundOptions{})
	if !errors.Is(err, ErrGoalUnattainable) {
		t.Fatalf("err = %v, want ErrGoalUnattainable", err)
	}
}

func TestCachingCoversAfterFirstInterval(t *testing.T) {
	// Node 2 reads the object in intervals 0 and 1 (one read each). At QoS
	// 50%, caching can serve the second interval from a replica created
	// after the first access: cost alpha + beta = 2 with the SC top-up
	// charged symmetrically.
	tp := lineTopo(t)
	acc := []workload.Access{
		{At: 0, Node: 2},
		{At: 90 * time.Minute, Node: 2},
	}
	counts := traceCounts(t, 3, 1, 2*time.Hour, time.Hour, acc)
	inst, err := NewInstance(tp, counts, DefaultCost(), QoS(0.5, 150))
	if err != nil {
		t.Fatal(err)
	}
	b, err := inst.LowerBound(Caching(tp), BoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One replica on node 2 in interval 1 requires capacity 1, provisioned
	// on both placement nodes for both intervals (4 alpha) plus one
	// creation: bound 5.
	if math.Abs(b.LPBound-5) > 0.01 {
		t.Errorf("caching bound = %g, want ~5 (small anti-degeneracy slack allowed)", b.LPBound)
	}
	if b.FeasibleCost < b.LPBound-1e-6 {
		t.Errorf("feasible cost %g below LP bound %g", b.FeasibleCost, b.LPBound)
	}
}

func TestPrefetchingDominatesReactive(t *testing.T) {
	// Proactive caching knows the current interval, so it can meet 100%
	// QoS where reactive caching cannot, and never at higher cost.
	tp := lineTopo(t)
	acc := []workload.Access{
		{At: 0, Node: 2},
		{At: 90 * time.Minute, Node: 2},
	}
	counts := traceCounts(t, 3, 1, 2*time.Hour, time.Hour, acc)
	inst, err := NewInstance(tp, counts, DefaultCost(), QoS(1.0, 150))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := inst.LowerBound(CachingPrefetch(tp), BoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Coverage in both intervals: capacity 1 on both placement nodes for
	// both intervals (4 alpha) plus one creation: bound 5.
	if math.Abs(pb.LPBound-5) > 0.01 {
		t.Errorf("prefetch bound = %g, want ~5 (small anti-degeneracy slack allowed)", pb.LPBound)
	}
	if _, err := inst.LowerBound(Caching(tp), BoundOptions{}); !errors.Is(err, ErrGoalUnattainable) {
		t.Errorf("reactive caching should be unattainable at 100%%, got %v", err)
	}
}

func TestClassBoundsDominateGeneral(t *testing.T) {
	// Every class bound must be >= the general bound (adding constraints
	// cannot lower the optimum).
	tp, err := topology.Generate(topology.GenOptions{N: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.GenerateWeb(workload.WebOptions{Nodes: 6, Objects: 12, Requests: 600, Seed: 5, Duration: 4 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := tr.Bucket(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(tp, counts, DefaultCost(), QoS(0.9, 150))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := inst.LowerBound(General(), BoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range Classes(tp, 150) {
		b, err := inst.LowerBound(class, BoundOptions{SkipRounding: true})
		if errors.Is(err, ErrGoalUnattainable) {
			continue // a class may simply be unable to meet the goal
		}
		if err != nil {
			t.Fatalf("%s: %v", class.Name, err)
		}
		if b.LPBound < gen.LPBound-1e-6 {
			t.Errorf("%s bound %g below general bound %g", class.Name, b.LPBound, gen.LPBound)
		}
	}
}

func TestRoundingProducesFeasibleSolutions(t *testing.T) {
	tp, err := topology.Generate(topology.GenOptions{N: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.GenerateWeb(workload.WebOptions{Nodes: 6, Objects: 10, Requests: 500, Seed: 7, Duration: 4 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := tr.Bucket(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, tqos := range []float64{0.8, 0.95, 0.99} {
		inst, err := NewInstance(tp, counts, DefaultCost(), QoS(tqos, 150))
		if err != nil {
			t.Fatal(err)
		}
		for _, class := range []*Class{General(), StorageConstrained(), ReplicaConstrained(), CoopCaching(tp, 150)} {
			b, err := inst.LowerBound(class, BoundOptions{})
			if errors.Is(err, ErrGoalUnattainable) {
				continue
			}
			if err != nil {
				t.Fatalf("tqos=%g %s: %v", tqos, class.Name, err)
			}
			if b.FeasibleCost < b.LPBound-1e-6 {
				t.Errorf("tqos=%g %s: feasible %g < bound %g", tqos, class.Name, b.FeasibleCost, b.LPBound)
			}
			// Re-round to validate the integral solution itself.
			frac := cloneF3(b.StoreFrac)
			rr, err := inst.Round(class, frac, RoundOptions{})
			if err != nil {
				t.Fatalf("tqos=%g %s round: %v", tqos, class.Name, err)
			}
			if err := inst.VerifySolution(class, rr.Store); err != nil {
				t.Errorf("tqos=%g %s: %v", tqos, class.Name, err)
			}
		}
	}
}

func TestBoundMonotoneInQoS(t *testing.T) {
	// Tightening the QoS goal can never lower the bound.
	tp, err := topology.Generate(topology.GenOptions{N: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.GenerateWeb(workload.WebOptions{Nodes: 5, Objects: 8, Requests: 400, Seed: 3, Duration: 3 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := tr.Bucket(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, tqos := range []float64{0.5, 0.7, 0.9, 0.99, 1.0} {
		inst, err := NewInstance(tp, counts, DefaultCost(), QoS(tqos, 150))
		if err != nil {
			t.Fatal(err)
		}
		b, err := inst.LowerBound(General(), BoundOptions{SkipRounding: true})
		if err != nil {
			t.Fatalf("tqos=%g: %v", tqos, err)
		}
		if b.LPBound < prev-1e-6 {
			t.Errorf("bound decreased from %g to %g when tightening QoS to %g", prev, b.LPBound, tqos)
		}
		prev = b.LPBound
	}
}

func TestAvgLatencyTinyExact(t *testing.T) {
	// Node 2 reads 10 times; origin at 200ms. With Tavg = 200 no replica
	// is needed (bound 0). With Tavg = 100 node 2 needs a replica at
	// itself or node 1 for the read interval: cost 2 (alpha + beta).
	tp := lineTopo(t)
	acc := make([]workload.Access, 10)
	for i := range acc {
		acc[i] = workload.Access{At: time.Duration(i) * time.Minute, Node: 2}
	}
	counts := traceCounts(t, 3, 1, time.Hour, time.Hour, acc)

	instLoose, err := NewInstance(tp, counts, DefaultCost(), AvgLatency(200))
	if err != nil {
		t.Fatal(err)
	}
	b, err := instLoose.LowerBound(General(), BoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.LPBound > 1e-6 {
		t.Errorf("avg bound at Tavg=200 = %g, want 0", b.LPBound)
	}

	instTight, err := NewInstance(tp, counts, DefaultCost(), AvgLatency(100))
	if err != nil {
		t.Fatal(err)
	}
	b, err = instTight.LowerBound(General(), BoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Serving all reads locally (0 ms) or from node 1 (100 ms) meets the
	// average; one replica for the interval costs 2. The LP may split
	// routing: half the reads can go to the origin if the other half are
	// local (avg = 100), with half a replica: cost 1.
	if b.LPBound < 1-1e-6 {
		t.Errorf("avg bound at Tavg=100 = %g, want >= 1", b.LPBound)
	}
}

func TestCreateAllowedWindows(t *testing.T) {
	tp := lineTopo(t)
	// Object 0 accessed by node 2 in interval 0 only; object 1 accessed by
	// node 1 in interval 1 only.
	acc := []workload.Access{
		{At: 0, Node: 2, Object: 0},
		{At: 90 * time.Minute, Node: 1, Object: 1},
	}
	counts := traceCounts(t, 3, 2, 3*time.Hour, time.Hour, acc)
	inst, err := NewInstance(tp, counts, DefaultCost(), QoS(0.5, 150))
	if err != nil {
		t.Fatal(err)
	}

	// Reactive local caching, history 1: node 2 may create object 0 only
	// in interval 1 (access in interval 0); never object 1 (node 1's
	// access is invisible to node 2's local knowledge).
	ca := inst.createAllowed(Caching(tp))
	if ca[2] == nil {
		t.Fatal("caching class should restrict creation")
	}
	if ca[2][0][0] {
		t.Error("node 2 interval 0: creation must be disallowed (reactive)")
	}
	if !ca[2][1][0] {
		t.Error("node 2 interval 1: creation of object 0 must be allowed")
	}
	if ca[2][2][0] {
		t.Error("node 2 interval 2: history window 1 has expired")
	}
	if ca[2][1][1] || ca[2][2][1] {
		t.Error("node 2 must never create object 1 under local knowledge")
	}

	// Cooperative caching: node 2 knows node 1 (within 150ms), so object 1
	// becomes creatable on node 2 in interval 2.
	cc := inst.createAllowed(CoopCaching(tp, 150))
	if !cc[2][2][1] {
		t.Error("coop caching: node 1's access should enable creation on node 2")
	}

	// Proactive (prefetch) with history 1: current interval counts.
	cp := inst.createAllowed(CachingPrefetch(tp))
	if !cp[2][0][0] {
		t.Error("prefetch: creation in the access interval must be allowed")
	}

	// Unrestricted class: nil rows.
	cg := inst.createAllowed(General())
	if cg[2] != nil {
		t.Error("general class must not restrict creation")
	}

	// Reactive with unbounded history: once accessed, always creatable.
	cr := inst.createAllowed(Reactive())
	if cr[2][0][0] {
		t.Error("reactive general: interval 0 creation must be disallowed")
	}
	if !cr[2][1][0] || !cr[2][2][0] {
		t.Error("reactive general: object 0 creatable from interval 1 onward")
	}
}

// TestFirstAllowedMatchesCreateAllowed checks the direct derivation of the
// earliest creation interval against the first true cell of the full
// createAllowed tensor, for every class shape on sparse random traces, with
// and without an initial placement.
func TestFirstAllowedMatchesCreateAllowed(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 12; trial++ {
		nodes, objects := 4+rng.Intn(4), 5+rng.Intn(10)
		topo, err := topology.Generate(topology.GenOptions{N: nodes, Seed: rng.Uint64()})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := workload.GenerateWeb(workload.WebOptions{
			Nodes: nodes, Objects: objects, Requests: 5 + rng.Intn(40),
			Duration: 8 * time.Hour, Seed: rng.Uint64(), ZipfS: 1.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		counts, err := tr.Bucket(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewInstance(topo, counts, DefaultCost(), QoS(0.9, 150))
		if err != nil {
			t.Fatal(err)
		}
		var classes []*Class
		classes = append(classes, Classes(topo, 150)...)
		classes = append(classes, Reactive(), nil)
		for _, hist := range []int{HistoryAll, 0, 1, 2, 3, 5} {
			for _, reactive := range []bool{false, true} {
				for _, know := range [][][]bool{nil, topology.IdentityMatrix(nodes), topo.CooperativeKnow(150)} {
					classes = append(classes, &Class{Name: "shape", Know: know, History: hist, Reactive: reactive})
				}
			}
		}
		initial := make([][]bool, nodes)
		for n := range initial {
			initial[n] = make([]bool, objects)
			for k := range initial[n] {
				initial[n][k] = rng.Intn(4) == 0
			}
		}
		for _, init := range [][][]bool{nil, initial} {
			if err := inst.SetInitial(init); err != nil {
				t.Fatal(err)
			}
			for ci, class := range classes {
				got := inst.firstAllowed(class)
				createOK := inst.createAllowed(class)
				_, nI, nK := inst.Dims()
				for m := range got {
					for k := 0; k < nK; k++ {
						want := nI
						if createOK[m] == nil {
							want = 0
						} else {
							for i := 0; i < nI; i++ {
								if createOK[m][i][k] {
									want = i
									break
								}
							}
						}
						if got[m][k] != want {
							t.Fatalf("trial %d class %d (%+v), initial %v: firstAllowed[%d][%d] = %d, createAllowed says %d",
								trial, ci, class, init != nil, m, k, got[m][k], want)
						}
					}
				}
			}
		}
	}
}

func TestVerifySolutionCatchesViolations(t *testing.T) {
	tp := lineTopo(t)
	acc := []workload.Access{{At: 0, Node: 2}}
	counts := traceCounts(t, 3, 1, 2*time.Hour, time.Hour, acc)
	inst, err := NewInstance(tp, counts, DefaultCost(), QoS(1.0, 150))
	if err != nil {
		t.Fatal(err)
	}
	// A placement created in interval 0 under reactive caching: illegal.
	store := [][][]bool{
		{{false}, {false}},
		{{false}, {false}},
		{{true}, {false}},
	}
	if err := inst.VerifySolution(Caching(tp), store); err == nil {
		t.Error("reactive violation not caught")
	}
	// No storage at all: QoS violation for node 2.
	empty := [][][]bool{
		{{false}, {false}},
		{{false}, {false}},
		{{false}, {false}},
	}
	if err := inst.VerifySolution(General(), empty); err == nil {
		t.Error("QoS violation not caught")
	}
	// Legal general placement.
	if err := inst.VerifySolution(General(), store); err != nil {
		t.Errorf("legal general placement rejected: %v", err)
	}
}

func TestSolutionCostComponents(t *testing.T) {
	tp := lineTopo(t)
	acc := []workload.Access{{At: 0, Node: 2}}
	counts := traceCounts(t, 3, 2, 2*time.Hour, time.Hour, acc)
	inst, err := NewInstance(tp, counts, DefaultCost(), QoS(1.0, 150))
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 stores object 0 for both intervals, object 1 in interval 1.
	store := [][][]bool{
		{{false, false}, {false, false}},
		{{false, false}, {false, false}},
		{{true, false}, {true, true}},
	}
	// Storage: 3 object-intervals; creations: obj0@i0 and obj1@i1 = 2.
	got := inst.SolutionCost(General(), store)
	if got != 5 {
		t.Errorf("cost = %g, want 5 (3 storage + 2 creation)", got)
	}
	// With the replica constraint, object 1's replica count (max 1) must
	// be padded in interval 0: +1 storage... and object 0 already has one
	// replica in every interval, so rmax = 1 and the pad is for obj 1 at
	// interval 0 only.
	gotRC := inst.SolutionCost(ReplicaConstrained(), store)
	if gotRC != 6 {
		t.Errorf("RC cost = %g, want 6", gotRC)
	}
	// With the storage constraint, node 1 must match node 2's max
	// capacity (2 objects) for both intervals (+4 storage, +2 creation),
	// and node 2 itself pads interval 0 to 2 objects (+1).
	gotSC := inst.SolutionCost(StorageConstrained(), store)
	if gotSC != 5+4+2+1 {
		t.Errorf("SC cost = %g, want 12", gotSC)
	}
}

func TestZetaCountsOpenNodes(t *testing.T) {
	tp := lineTopo(t)
	acc := []workload.Access{{At: 0, Node: 2}}
	counts := traceCounts(t, 3, 1, time.Hour, time.Hour, acc)
	cost := DefaultCost()
	cost.Zeta = 100
	inst, err := NewInstance(tp, counts, cost, QoS(1.0, 150))
	if err != nil {
		t.Fatal(err)
	}
	store := [][][]bool{
		{{false}},
		{{false}},
		{{true}},
	}
	got := inst.SolutionCost(General(), store)
	if got != 2+100 {
		t.Errorf("cost = %g, want 102 (storage+creation+open)", got)
	}
}
