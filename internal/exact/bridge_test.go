package exact

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"wideplace/internal/core"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
	"wideplace/internal/xrand"
)

// treeInstance builds a tree MC-PERF instance with a seeded random
// single-interval read workload.
func treeInstance(t *testing.T, topoOpts topology.TreeOptions, tlat float64, readSeed uint64) *core.Instance {
	t.Helper()
	topo, err := topology.GenerateTree(topoOpts)
	if err != nil {
		t.Fatal(err)
	}
	const objects = 4
	counts := &workload.Counts{
		Nodes: topo.N, Intervals: 1, Objects: objects, Delta: time.Hour,
		Reads:  alloc3int(topo.N, 1, objects),
		Writes: alloc3int(topo.N, 1, objects),
	}
	rng := xrand.New(readSeed)
	for n := 0; n < topo.N; n++ {
		for k := 0; k < objects; k++ {
			if rng.Intn(3) > 0 {
				counts.Reads[n][0][k] = rng.Intn(40)
			}
		}
	}
	inst, err := core.NewInstance(topo, counts, core.DefaultCost(), core.QoS(1, tlat))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func alloc3int(n, i, k int) [][][]int {
	out := make([][][]int, n)
	for a := range out {
		out[a] = make([][]int, i)
		for b := range out[a] {
			out[a][b] = make([]int, k)
		}
	}
	return out
}

// TestSolveInstanceBracketsLP is the oracle chain on crafted tree
// instances: for the general and tree-upwards classes,
//
//	LP lower bound <= exact optimum <= rounded certificate cost
//
// and the DP witness is itself a verified feasible solution whose
// MC-PERF cost equals the reported optimum. The brute-force bridge
// agrees with the DP bridge on the optimum.
func TestSolveInstanceBracketsLP(t *testing.T) {
	const tol = 1e-9
	shapes := []string{topology.TreeKAry, topology.TreeRandom, topology.TreeCaterpillar}
	for _, shape := range shapes {
		inst := treeInstance(t, topology.TreeOptions{N: 12, Shape: shape, Seed: 11}, 200, 31)
		tu, err := core.TreeUpwards(inst.Topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, class := range []*core.Class{core.General(), tu} {
			sol, err := SolveInstance(inst, class)
			if err != nil {
				t.Fatalf("%s/%s: SolveInstance: %v", shape, class.Name, err)
			}
			brute, err := SolveInstanceBrute(inst, class)
			if err != nil {
				t.Fatalf("%s/%s: SolveInstanceBrute: %v", shape, class.Name, err)
			}
			if sol.Cost != brute.Cost {
				t.Errorf("%s/%s: DP bridge cost %g != brute bridge cost %g", shape, class.Name, sol.Cost, brute.Cost)
			}
			b, err := inst.LowerBound(class, core.BoundOptions{})
			if err != nil {
				t.Fatalf("%s/%s: LowerBound: %v", shape, class.Name, err)
			}
			if b.LPBound > sol.Cost+tol {
				t.Errorf("%s/%s: LP bound %.12g above exact optimum %.12g", shape, class.Name, b.LPBound, sol.Cost)
			}
			if sol.Cost > b.FeasibleCost+tol {
				t.Errorf("%s/%s: exact optimum %.12g above rounded certificate %.12g", shape, class.Name, sol.Cost, b.FeasibleCost)
			}
			if err := inst.VerifySolution(class, sol.Store); err != nil {
				t.Errorf("%s/%s: DP witness infeasible: %v", shape, class.Name, err)
			}
			if got := inst.SolutionCost(class, sol.Store); math.Abs(got-sol.Cost) > tol {
				t.Errorf("%s/%s: SolutionCost(witness) = %g, oracle reports %g", shape, class.Name, got, sol.Cost)
			}
		}
	}
}

// TestSolveInstanceIntegralWitness: on a star of unreachable demanding
// leaves the optimum is forced (every demanding leaf self-stores), the
// tree-upwards LP is integral, and the rounded store must equal the DP
// witness exactly.
func TestSolveInstanceIntegralWitness(t *testing.T) {
	// kary with arity 6 and 7 nodes = root plus 6 leaves; hop latencies
	// in [300, 400] all exceed Tlat = 200.
	topo, err := topology.GenerateTree(topology.TreeOptions{
		N: 7, Shape: topology.TreeKAry, Arity: 6, Seed: 3, HopMin: 300, HopMax: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := &workload.Counts{
		Nodes: 7, Intervals: 1, Objects: 2, Delta: time.Hour,
		Reads:  alloc3int(7, 1, 2),
		Writes: alloc3int(7, 1, 2),
	}
	// Object 0 read by leaves 1..3, object 1 by leaves 4..6.
	for n := 1; n <= 3; n++ {
		counts.Reads[n][0][0] = 5
	}
	for n := 4; n <= 6; n++ {
		counts.Reads[n][0][1] = 5
	}
	inst, err := core.NewInstance(topo, counts, core.DefaultCost(), core.QoS(1, 200))
	if err != nil {
		t.Fatal(err)
	}
	tu, err := core.TreeUpwards(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []*core.Class{core.General(), tu} {
		sol, err := SolveInstance(inst, class)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Replicas != 6 || sol.Cost != 12 {
			t.Fatalf("%s: oracle found %d replicas costing %g, want 6 costing 12", class.Name, sol.Replicas, sol.Cost)
		}
		b, err := inst.LowerBound(class, core.BoundOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(b.LPBound-sol.Cost) > 1e-9 || math.Abs(b.FeasibleCost-sol.Cost) > 1e-9 {
			t.Errorf("%s: LP %.12g / certificate %.12g, exact %g — the forced instance should be integral",
				class.Name, b.LPBound, b.FeasibleCost, sol.Cost)
		}
		for n := 0; n < 7; n++ {
			for k := 0; k < 2; k++ {
				if b.Store[n][0][k] != sol.Store[n][0][k] {
					t.Errorf("%s: rounded store and DP witness differ at node %d object %d", class.Name, n, k)
				}
			}
		}
	}
}

// TestSolveInstanceUnsupported enumerates the instance shapes the bridge
// must refuse with ErrUnsupported rather than mis-solve.
func TestSolveInstanceUnsupported(t *testing.T) {
	base := func() *core.Instance {
		return treeInstance(t, topology.TreeOptions{N: 8, Seed: 5}, 200, 17)
	}
	asGraph, err := topology.Generate(topology.GenOptions{N: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		inst  func() *core.Instance
		class func(*core.Instance) *core.Class
	}{
		{
			name: "non-tree topology",
			inst: func() *core.Instance {
				inst := base()
				counts := *inst.Counts
				out, err := core.NewInstance(asGraph, &counts, core.DefaultCost(), core.QoS(1, 200))
				if err != nil {
					t.Fatal(err)
				}
				return out
			},
		},
		{
			name: "multiple intervals",
			inst: func() *core.Instance {
				inst := base()
				inst.Counts.Intervals = 2
				for n := range inst.Counts.Reads {
					inst.Counts.Reads[n] = append(inst.Counts.Reads[n], make([]int, inst.Counts.Objects))
					inst.Counts.Writes[n] = append(inst.Counts.Writes[n], make([]int, inst.Counts.Objects))
				}
				return inst
			},
		},
		{
			name: "fractional QoS goal",
			inst: func() *core.Instance {
				inst := base()
				inst.Goal.Tqos = 0.9
				return inst
			},
		},
		{
			name: "latency penalty cost",
			inst: func() *core.Instance {
				inst := base()
				inst.Cost.Gamma = 1
				return inst
			},
		},
		{
			name: "initial placement",
			inst: func() *core.Instance {
				inst := base()
				all := make([][]bool, inst.Topo.N)
				for n := range all {
					all[n] = slices.Repeat([]bool{true}, inst.Counts.Objects)
				}
				if err := inst.SetInitial(all); err != nil {
					t.Fatal(err)
				}
				return inst
			},
		},
		{
			name:  "storage-constrained class",
			inst:  base,
			class: func(*core.Instance) *core.Class { return core.StorageConstrained() },
		},
		{
			name:  "reactive class",
			inst:  base,
			class: func(*core.Instance) *core.Class { return core.Reactive() },
		},
		{
			name: "storage-free class with non-ancestor routing",
			inst: base,
			class: func(inst *core.Instance) *core.Class {
				// Local+origin routing without any storage constraint: the
				// rejection must come from the routing-matrix check itself.
				return &core.Class{Name: "local-routes", Fetch: inst.Topo.LocalPlusOrigin(), History: core.HistoryAll}
			},
		},
		{
			name: "restricted-knowledge class",
			inst: base,
			class: func(inst *core.Instance) *core.Class {
				return &core.Class{Name: "blinkered", Know: topology.IdentityMatrix(inst.Topo.N), History: core.HistoryAll}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := tc.inst()
			var class *core.Class
			if tc.class != nil {
				class = tc.class(inst)
			}
			if _, err := SolveInstance(inst, class); !errors.Is(err, ErrUnsupported) {
				t.Errorf("SolveInstance error = %v, want ErrUnsupported", err)
			}
		})
	}
}
