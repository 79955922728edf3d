package exact

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"wideplace/internal/xrand"
)

// check verifies a Placement against the Problem with an independent
// recomputation of the policy's assignment: replica indices in range,
// root excluded, cost consistent, every demand served within its bound
// and no replica over capacity. Tests and the fuzz harness use it to
// cross-validate both solvers' witnesses.
func (p *Problem) check(pl *Placement) error {
	t, err := buildTree(p)
	if err != nil {
		return err
	}
	if want := p.costPer() * float64(len(pl.Replicas)); pl.Cost != want {
		return fmt.Errorf("exact: cost %g does not match %d replicas at %g each", pl.Cost, len(pl.Replicas), p.costPer())
	}
	cp := &Placement{Replicas: append([]int(nil), pl.Replicas...), Cost: pl.Cost, Server: make([]int, t.n)}
	return assignServers(p, t, cp)
}

// path4 is the line 0 - 1 - 2 - 3 rooted at 0 with 100ms edges.
func path4() Problem {
	return Problem{
		Parent:  []int{-1, 0, 1, 2},
		EdgeLat: []float64{0, 100, 100, 100},
		Demand:  []float64{0, 0, 0, 1},
	}
}

// fork4 is root 0 with child 1 (100ms) forking into leaves 2 and 3 (50ms
// each). Node 2 demands with a zero latency budget, node 3 with 100ms —
// the instance where global (any) routing is strictly cheaper than
// upwards routing.
func fork4() Problem {
	return Problem{
		Parent:  []int{-1, 0, 1, 1},
		EdgeLat: []float64{0, 100, 50, 50},
		Demand:  []float64{0, 0, 1, 1},
		QoS:     []float64{0, 0, 0, 100},
	}
}

// TestSolveTable pins the DP's behavior on hand-checkable instances for
// every policy.
func TestSolveTable(t *testing.T) {
	star := Problem{
		// Root 0 with leaves 1..3 at 200ms, all demanding.
		Parent:  []int{-1, 0, 0, 0},
		EdgeLat: []float64{0, 200, 200, 200},
		Demand:  []float64{0, 1, 1, 1},
	}
	cases := []struct {
		name     string
		problem  func() Problem
		mutate   func(*Problem)
		replicas []int
		cost     float64
		server   []int
	}{
		{
			name:    "origin covers everything when the bound is loose",
			problem: path4,
			mutate: func(p *Problem) {
				p.Bound = 300
			},
			replicas: nil,
			cost:     0,
			server:   []int{-1, -1, -1, 0},
		},
		{
			name:    "replica forced at the deepest node that still reaches the demand",
			problem: path4,
			mutate: func(p *Problem) {
				p.Bound = 150
			},
			// Node 3's slack (150) survives the edge to 2 (100 -> slack 50)
			// but not the edge to 1, so the greedy places at node 2.
			replicas: []int{2},
			cost:     1,
			server:   []int{-1, -1, -1, 2},
		},
		{
			name:    "zero bound pins the replica onto the demand node",
			problem: path4,
			mutate: func(p *Problem) {
				p.Bound = 0
			},
			replicas: []int{3},
			cost:     1,
			server:   []int{-1, -1, -1, 3},
		},
		{
			name:    "per-node QoS overrides the uniform bound",
			problem: path4,
			mutate: func(p *Problem) {
				p.Demand = []float64{0, 1, 0, 1}
				p.QoS = []float64{1000, 1000, 1000, 120}
			},
			// Node 1 reaches the origin within 1000; node 3's personal
			// 120ms budget survives one edge but not two, placing at 2.
			replicas: []int{2},
			cost:     1,
			server:   []int{-1, 0, -1, 2},
		},
		{
			name:    "zero demand needs zero replicas even under a zero bound",
			problem: path4,
			mutate: func(p *Problem) {
				p.Demand = []float64{0, 0, 0, 0}
			},
			replicas: nil,
			cost:     0,
			server:   []int{-1, -1, -1, -1},
		},
		{
			name:    "cost scales with CostPerReplica",
			problem: func() Problem { return star },
			mutate: func(p *Problem) {
				p.Bound = 150
				p.CostPerReplica = 2.5
			},
			// Each leaf is 200ms from everyone else: one replica per leaf.
			replicas: []int{1, 2, 3},
			cost:     7.5,
			server:   []int{-1, 1, 2, 3},
		},
		{
			name:    "any-policy reuses a forced sibling replica across branches",
			problem: fork4,
			mutate: func(p *Problem) {
				p.Policy = PolicyAny
			},
			// Node 2's zero budget forces a replica there; node 3 (budget
			// 100) reaches it across the fork (50+50), so one suffices.
			replicas: []int{2},
			cost:     1,
			server:   []int{-1, -1, 2, 2},
		},
		{
			name:    "upwards pays a second replica for the same fork",
			problem: fork4,
			mutate: func(p *Problem) {
				p.Policy = PolicyUpwards
			},
			// Node 3 may only look up its own root path, where the forced
			// replica at 2 does not sit; node 1 is the cheapest cover.
			replicas: []int{1, 2},
			cost:     2,
			server:   []int{-1, -1, 2, 1},
		},
		{
			name:    "upwards routing cannot cross branches",
			problem: func() Problem { return star },
			mutate: func(p *Problem) {
				p.Bound = 150
				p.Policy = PolicyUpwards
			},
			replicas: []int{1, 2, 3},
			cost:     3,
			server:   []int{-1, 1, 2, 3},
		},
		{
			name:    "closest capacity splits one replica into two",
			problem: path4,
			mutate: func(p *Problem) {
				p.Bound = 150
				p.Policy = PolicyClosest
				p.Demand = []float64{0, 1, 1, 1}
				p.Capacity = 1
			},
			// Uncapacitated, one replica at 2 serves nodes 2 and 3 and the
			// origin serves node 1; with capacity 1 the load must split, and
			// {2, 3} is the unique feasible pair ({1, 3} would pile nodes 1
			// and 2 onto the replica at 1).
			replicas: []int{2, 3},
			cost:     2,
			server:   []int{-1, 0, 2, 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.problem()
			tc.mutate(&p)
			pl, err := Solve(p)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if !reflect.DeepEqual(pl.Replicas, tc.replicas) {
				t.Errorf("replicas = %v, want %v", pl.Replicas, tc.replicas)
			}
			if pl.Cost != tc.cost {
				t.Errorf("cost = %g, want %g", pl.Cost, tc.cost)
			}
			if !reflect.DeepEqual(pl.Server, tc.server) {
				t.Errorf("servers = %v, want %v", pl.Server, tc.server)
			}
			if err := p.check(pl); err != nil {
				t.Errorf("check rejected Solve's own placement: %v", err)
			}
		})
	}
}

// TestSolveInfeasible: capacity can make an instance unsatisfiable, and
// both solvers must say so with ErrInfeasible.
func TestSolveInfeasible(t *testing.T) {
	p := Problem{
		Parent:   []int{-1, 0},
		EdgeLat:  []float64{0, 100},
		Demand:   []float64{0, 5},
		Bound:    50, // the origin is out of reach, node 1 must self-host
		Policy:   PolicyClosest,
		Capacity: 1, // ...but cannot carry its own load
	}
	if _, err := Solve(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("Solve error = %v, want ErrInfeasible", err)
	}
	if _, err := BruteForce(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("BruteForce error = %v, want ErrInfeasible", err)
	}
}

// TestSolveRejectsBadProblems: malformed trees and unsupported
// policy/capacity combinations must error, not mis-solve.
func TestSolveRejectsBadProblems(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Problem)
	}{
		{"empty problem", func(p *Problem) { p.Parent = nil; p.EdgeLat = nil; p.Demand = nil }},
		{"length mismatch", func(p *Problem) { p.EdgeLat = p.EdgeLat[:2] }},
		{"QoS length mismatch", func(p *Problem) { p.QoS = []float64{1, 2} }},
		{"no root", func(p *Problem) { p.Parent[0] = 1 }},
		{"two roots", func(p *Problem) { p.Parent[1] = -1 }},
		{"parent out of range", func(p *Problem) { p.Parent[3] = 9 }},
		{"self parent", func(p *Problem) { p.Parent[3] = 3 }},
		{"parent cycle", func(p *Problem) { p.Parent[2] = 3 }},
		{"negative latency", func(p *Problem) { p.EdgeLat[1] = -1 }},
		{"negative demand", func(p *Problem) { p.Demand[3] = -1 }},
		{"negative bound", func(p *Problem) { p.Bound = -1 }},
		{"negative capacity", func(p *Problem) { p.Policy = PolicyClosest; p.Capacity = -1 }},
		{"capacity under any", func(p *Problem) { p.Policy = PolicyAny; p.Capacity = 10 }},
		{"capacity under upwards", func(p *Problem) { p.Policy = PolicyUpwards; p.Capacity = 10 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := path4()
			p.Bound = 500
			tc.mutate(&p)
			if _, err := Solve(p); err == nil {
				t.Error("Solve accepted the malformed problem")
			}
			if _, err := BruteForce(p); err == nil {
				t.Error("BruteForce accepted the malformed problem")
			}
		})
	}
}

// TestBruteForceSizeCap: the enumerator refuses instances beyond
// MaxBruteNodes instead of hanging.
func TestBruteForceSizeCap(t *testing.T) {
	n := MaxBruteNodes + 1
	p := Problem{Parent: make([]int, n), EdgeLat: make([]float64, n), Demand: make([]float64, n), Bound: 100}
	p.Parent[0] = -1
	for v := 1; v < n; v++ {
		p.Parent[v] = v - 1
		p.EdgeLat[v] = 1
	}
	if _, err := BruteForce(p); err == nil {
		t.Errorf("BruteForce accepted %d nodes", n)
	}
	if _, err := Solve(p); err != nil {
		t.Errorf("Solve has no size cap but errored: %v", err)
	}
}

// TestCheckCatchesLies: Problem.check must reject placements whose cost,
// replica set or feasibility is wrong — it is what the differential tests
// trust.
func TestCheckCatchesLies(t *testing.T) {
	p := path4()
	p.Bound = 150
	good, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for name, pl := range map[string]*Placement{
		"wrong cost":       {Replicas: good.Replicas, Cost: good.Cost + 1},
		"root as replica":  {Replicas: []int{0}, Cost: 1},
		"out of range":     {Replicas: []int{7}, Cost: 1},
		"missing coverage": {Replicas: nil, Cost: 0},
		"too-high placed":  {Replicas: []int{1}, Cost: 1},
	} {
		if err := p.check(pl); err == nil {
			t.Errorf("%s: check accepted a bad placement", name)
		}
	}
	if err := p.check(good); err != nil {
		t.Errorf("check rejected the optimal placement: %v", err)
	}
}

// randomTreeProblem draws a random problem with integer-valued latencies,
// bounds and demands so the DP's slack chains (repeated subtraction) and
// the brute force's distance sums agree exactly in floating point.
func randomTreeProblem(rng *xrand.Rand, n int) Problem {
	p := Problem{
		Parent:  make([]int, n),
		EdgeLat: make([]float64, n),
		Demand:  make([]float64, n),
		Bound:   float64(rng.Intn(401)),
		Policy:  Policy(rng.Intn(3)),
	}
	p.Parent[0] = -1
	for v := 1; v < n; v++ {
		switch rng.Intn(3) {
		case 0: // path-ish
			p.Parent[v] = v - 1
		case 1: // shallow
			p.Parent[v] = 0
		default: // random attachment
			p.Parent[v] = rng.Intn(v)
		}
		p.EdgeLat[v] = float64(rng.Intn(201))
	}
	for v := 0; v < n; v++ {
		p.Demand[v] = float64(rng.Intn(5))
	}
	if rng.Intn(3) == 0 {
		p.QoS = make([]float64, n)
		for v := range p.QoS {
			p.QoS[v] = float64(rng.Intn(401))
		}
	}
	if p.Policy == PolicyClosest && rng.Intn(2) == 0 {
		p.Capacity = float64(1 + rng.Intn(12))
	}
	return p
}

// TestSolveMatchesBruteRandom is the differential property test: on
// hundreds of random trees of up to 12 nodes, the DP and the subset
// enumerator must agree on the optimal cost (and on infeasibility), and
// both witnesses must pass the independent check.
func TestSolveMatchesBruteRandom(t *testing.T) {
	rng := xrand.New(8)
	for it := 0; it < 300; it++ {
		n := 2 + rng.Intn(11)
		p := randomTreeProblem(rng, n)
		dp, errDP := Solve(p)
		bf, errBF := BruteForce(p)
		switch {
		case errDP != nil && errBF != nil:
			if !errors.Is(errDP, ErrInfeasible) || !errors.Is(errBF, ErrInfeasible) {
				t.Fatalf("it %d: unexpected errors: dp=%v brute=%v\nproblem: %+v", it, errDP, errBF, p)
			}
		case errDP != nil || errBF != nil:
			t.Fatalf("it %d: solvers disagree on feasibility: dp=%v brute=%v\nproblem: %+v", it, errDP, errBF, p)
		default:
			if dp.Cost != bf.Cost {
				t.Fatalf("it %d: dp cost %g != brute cost %g\ndp: %v\nbrute: %v\nproblem: %+v",
					it, dp.Cost, bf.Cost, dp.Replicas, bf.Replicas, p)
			}
			if err := p.check(dp); err != nil {
				t.Fatalf("it %d: dp witness fails check: %v\nproblem: %+v", it, err, p)
			}
			if err := p.check(bf); err != nil {
				t.Fatalf("it %d: brute witness fails check: %v\nproblem: %+v", it, err, p)
			}
		}
	}
}
