package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// The paper's NP-hardness reduction (Appendix A), reproduced for tests:
// SET-COVER maps to MC-PERF with one object, one interval, a 100% QoS goal,
// alpha = 1 and beta = 0. Candidate sets and elements become nodes;
// dist(element, set) = 1 exactly when the set covers the element. The
// minimal replication cost then equals the minimal number of covering sets.
//
// Our topology always lets a node reach itself, so the "element nodes
// cannot store for themselves" part of the reduction is expressed through
// the class's routing-knowledge (fetch) matrix, which the formulation
// combines with dist in the coverage constraint (18).

// setCoverReduction bundles the MC-PERF instance encoding a SET-COVER
// input.
type setCoverReduction struct {
	Instance *Instance
	Class    *Class
	// SetNode[s] is the node index of candidate set s; ElemNode[e] of
	// element e.
	SetNode  []int
	ElemNode []int
}

// newSetCoverReduction builds the Appendix A reduction for the given
// SET-COVER input: sets[s] lists the elements (0..numElements-1) covered by
// candidate set s.
func newSetCoverReduction(numElements int, sets [][]int) (*setCoverReduction, error) {
	if numElements <= 0 || len(sets) == 0 {
		return nil, errors.New("core: set cover needs elements and candidate sets")
	}
	const (
		near = 100   // within the latency threshold
		far  = 10000 // far beyond it
	)
	// Node layout: 0 = origin (kept far away so it covers nothing),
	// 1..len(sets) = candidate sets, then elements.
	numSets := len(sets)
	n := 1 + numSets + numElements
	setNode := make([]int, numSets)
	elemNode := make([]int, numElements)
	for s := range sets {
		setNode[s] = 1 + s
	}
	for e := 0; e < numElements; e++ {
		elemNode[e] = 1 + numSets + e
	}
	var links []topology.Link
	// Connect everything to the origin with far links so the graph is
	// connected without creating any within-threshold path.
	for v := 1; v < n; v++ {
		links = append(links, topology.Link{A: 0, B: v, Latency: far})
	}
	covered := make([]bool, numElements)
	for s, elems := range sets {
		for _, e := range elems {
			if e < 0 || e >= numElements {
				return nil, fmt.Errorf("core: set %d covers out-of-range element %d", s, e)
			}
			covered[e] = true
			links = append(links, topology.Link{A: setNode[s], B: elemNode[e], Latency: near})
		}
	}
	for e, c := range covered {
		if !c {
			return nil, fmt.Errorf("core: element %d is not covered by any set; SET-COVER is infeasible", e)
		}
	}
	topo, err := topology.New(n, links, 0)
	if err != nil {
		return nil, err
	}
	// Demand: one read per element node, single interval, single object.
	acc := make([]workload.Access, numElements)
	for e := range acc {
		acc[e] = workload.Access{Node: elemNode[e]}
	}
	tr := &workload.Trace{Accesses: acc, NumNodes: n, NumObjects: 1, Duration: time.Hour}
	counts, err := tr.Bucket(time.Hour)
	if err != nil {
		return nil, err
	}
	inst, err := NewInstance(topo, counts, Cost{Alpha: 1, Beta: 0}, QoS(1.0, near))
	if err != nil {
		return nil, err
	}
	// Elements may only fetch from the sets that cover them (never from
	// themselves); set nodes route globally (irrelevant: they have no
	// demand).
	fetch := topology.FullMatrix(n)
	for e := 0; e < numElements; e++ {
		row := fetch[elemNode[e]]
		for m := range row {
			row[m] = false
		}
	}
	for s, elems := range sets {
		for _, e := range elems {
			fetch[elemNode[e]][setNode[s]] = true
		}
	}
	class := &Class{Name: "set-cover-reduction", Fetch: fetch, History: HistoryAll, Unrestricted: true}
	return &setCoverReduction{Instance: inst, Class: class, SetNode: setNode, ElemNode: elemNode}, nil
}

// bruteForceSetCover returns the size of a minimum cover by exhaustive
// search (exponential; for tiny inputs only).
func bruteForceSetCover(numElements int, sets [][]int) int {
	best := len(sets) + 1
	for mask := 0; mask < 1<<len(sets); mask++ {
		covered := make([]bool, numElements)
		size := 0
		for s := range sets {
			if mask&(1<<s) == 0 {
				continue
			}
			size++
			for _, e := range sets[s] {
				covered[e] = true
			}
		}
		if size >= best {
			continue
		}
		all := true
		for _, c := range covered {
			if !c {
				all = false
				break
			}
		}
		if all {
			best = size
		}
	}
	return best
}

func TestSetCoverReduction(t *testing.T) {
	cases := []struct {
		name  string
		elems int
		sets  [][]int
	}{
		{"single set covers all", 3, [][]int{{0, 1, 2}}},
		{"two disjoint sets", 4, [][]int{{0, 1}, {2, 3}}},
		{"greedy trap", 6, [][]int{{0, 1, 2, 3}, {0, 1, 4}, {2, 3, 5}, {4, 5}}},
		{"singletons", 3, [][]int{{0}, {1}, {2}}},
		{"overlapping", 5, [][]int{{0, 1, 2}, {1, 2, 3}, {3, 4}, {0, 4}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			red, err := newSetCoverReduction(tc.elems, tc.sets)
			if err != nil {
				t.Fatal(err)
			}
			opt := float64(bruteForceSetCover(tc.elems, tc.sets))
			b, err := red.Instance.LowerBound(red.Class, BoundOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if b.LPBound > opt+1e-6 {
				t.Errorf("LP bound %g exceeds optimum %g", b.LPBound, opt)
			}
			if b.FeasibleCost < opt-1e-6 {
				t.Errorf("rounded cover %g below optimum %g (infeasible?)", b.FeasibleCost, opt)
			}
			// The greedy rounding achieves the optimum on these small
			// instances (ln(n)-approximation bound, exact here).
			if b.FeasibleCost > opt*2+1e-6 {
				t.Errorf("rounded cover %g too far above optimum %g", b.FeasibleCost, opt)
			}
		})
	}
}

func TestSetCoverReductionValidation(t *testing.T) {
	if _, err := newSetCoverReduction(0, [][]int{{0}}); err == nil {
		t.Error("zero elements accepted")
	}
	if _, err := newSetCoverReduction(2, [][]int{{0}}); err == nil {
		t.Error("uncoverable element accepted")
	}
	if _, err := newSetCoverReduction(2, [][]int{{0, 5}}); err == nil {
		t.Error("out-of-range element accepted")
	}
}

func TestBruteForceSetCover(t *testing.T) {
	if got := bruteForceSetCover(3, [][]int{{0, 1, 2}}); got != 1 {
		t.Errorf("got %d, want 1", got)
	}
	if got := bruteForceSetCover(4, [][]int{{0, 1}, {2, 3}, {0, 2}}); got != 2 {
		t.Errorf("got %d, want 2", got)
	}
	if got := bruteForceSetCover(2, [][]int{{0}}); got != 3+1-1 {
		// One set, element 1 uncovered: sentinel len(sets)+1 = 2.
		if got != 2 {
			t.Errorf("got %d, want sentinel 2", got)
		}
	}
}
