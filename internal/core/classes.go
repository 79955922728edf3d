package core

import (
	"fmt"

	"wideplace/internal/topology"
)

// ConstraintKind selects a variant of the storage or replica constraint
// (paper constraints 16/16a and 17/17a).
type ConstraintKind int

// Storage/replica constraint variants.
const (
	// NoConstraint leaves the resource unconstrained.
	NoConstraint ConstraintKind = iota
	// Uniform fixes the same amount on every node (storage, eq. 16) or for
	// every object (replicas, eq. 17), constant over time.
	Uniform
	// PerEntity fixes a per-node capacity (eq. 16a) or per-object
	// replication factor (eq. 17a), constant over time.
	PerEntity
)

// HistoryAll marks an unbounded activity history (all past intervals).
const HistoryAll = -1

// Class describes a class of replica placement heuristics through the six
// properties of paper Table 2. The zero value is the unconstrained class
// (the general lower bound).
type Class struct {
	// Name identifies the class in reports.
	Name string
	// Storage applies the storage-constraint property (SC).
	Storage ConstraintKind
	// Replica applies the replica-constraint property (RC).
	Replica ConstraintKind
	// Fetch is the routing-knowledge matrix (nil = global routing:
	// replicas anywhere may serve anyone).
	Fetch [][]bool
	// Know is the placement-knowledge matrix (nil = global knowledge).
	Know [][]bool
	// History is the number of past intervals whose activity may trigger a
	// placement (HistoryAll = unbounded).
	History int
	// Reactive restricts placements to objects accessed strictly before
	// the current interval (constraint 20a); false means proactive
	// placement with knowledge of the current interval (constraint 20).
	Reactive bool
	// Unrestricted disables even the WLOG activity-history bound, yielding
	// the pure general bound of Section 3.1.
	Unrestricted bool
}

// fetchMatrix resolves the routing matrix, defaulting to global routing.
func (c *Class) fetchMatrix(t *topology.Topology) [][]bool {
	if c == nil || c.Fetch == nil {
		return topology.FullMatrix(t.N)
	}
	return c.Fetch
}

// knowMatrix resolves the knowledge matrix, defaulting to global knowledge.
func (c *Class) knowMatrix(t *topology.Topology) [][]bool {
	if c == nil || c.Know == nil {
		return topology.FullMatrix(t.N)
	}
	return c.Know
}

// history resolves the activity-history window.
func (c *Class) history() int {
	if c == nil || c.Unrestricted {
		return HistoryAll
	}
	return c.History
}

// General returns the unconstrained class: its bound is the general lower
// bound that applies to every possible placement algorithm.
func General() *Class {
	return &Class{Name: "general", History: HistoryAll, Unrestricted: true}
}

// Classes builds the registry of paper Table 3 for a concrete system. tlat
// is the latency threshold used for the cooperative-caching neighborhoods.
func Classes(t *topology.Topology, tlat float64) []*Class {
	return []*Class{
		General(),
		StorageConstrained(),
		ReplicaConstrained(),
		DecentralLocalRouting(t),
		Caching(t),
		CoopCaching(t, tlat),
		CachingPrefetch(t),
		CoopCachingPrefetch(t, tlat),
	}
}

// ClassNames lists every class name resolvable by ClassByName, in registry
// order. The list is static: class names do not depend on the topology.
func ClassNames() []string {
	return []string{
		"general",
		"storage-constrained",
		"replica-constrained",
		"decentral-local-routing",
		"caching",
		"coop-caching",
		"caching-prefetch",
		"coop-caching-prefetch",
		"reactive",
		"tree-upwards",
	}
}

// ClassByName resolves a class from the Table 3 registry (plus the reactive
// class of Sec. 6.2 and the tree-upwards policy class) by name,
// materialized for a concrete topology and latency threshold.
func ClassByName(t *topology.Topology, tlat float64, name string) (*Class, error) {
	if name == "tree-upwards" {
		return TreeUpwards(t)
	}
	for _, c := range append(Classes(t, tlat), Reactive()) {
		if c.Name == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("core: unknown class %q; available: %v", name, ClassNames())
}

// StorageConstrained returns the class of centralized heuristics that use
// the same fixed storage on every node in every interval (global knowledge,
// global routing, multi-interval history): Table 3 row 1.
func StorageConstrained() *Class {
	return &Class{
		Name:    "storage-constrained",
		Storage: Uniform,
		History: HistoryAll,
	}
}

// ReplicaConstrained returns the class of centralized heuristics that keep
// a fixed number of replicas per object (Table 3 row 2, e.g. Qiu et al.).
func ReplicaConstrained() *Class {
	return &Class{
		Name:    "replica-constrained",
		Replica: Uniform,
		History: HistoryAll,
	}
}

// DecentralLocalRouting returns decentralized storage-constrained
// heuristics with local routing (Table 3 row 3): fixed per-node storage,
// misses served only by the origin, but placement may use global knowledge.
func DecentralLocalRouting(t *topology.Topology) *Class {
	return &Class{
		Name:    "decentral-local-routing",
		Storage: Uniform,
		Fetch:   t.LocalPlusOrigin(),
		History: HistoryAll,
	}
}

// Caching returns the class of plain local caching heuristics (Table 3
// row 4, e.g. LRU): fixed storage, local routing (origin on miss), local
// knowledge, single-interval history, reactive.
func Caching(t *topology.Topology) *Class {
	return &Class{
		Name:     "caching",
		Storage:  Uniform,
		Fetch:    t.LocalPlusOrigin(),
		Know:     topology.IdentityMatrix(t.N),
		History:  1,
		Reactive: true,
	}
}

// CoopCaching returns the class of cooperative caching heuristics (Table 3
// row 5): like caching but with routing and placement knowledge extended to
// nodes within the latency threshold.
func CoopCaching(t *topology.Topology, tlat float64) *Class {
	return &Class{
		Name:     "coop-caching",
		Storage:  Uniform,
		Fetch:    t.CooperativeFetch(tlat),
		Know:     t.CooperativeKnow(tlat),
		History:  1,
		Reactive: true,
	}
}

// CachingPrefetch returns local caching with prefetching (Table 3 row 6):
// proactive placement using knowledge of the current interval.
func CachingPrefetch(t *topology.Topology) *Class {
	return &Class{
		Name:    "caching-prefetch",
		Storage: Uniform,
		Fetch:   t.LocalPlusOrigin(),
		Know:    topology.IdentityMatrix(t.N),
		History: 1,
	}
}

// CoopCachingPrefetch returns cooperative caching with prefetching (Table 3
// row 7).
func CoopCachingPrefetch(t *topology.Topology, tlat float64) *Class {
	return &Class{
		Name:    "coop-caching-prefetch",
		Storage: Uniform,
		Fetch:   t.CooperativeFetch(tlat),
		Know:    t.CooperativeKnow(tlat),
		History: 1,
	}
}

// Reactive returns the reactive general class used by the deployment
// scenario of Section 6.2 ("we do not consider prefetching; all heuristics
// considered are reactive").
func Reactive() *Class {
	return &Class{Name: "reactive", History: HistoryAll, Reactive: true}
}

// TreeUpwards returns the upwards allocation policy of the tree-network
// replica-placement literature (Benoit–Rehn–Robert) as a heuristic class:
// a request may only be served by a replica on the client's path to the
// origin. Expressed in MC-PERF terms that is a routing restriction —
// Fetch is the ancestor-or-self matrix — with global knowledge and an
// unbounded history. The class only exists on tree topologies; resolving
// it on anything else is an error. Its covering rows are root-paths,
// whose constraint matrices are totally balanced, so the LP relaxation is
// integral on single-interval Tqos=1 instances — the property the exact
// oracle's gap tests lean on.
func TreeUpwards(t *topology.Topology) (*Class, error) {
	fetch, err := t.AncestorMatrix()
	if err != nil {
		return nil, fmt.Errorf("core: class tree-upwards needs a tree topology: %w", err)
	}
	return &Class{Name: "tree-upwards", Fetch: fetch, History: HistoryAll}, nil
}

// createAllowed computes, for a class, whether object k may be created on
// node n at the start of interval i given the workload: the activity
// history and reactive properties (constraints 20/20a) evaluated over the
// class's sphere of knowledge. The result indexes [n][i][k].
func (in *Instance) createAllowed(class *Class) [][][]bool {
	nN, nI, nK := in.Dims()
	out := make([][][]bool, nN)
	if class == nil || class.Unrestricted {
		for n := range out {
			out[n] = nil // nil means "always allowed"
		}
		return out
	}
	know := class.knowMatrix(in.Topo)
	hist := class.history()

	// accessedAt[m][k] is the sorted list of intervals where m read or
	// wrote k; we precompute a prefix "accessed in [a, b]" structure as a
	// per-(m,k) earliest/latest pass over intervals. Simpler: build
	// accessed[m][i][k] bool and prefix-OR over the window per (n,i,k)
	// with a sliding window count.
	accessed := make([][][]bool, nN)
	for m := 0; m < nN; m++ {
		accessed[m] = make([][]bool, nI)
		for i := 0; i < nI; i++ {
			accessed[m][i] = make([]bool, nK)
			for k := 0; k < nK; k++ {
				accessed[m][i][k] = in.Counts.Reads[m][i][k] > 0 || in.Counts.Writes[m][i][k] > 0
			}
		}
	}
	// sphereActive[n][i][k]: some m in n's sphere accessed k in interval i.
	sphereActive := func(n, i, k int) bool {
		for m := 0; m < nN; m++ {
			if know[n][m] && accessed[m][i][k] {
				return true
			}
		}
		return false
	}
	for n := 0; n < nN; n++ {
		out[n] = make([][]bool, nI)
		// sphereInit[k]: some node in n's sphere held k initially; by
		// constraint (21) that counts as history at interval -1.
		var sphereInit []bool
		if in.Initial != nil {
			sphereInit = make([]bool, nK)
			for m := 0; m < nN; m++ {
				if !know[n][m] {
					continue
				}
				for k := 0; k < nK; k++ {
					if in.Initial[m][k] {
						sphereInit[k] = true
					}
				}
			}
		}
		// windowCount[k] counts active intervals of the current window.
		windowCount := make([]int, nK)
		// The window for creation at interval i is [i-hist+1, i] when
		// proactive and [i-hist, i-1] when reactive (hist = HistoryAll
		// means the window extends to the start).
		lo, hi := 0, -1 // current window [lo, hi] inclusive, empty initially
		add := func(i int) {
			for k := 0; k < nK; k++ {
				if sphereActive(n, i, k) {
					windowCount[k]++
				}
			}
		}
		remove := func(i int) {
			for k := 0; k < nK; k++ {
				if sphereActive(n, i, k) {
					windowCount[k]--
				}
			}
		}
		for i := 0; i < nI; i++ {
			wantHi := i
			if class.Reactive {
				wantHi = i - 1
			}
			wantLo := 0
			coversInitial := hist == HistoryAll
			if hist != HistoryAll {
				wantLo = wantHi - hist + 1
				if wantLo <= -1 {
					coversInitial = true
				}
				if wantLo < 0 {
					wantLo = 0
				}
			}
			coversInitial = coversInitial && wantHi >= -1
			for hi < wantHi {
				hi++
				if hi >= 0 {
					add(hi)
				}
			}
			for lo < wantLo {
				remove(lo)
				lo++
			}
			row := make([]bool, nK)
			for k := 0; k < nK; k++ {
				row[k] = (windowCount[k] > 0 && wantHi >= wantLo && wantHi >= 0) ||
					(coversInitial && sphereInit != nil && sphereInit[k])
			}
			out[n][i] = row
		}
	}
	return out
}

// firstAllowed returns, for a class, the earliest interval in which node n
// may create object k, indexed [n][k], with nI meaning never. It equals the
// first true cell of createAllowed's [n][.][k] but never builds that
// tensor. Let f be the first interval in which n's sphere of knowledge
// accessed k. With a non-empty history window (HistoryAll or at least one
// interval), creation first opens at f, or at f+1 when reactive: that is
// the first window to hold f. Before it no window holds an access. An
// initial replica in the sphere counts as history at interval -1 (paper
// constraint 21), so it opens creation at interval 0 whenever the window
// of interval 0 reaches back to -1: an unbounded history, or History >= 2
// (proactive) or >= 1 (reactive).
func (in *Instance) firstAllowed(class *Class) [][]int {
	nN, nI, nK := in.Dims()
	out := make([][]int, nN)
	if class == nil || class.Unrestricted {
		for n := range out {
			out[n] = make([]int, nK) // always allowed
		}
		return out
	}
	know := class.knowMatrix(in.Topo)
	hist := class.history()
	lag := 0
	if class.Reactive {
		lag = 1
	}
	windowOpen := hist == HistoryAll || hist >= 1
	initialCounts := in.Initial != nil && (hist == HistoryAll || hist >= 2-lag)

	// firstAccess[m][k]: the first interval in which m read or wrote k.
	firstAccess := make([][]int, nN)
	for m := range firstAccess {
		row := make([]int, nK)
		for k := range row {
			row[k] = nI
		}
		for i := nI - 1; i >= 0; i-- {
			reads, writes := in.Counts.Reads[m][i], in.Counts.Writes[m][i]
			for k := range row {
				if reads[k] > 0 || writes[k] > 0 {
					row[k] = i
				}
			}
		}
		firstAccess[m] = row
	}
	for n := range out {
		row := make([]int, nK)
		for k := range row {
			row[k] = nI
		}
		for m := 0; m < nN; m++ {
			if !know[n][m] {
				continue
			}
			for k := range row {
				if windowOpen && firstAccess[m][k]+lag < row[k] {
					row[k] = firstAccess[m][k] + lag
				}
				if initialCounts && in.Initial[m][k] {
					row[k] = 0
				}
			}
		}
		out[n] = row
	}
	return out
}
