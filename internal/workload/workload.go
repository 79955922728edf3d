// Package workload represents access traces and generates the synthetic
// WEB and GROUP workloads of the paper's evaluation (Sec. 6).
//
// A Trace is a time-ordered stream of object accesses originating at sites.
// The MC-PERF formulation consumes a Trace bucketed into evaluation
// intervals (Counts); the simulator replays the raw stream.
package workload

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Access is one request in a trace.
type Access struct {
	At     time.Duration // offset from the start of the trace
	Node   int           // originating site
	Object int
	Write  bool
}

// Trace is a time-ordered sequence of accesses over a fixed horizon.
type Trace struct {
	Accesses   []Access
	NumNodes   int
	NumObjects int
	Duration   time.Duration
}

// Validate checks internal consistency of the trace.
func (t *Trace) Validate() error {
	if t.NumNodes <= 0 || t.NumObjects <= 0 {
		return errors.New("workload: trace needs at least one node and object")
	}
	if t.Duration <= 0 {
		return errors.New("workload: trace duration must be positive")
	}
	var prev time.Duration
	for i, a := range t.Accesses {
		if a.At < 0 {
			return fmt.Errorf("workload: access %d at negative time %v", i, a.At)
		}
		if a.At < prev {
			return fmt.Errorf("workload: access %d out of time order", i)
		}
		prev = a.At
		if a.Node < 0 || a.Node >= t.NumNodes {
			return fmt.Errorf("workload: access %d: node %d out of range", i, a.Node)
		}
		if a.Object < 0 || a.Object >= t.NumObjects {
			return fmt.Errorf("workload: access %d: object %d out of range", i, a.Object)
		}
		if a.At >= t.Duration {
			return fmt.Errorf("workload: access %d at %v beyond duration %v", i, a.At, t.Duration)
		}
	}
	return nil
}

// sortAccesses sorts in place by time, breaking ties by node then object so
// generation is fully deterministic.
func sortAccesses(a []Access) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].At != a[j].At {
			return a[i].At < a[j].At
		}
		if a[i].Node != a[j].Node {
			return a[i].Node < a[j].Node
		}
		return a[i].Object < a[j].Object
	})
}

// Counts is a trace bucketed into evaluation intervals: Reads[n][i][k] is
// the number of reads from node n to object k during interval i (the
// read_nik of the paper), and likewise Writes. Both tensors are dense:
// every consumer indexes them cell by cell, and the one-pass aggregator
// allocates them anyway.
type Counts struct {
	Reads     [][][]int
	Writes    [][][]int
	Nodes     int
	Intervals int
	Objects   int
	Delta     time.Duration
}

// MaxCells caps the nodes x intervals x objects cells of one Counts. Its
// two dense tensors are allocated whole, and systems arrive in untrusted
// job bodies, so the shape is checked before anything is allocated. 2^24
// cells (256 MiB of counts) is 35 times the paper's full GROUP instance
// (20 x 24 x 1,000).
const MaxCells = 1 << 24

// Intervals returns the number of delta-long evaluation intervals in a
// horizon (the final one absorbs any remainder), or an error when delta
// is not positive or the counts of nodes x intervals x objects would
// exceed MaxCells. The count stays a Duration quotient, and every product
// is checked by division, until it is known to fit.
func Intervals(nodes, objects int, duration, delta time.Duration) (int, error) {
	if delta <= 0 {
		return 0, errors.New("workload: interval must be positive")
	}
	ni := duration / delta
	if ni*delta < duration {
		ni++
	}
	if ni <= 0 {
		ni = 1
	}
	cells := int64(1)
	for _, d := range []int64{int64(nodes), int64(ni), int64(objects)} {
		if d > 0 && cells > MaxCells/d {
			return 0, fmt.Errorf("workload: %d nodes x %d intervals x %d objects exceeds the supported maximum of %d count cells",
				nodes, ni, objects, MaxCells)
		}
		cells *= d
	}
	return int(ni), nil
}

// Bucket aggregates the trace into intervals of length delta. The final
// interval absorbs any remainder of the horizon.
func (t *Trace) Bucket(delta time.Duration) (*Counts, error) {
	ni, err := Intervals(t.NumNodes, t.NumObjects, t.Duration, delta)
	if err != nil {
		return nil, err
	}
	c := &Counts{
		Nodes: t.NumNodes, Intervals: ni, Objects: t.NumObjects, Delta: delta,
		Reads:  alloc3(t.NumNodes, ni, t.NumObjects),
		Writes: alloc3(t.NumNodes, ni, t.NumObjects),
	}
	bucket(c.Reads, c.Writes, t.Accesses, delta, ni)
	return c, nil
}

// bucket adds each access to its [node][interval][object] cell of reads or
// writes; accesses past the last of the ni intervals land in it. It is the
// one bucketing kernel behind Trace.Bucket and Stream.Counts.
func bucket(reads, writes [][][]int, accs []Access, delta time.Duration, ni int) {
	for _, a := range accs {
		i := int(a.At / delta)
		if i >= ni {
			i = ni - 1
		}
		if a.Write {
			writes[a.Node][i][a.Object]++
		} else {
			reads[a.Node][i][a.Object]++
		}
	}
}

// alloc3 allocates an n x i x k tensor backed by a single slice.
func alloc3(n, i, k int) [][][]int {
	backing := make([]int, n*i*k)
	out := make([][][]int, n)
	for a := 0; a < n; a++ {
		out[a] = make([][]int, i)
		for b := 0; b < i; b++ {
			out[a][b], backing = backing[:k:k], backing[k:]
		}
	}
	return out
}

// Reassign sums each site's counts into the open site that serves it
// (assign, see topology.Restrict) and renumbers the sites to
// 0..len(open)-1 following open. Bucketing commutes with relabelling the
// sites, so the result equals bucketing the trace after mapping each
// access to its open site.
func (c *Counts) Reassign(assign []int, open []int) (*Counts, error) {
	if len(assign) != c.Nodes {
		return nil, fmt.Errorf("workload: assignment covers %d nodes, counts have %d", len(assign), c.Nodes)
	}
	newIndex := make(map[int]int, len(open))
	for i, o := range open {
		newIndex[o] = i
	}
	out := &Counts{
		Nodes: len(open), Intervals: c.Intervals, Objects: c.Objects, Delta: c.Delta,
		Reads:  alloc3(len(open), c.Intervals, c.Objects),
		Writes: alloc3(len(open), c.Intervals, c.Objects),
	}
	for n := 0; n < c.Nodes; n++ {
		to, ok := newIndex[assign[n]]
		if !ok {
			return nil, fmt.Errorf("workload: node %d assigned to non-open site %d", n, assign[n])
		}
		for i := 0; i < c.Intervals; i++ {
			for k := 0; k < c.Objects; k++ {
				out.Reads[to][i][k] += c.Reads[n][i][k]
				out.Writes[to][i][k] += c.Writes[n][i][k]
			}
		}
	}
	return out, nil
}

// Stats summarizes a trace; used by documentation output and tests.
type Stats struct {
	Requests     int
	Reads        int
	Writes       int
	HottestObj   int
	HottestCount int
	ColdestObj   int
	ColdestCount int
	ActiveNodes  int
}

// Describe computes summary statistics for the trace.
func Describe(t *Trace) Stats {
	objCount := make([]int, t.NumObjects)
	nodeSeen := make([]bool, t.NumNodes)
	s := Stats{Requests: len(t.Accesses)}
	for _, a := range t.Accesses {
		objCount[a.Object]++
		nodeSeen[a.Node] = true
		if a.Write {
			s.Writes++
		} else {
			s.Reads++
		}
	}
	s.ColdestCount = -1
	for k, c := range objCount {
		if c > s.HottestCount {
			s.HottestCount, s.HottestObj = c, k
		}
		if s.ColdestCount < 0 || c < s.ColdestCount {
			s.ColdestCount, s.ColdestObj = c, k
		}
	}
	for _, seen := range nodeSeen {
		if seen {
			s.ActiveNodes++
		}
	}
	return s
}
