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

// Bucket aggregates the trace into intervals of length delta. The final
// interval absorbs any remainder of the horizon.
func (t *Trace) Bucket(delta time.Duration) (*Counts, error) {
	if delta <= 0 {
		return nil, errors.New("workload: interval must be positive")
	}
	ni := intervalCount(t.Duration, delta)
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

// Reassign maps every access through the given site assignment (see
// topology.Restrict) and renumbers nodes to 0..len(open)-1 following open.
// It returns a new trace over the reduced node set.
func (t *Trace) Reassign(assign []int, open []int) (*Trace, error) {
	if len(assign) != t.NumNodes {
		return nil, fmt.Errorf("workload: assignment covers %d nodes, trace has %d", len(assign), t.NumNodes)
	}
	newIndex := make(map[int]int, len(open))
	for i, o := range open {
		newIndex[o] = i
	}
	out := &Trace{
		Accesses:   make([]Access, len(t.Accesses)),
		NumNodes:   len(open),
		NumObjects: t.NumObjects,
		Duration:   t.Duration,
	}
	for i, a := range t.Accesses {
		ni, ok := newIndex[assign[a.Node]]
		if !ok {
			return nil, fmt.Errorf("workload: node %d assigned to non-open site %d", a.Node, assign[a.Node])
		}
		a.Node = ni
		out.Accesses[i] = a
	}
	return out, nil
}
