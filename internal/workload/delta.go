package workload

import (
	"fmt"
)

// IntervalReads returns a copy of the per-(node, object) read matrix of
// interval i: out[n][k] == Reads[n][i][k]. The copy is safe to mutate and
// to hand to a controller that outlives the Counts.
func (c *Counts) IntervalReads(i int) ([][]int, error) {
	if i < 0 || i >= c.Intervals {
		return nil, fmt.Errorf("workload: interval %d out of range [0, %d)", i, c.Intervals)
	}
	out := make([][]int, c.Nodes)
	backing := make([]int, c.Nodes*c.Objects)
	for n := 0; n < c.Nodes; n++ {
		out[n], backing = backing[:c.Objects:c.Objects], backing[c.Objects:]
		copy(out[n], c.Reads[n][i])
	}
	return out, nil
}

// Truncate limits the counts to their first n intervals; n <= 0 or
// n >= Intervals keeps them all. The result shares the receiver's
// per-interval slices.
func (c *Counts) Truncate(n int) *Counts {
	if n <= 0 || n >= c.Intervals {
		return c
	}
	out := &Counts{
		Reads: make([][][]int, c.Nodes), Writes: make([][][]int, c.Nodes),
		Nodes: c.Nodes, Intervals: n, Objects: c.Objects, Delta: c.Delta,
	}
	for i := range out.Reads {
		out.Reads[i] = c.Reads[i][:n]
		out.Writes[i] = c.Writes[i][:n]
	}
	return out
}

// Staleness measures how far a plan computed from the planned demand matrix
// lagged the realized one: the L1 distance between the two matrices
// normalized by the realized total. Zero means the plan saw exactly the
// demand it served; 2.0 means the demand moved entirely to cells the plan
// thought were idle. A realized total of zero yields zero staleness.
func Staleness(planned, realized [][]int) (float64, error) {
	if len(planned) != len(realized) {
		return 0, fmt.Errorf("workload: staleness node counts differ: %d vs %d", len(planned), len(realized))
	}
	var l1, total int
	for n := range planned {
		if len(planned[n]) != len(realized[n]) {
			return 0, fmt.Errorf("workload: staleness object counts differ at node %d", n)
		}
		for k := range planned[n] {
			diff := realized[n][k] - planned[n][k]
			if diff < 0 {
				diff = -diff
			}
			l1 += diff
			total += realized[n][k]
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(l1) / float64(total), nil
}
