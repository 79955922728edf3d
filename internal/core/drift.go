package core

import (
	"errors"
	"fmt"
	"time"

	"wideplace/internal/lp"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// DriftQoS is a compiled single-interval MC-PERF relaxation whose read
// counts and initial placement can both be moved between solves without
// rebuilding the model. It is the LP core of the online placement
// controller: one interval of demand is one solve, and consecutive
// intervals differ only in
//
//   - the read-count coefficients of the QoS rows (SetCoef per drifted
//     cell),
//   - the QoS right-hand sides, which follow the read totals (a two-float
//     write per node, exactly like CompiledQoS.Rebind), and
//   - the interval-0 create-row right-hand sides that encode which
//     replicas the previous interval left behind (SetInitial).
//
// The structural trick is a full-support compile: a covered variable and a
// QoS-row entry are emitted for EVERY (node, object) cell a replica could
// ever serve, regardless of the current read counts, so the sparsity
// pattern is identical across drifted intervals. Cells that currently have
// zero reads carry an explicit zero coefficient, which every layer of the
// solver (presolve scans, pricing, ratio tests) already treats as absent.
// Extra zero-read machinery cannot change the optimum — the variables have
// zero objective and the rows a nonpositive right-hand side — so every
// solve matches a cold sparse build of the same interval exactly; the
// payoff is that the previous interval's basis stays shape-compatible and
// warm-starts the next solve.
//
// A DriftQoS is not safe for concurrent use: SetReads and SetInitial
// mutate the underlying Problem in place.
type DriftQoS struct {
	in    Instance
	class *Class
	b     *buildResult
	prob  *lp.Problem
	// coverable[n] is true when some replica (or the origin) can serve
	// node n within the threshold; reads on non-coverable nodes make any
	// goal unattainable, exactly as in a fresh build.
	coverable []bool
}

// CompileDriftQoS builds the drift-rebindable single-interval relaxation
// for the topology at the given cost model and QoS goal. objects fixes the
// object universe and delta is the control interval length (bookkeeping
// only). The compiled problem starts with zero demand everywhere and a
// cold-start (empty) initial placement; install the first interval with
// SetReads/SetInitial.
//
// Only unrestricted (general-class) placement is supported: restricted
// classes derive their create-permission structure from the read counts
// themselves, so their LP shape is not drift-invariant. Write costs
// (Cost.Delta) are rejected for the same reason.
func CompileDriftQoS(topo *topology.Topology, objects int, delta time.Duration, cost Cost, goal Goal, class *Class) (*DriftQoS, error) {
	if class == nil {
		class = General()
	}
	if !class.Unrestricted {
		return nil, fmt.Errorf("core: CompileDriftQoS requires an unrestricted class, got %s", class.Name)
	}
	if goal.Kind != QoSGoal {
		return nil, fmt.Errorf("core: CompileDriftQoS on goal kind %d", goal.Kind)
	}
	if goal.Scope != PerUser {
		return nil, errors.New("core: CompileDriftQoS supports per-user QoS scope only")
	}
	if cost.Delta != 0 {
		return nil, errors.New("core: CompileDriftQoS does not support write (update) costs")
	}
	if objects <= 0 {
		return nil, errors.New("core: CompileDriftQoS needs at least one object")
	}
	if delta <= 0 {
		return nil, errors.New("core: CompileDriftQoS needs a positive interval length")
	}
	counts := &workload.Counts{
		Reads:  alloc3Int(topo.N, 1, objects),
		Writes: alloc3Int(topo.N, 1, objects),
		Nodes:  topo.N, Intervals: 1, Objects: objects, Delta: delta,
	}
	base, err := NewInstance(topo, counts, cost, goal)
	if err != nil {
		return nil, err
	}
	d := &DriftQoS{in: *base, class: class, coverable: make([]bool, topo.N)}

	// Full-support compile: give every coverable, non-origin-covered cell
	// one placeholder read so the build emits its covered variable, cover
	// row and QoS-row entry (Compile drops exact zeros, so the placeholder
	// must be nonzero to claim the slot). The placeholders are overwritten
	// with the true counts — including explicit zeros — right below.
	reach := base.Reach(class)
	for n := 0; n < topo.N; n++ {
		originCov := base.originReachable(class, n)
		d.coverable[n] = originCov || len(reach[n]) > 0
		if !originCov && len(reach[n]) > 0 {
			for k := 0; k < objects; k++ {
				counts.Reads[n][0][k] = 1
			}
		}
	}
	b, err := d.in.buildQoSLPMeta(class, true)
	if err != nil {
		return nil, err
	}
	prob, err := b.model.Compile()
	if err != nil {
		return nil, fmt.Errorf("compile %s drift bound: %w", class.Name, err)
	}
	d.b, d.prob = b, prob
	zero := make([][]int, topo.N)
	for n := range zero {
		zero[n] = make([]int, objects)
	}
	if _, err := d.SetReads(zero); err != nil {
		return nil, fmt.Errorf("core: CompileDriftQoS reset: %w", err)
	}
	return d, nil
}

// SetReads moves the compiled problem to a new per-(node, object) demand
// matrix, rewriting only the QoS-row coefficients that actually drifted.
// It returns the number of rewritten coefficients (the controller reports
// it as rebind effort). Reads on a node no replica can serve make the goal
// unattainable, with the same error a fresh build would produce. On error
// the problem may hold a mix of old and new coefficients; call SetReads
// again with a valid matrix before solving.
func (d *DriftQoS) SetReads(reads [][]int) (changed int, err error) {
	nN, _, nK := d.in.Dims()
	if len(reads) != nN {
		return 0, fmt.Errorf("core: SetReads covers %d nodes, instance has %d", len(reads), nN)
	}
	for n := range reads {
		if len(reads[n]) != nK {
			return 0, fmt.Errorf("core: SetReads row %d covers %d objects, instance has %d", n, len(reads[n]), nK)
		}
		for k, r := range reads[n] {
			if r < 0 {
				return 0, fmt.Errorf("core: SetReads negative count %d at (%d, %d)", r, n, k)
			}
			if r > 0 && !d.coverable[n] {
				return 0, fmt.Errorf("%w: node %d can cover at most %.4f of reads, goal needs %.4f",
					ErrGoalUnattainable, n, 0.0, d.in.Goal.Tqos)
			}
		}
	}
	totals := make([]float64, nN)
	for n := 0; n < nN; n++ {
		cur := d.in.Counts.Reads[n][0]
		for k := 0; k < nK; k++ {
			r := reads[n][k]
			totals[n] += float64(r)
			if r == cur[k] {
				continue
			}
			if cid := d.b.coveredIdx[n][0][k]; cid >= 0 {
				if err := d.prob.SetCoef(d.b.qosRow[n], cid, float64(r)); err != nil {
					return changed, err
				}
				if d.in.Cost.Gamma > 0 {
					if err := d.prob.SetObjCoef(cid, -d.in.Cost.Gamma*float64(r)); err != nil {
						return changed, err
					}
				}
				changed++
			}
			cur[k] = r
		}
	}
	// Re-derive the QoS right-hand sides and the rebind metadata from the
	// new totals. Origin-covered nodes have no row (their coverage is
	// constant); full-support rows are always attainable because the
	// coefficient sum IS the node's read total.
	for i := range d.b.qosMeta {
		m := &d.b.qosMeta[i]
		m.total = totals[m.node]
		m.constCovered = 0
		m.maxAttain = m.total
		if err := d.prob.SetRowBounds(m.row, d.in.Goal.Tqos*m.total, lp.Inf); err != nil {
			return changed, err
		}
	}
	return changed, nil
}

// SetInitial moves the placement in force before the interval: replicas
// held over from the previous interval need no creation cost.
//
// A fresh build encodes the held set in the create-row right-hand sides
// (store - create <= 1 for held cells). The compiled form holds the
// right-hand sides at 0 forever and moves the create OBJECTIVE coefficient
// instead: a held cell's create variable costs 0, everyone else's costs
// Beta. The two encodings bound identically — a held cell's creation is
// free either way, and nothing else changes — but the objective form is
// what keeps warm restarts cheap. A right-hand-side move invalidates the
// carried duals (the previous basis priced the old bound), so every
// interval would open with a long dual-repair walk; an objective move in
// the loosening direction (cell newly held, Beta -> 0) leaves the carried
// point primal feasible AND the create column dual feasible at its upper
// bound, costing no pivots at all. Only genuine tightenings (a held cell
// dropped, 0 -> Beta) leave re-optimization work, as they must.
//
// A nil initial means the paper's cold start.
func (d *DriftQoS) SetInitial(initial [][]bool) error {
	if err := d.in.SetInitial(initial); err != nil {
		return err
	}
	nN, _, nK := d.in.Dims()
	for n := 0; n < nN; n++ {
		if n == d.in.Topo.Origin {
			continue
		}
		for k := 0; k < nK; k++ {
			cid := d.b.createIdx[n][0][k]
			if cid < 0 {
				continue
			}
			cost := d.in.Cost.Beta
			if d.in.initiallyStored(n, k) {
				cost = 0
			}
			if err := d.prob.SetObjCoef(cid, cost); err != nil {
				return err
			}
		}
	}
	return nil
}

// LowerBound solves the compiled problem at its current demand and initial
// placement, finishing the bound exactly like Instance.LowerBound
// (rounding included, so Bound.Store carries the interval's integral
// placement). Pass the previous interval's Bound.Basis through
// opts.LP.Start to warm-start the solve.
func (d *DriftQoS) LowerBound(opts BoundOptions) (*Bound, error) {
	sol, err := lp.Solve(d.prob, opts.LP)
	if err != nil {
		if errors.Is(err, lp.ErrInfeasible) {
			return nil, fmt.Errorf("%w (class %s)", ErrGoalUnattainable, d.class.Name)
		}
		return nil, fmt.Errorf("solve %s drift bound: %w", d.class.Name, err)
	}
	return d.in.finishQoSBound(d.class, d.b, sol, opts)
}

// alloc3Int allocates an n x i x k tensor backed by a single slice.
func alloc3Int(n, i, k int) [][][]int {
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
