package core

import (
	"errors"
	"fmt"

	"wideplace/internal/lp"
)

// qosRowMeta captures what a QoS constraint row needs to be re-derived at
// a different goal: the node's read total, the constant origin coverage,
// and the attainable coverage ceiling. node is -1 for the Overall
// aggregate row.
type qosRowMeta struct {
	node         int
	row          int
	total        float64
	constCovered float64
	maxAttain    float64
}

// CompiledQoS is a compiled, solver-ready MC-PERF relaxation whose QoS
// goal can be moved between solves without rebuilding or recompiling the
// model. The QoS goal only appears in the right-hand sides of the QoS
// rows (see addQoSRows: the row set itself is goal-independent), and in
// the solver's standard form a right-hand side is a slack-column bound,
// so Rebind is a handful of two-float writes against the compiled
// Problem. A sweep therefore compiles once per (class, workload) column
// and pays only the solve — warm-started from the previous goal's basis
// — per cell.
//
// A CompiledQoS is not safe for concurrent use: Rebind mutates the
// underlying Problem in place.
type CompiledQoS struct {
	in      Instance
	class   *Class
	b       *buildResult
	prob    *lp.Problem
	rebound bool
}

// CompileQoS builds and compiles the MC-PERF relaxation for the class at
// the instance's current goal, ready for Rebind/LowerBound cycles. A nil
// class means the general (unconstrained) bound.
func (in *Instance) CompileQoS(class *Class) (*CompiledQoS, error) {
	if class == nil {
		class = General()
	}
	if in.Goal.Kind != QoSGoal {
		return nil, fmt.Errorf("core: CompileQoS on goal kind %d", in.Goal.Kind)
	}
	b, err := in.buildQoSLPMeta(class, true)
	if err != nil {
		return nil, err
	}
	prob, err := b.model.Compile()
	if err != nil {
		return nil, fmt.Errorf("compile %s bound: %w", class.Name, err)
	}
	return &CompiledQoS{in: *in, class: class, b: b, prob: prob}, nil
}

// Rebind moves the compiled problem's QoS goal to tqos, mutating only the
// QoS rows' right-hand sides. It re-runs the same attainability check the
// fresh build performs, in the same node order with the same error, so a
// caller cannot distinguish a rebound problem from a freshly built one.
// On error the problem is left unmodified and still bound to its previous
// goal.
func (c *CompiledQoS) Rebind(tqos float64) error {
	if !(tqos > 0 && tqos <= 1) {
		return fmt.Errorf("core: Rebind target %g outside (0, 1]", tqos)
	}
	for _, m := range c.b.qosMeta {
		rhs := tqos*m.total - m.constCovered
		if m.node >= 0 {
			if m.maxAttain < rhs {
				return fmt.Errorf("%w: node %d can cover at most %.4f of reads, goal needs %.4f",
					ErrGoalUnattainable, m.node, (m.maxAttain+m.constCovered)/m.total, tqos)
			}
		} else if rhs > 0 && m.maxAttain < rhs {
			return ErrGoalUnattainable
		}
	}
	for _, m := range c.b.qosMeta {
		rhs := tqos*m.total - m.constCovered
		if err := c.prob.SetRowBounds(m.row, rhs, lp.Inf); err != nil {
			return err
		}
	}
	c.in.Goal.Tqos = tqos
	c.rebound = true
	return nil
}

// LowerBound solves the compiled problem at its current goal and finishes
// the bound exactly like Instance.LowerBound. Stats.RebindSolves is 1 on
// every solve after the first Rebind, so sweep footers can report how
// many cells skipped a model rebuild.
func (c *CompiledQoS) LowerBound(opts BoundOptions) (*Bound, error) {
	sol, err := lp.Solve(c.prob, opts.LP)
	if err != nil {
		if errors.Is(err, lp.ErrInfeasible) {
			return nil, fmt.Errorf("%w (class %s)", ErrGoalUnattainable, c.class.Name)
		}
		return nil, fmt.Errorf("solve %s bound: %w", c.class.Name, err)
	}
	if c.rebound {
		sol.Stats.RebindSolves = 1
	}
	return c.in.finishQoSBound(c.class, c.b, sol, opts)
}
