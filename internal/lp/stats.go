package lp

import (
	"sync"
	"time"
)

// Stats aggregates solver-effort counters for one solve. Callers that run
// many solves (bound sweeps, Lagrangian subproblem loops) accumulate them
// with Add. Everything except Wall is deterministic for a given problem
// and option set, so aggregated counters can be compared across runs and
// emitted into reproducible reports.
type Stats struct {
	// Iterations is the total simplex iteration count across both phases.
	Iterations int
	// Phase1Iterations is the share of Iterations spent driving out
	// primal infeasibility before the true objective is optimized.
	Phase1Iterations int
	// InitialFactorizations counts the basis factorizations that set up a
	// solve (one per solve that reaches the simplex loop, whether the basis
	// came from a warm start or the crash heuristic).
	InitialFactorizations int
	// Refactorizations counts mid-solve basis refactorizations: those
	// triggered because the Forrest-Tomlin updates grew stale, filled in,
	// or hit a numerically unusable pivot.
	// This is the update-path churn counter; it excludes the initial
	// factorization, which InitialFactorizations reports separately.
	Refactorizations int
	// PivotRejections counts pivots that were undone because the pivoted
	// basis had no usable factorization: the entering column was
	// numerically dependent on the rest of the basis, so its acceptable
	// ratio-test pivot existed only through round-off. The solver restores
	// the previous basis, shuns the column until the next successful
	// pivot, and re-prices.
	PivotRejections int
	// DegenerateSteps counts iterations whose step length was (near) zero.
	DegenerateSteps int
	// BlandActivations counts transitions into Bland's anti-cycling rule
	// after a run of degenerate iterations.
	BlandActivations int
	// BoundFlips counts nonbasic bound-to-bound moves (iterations that
	// changed no basis column).
	BoundFlips int
	// PricingScans is the number of candidate columns examined by the
	// pricing rule (partial pricing makes this much smaller than
	// Iterations * columns).
	PricingScans int64
	// WarmSolves and ColdSolves report whether the solve was seeded from
	// a prior basis (Options.Start accepted) or from the crash basis. For
	// one solve exactly one of them is 1; aggregated they count solves per
	// start mode, so collectors never conflate the two populations.
	WarmSolves int
	ColdSolves int
	// WarmIterations/ColdIterations and WarmRefactorizations/
	// ColdRefactorizations split Iterations and Refactorizations (the
	// mid-solve count) by start mode. Per solve the matching field mirrors
	// the total and the other is zero; aggregated sums satisfy
	// Warm* + Cold* == total.
	WarmIterations       int
	ColdIterations       int
	WarmRefactorizations int
	ColdRefactorizations int
	// DualIterations is the share of Iterations spent in the dual-simplex
	// warm-restart pass (dualReoptimize): pivots that restore primal
	// feasibility of a carried basis while keeping it dual feasible,
	// replacing the phase-1-then-phase-2 walk a primal re-solve would pay.
	DualIterations int
	// BasisRepairs counts the dependent basic columns an in-factorization
	// repair swapped for a row slack. A warm-start basis that factorized
	// singular is patched this way instead of being discarded for a cold
	// crash start; a basis carried across a coefficient change — the
	// continuous-controller re-solve path — is the usual source. The basis
	// restored after a rejected pivot is repaired the same way, since it
	// may have been factorable only through the update chain.
	BasisRepairs int
	// PresolveRowsRemoved and PresolveColsRemoved count the constraint
	// rows and structural columns the presolve layer eliminated before
	// the simplex ran (zero when presolve is off or found nothing).
	PresolveRowsRemoved int
	PresolveColsRemoved int
	// RebindSolves counts solves that reused a compiled problem whose row
	// bounds were rebound in place (Problem.SetRowBounds) instead of
	// rebuilding the model. The lp package never sets it; owners of the
	// rebind path (core.CompiledQoS) stamp it so sweep reports can show
	// how many cells skipped a model rebuild.
	RebindSolves int
	// PricingRule names the pricing rule of the solve (always "devex";
	// report footers print it). Aggregation keeps the name while all
	// solves agree and reports "mixed" otherwise.
	PricingRule string
	// Wall is the wall-clock time of the solve. It is the only
	// nondeterministic field.
	Wall time.Duration
}

// Add accumulates other into s (counters and wall time sum).
func (s *Stats) Add(other Stats) {
	s.Iterations += other.Iterations
	s.Phase1Iterations += other.Phase1Iterations
	s.InitialFactorizations += other.InitialFactorizations
	s.Refactorizations += other.Refactorizations
	s.PivotRejections += other.PivotRejections
	s.DegenerateSteps += other.DegenerateSteps
	s.BlandActivations += other.BlandActivations
	s.BoundFlips += other.BoundFlips
	s.PricingScans += other.PricingScans
	s.WarmSolves += other.WarmSolves
	s.ColdSolves += other.ColdSolves
	s.WarmIterations += other.WarmIterations
	s.ColdIterations += other.ColdIterations
	s.WarmRefactorizations += other.WarmRefactorizations
	s.ColdRefactorizations += other.ColdRefactorizations
	s.DualIterations += other.DualIterations
	s.BasisRepairs += other.BasisRepairs
	s.PresolveRowsRemoved += other.PresolveRowsRemoved
	s.PresolveColsRemoved += other.PresolveColsRemoved
	s.RebindSolves += other.RebindSolves
	switch {
	case other.PricingRule == "":
	case s.PricingRule == "":
		s.PricingRule = other.PricingRule
	case s.PricingRule != other.PricingRule:
		s.PricingRule = "mixed"
	}
	s.Wall += other.Wall
}

// StatsCollector accumulates Stats from concurrently completing solves.
// Long-running processes (the placement service) record every solve into
// one collector and export the running totals as monotonic counters.
// The zero value is ready to use.
type StatsCollector struct {
	mu     sync.Mutex
	solves int
	total  Stats
}

// Record adds one solve's stats to the running totals.
func (c *StatsCollector) Record(s Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.solves++
	c.total.Add(s)
}

// Snapshot returns the number of recorded solves and the summed stats.
func (c *StatsCollector) Snapshot() (solves int, total Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.solves, c.total
}
