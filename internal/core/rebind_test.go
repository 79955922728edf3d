package core

import (
	"errors"
	"math"
	"testing"

	"wideplace/internal/lp"
)

func TestGapUnboundedWhenBoundZero(t *testing.T) {
	cases := []struct {
		name string
		b    Bound
		want float64
	}{
		{"both zero", Bound{LPBound: 0, FeasibleCost: 0}, 0},
		{"zero bound, positive feasible", Bound{LPBound: 0, FeasibleCost: 3}, math.Inf(1)},
		{"normal gap", Bound{LPBound: 2, FeasibleCost: 3}, 0.5},
		{"tight", Bound{LPBound: 2, FeasibleCost: 2}, 0},
	}
	for _, c := range cases {
		if got := c.b.Gap(); got != c.want {
			t.Errorf("%s: Gap() = %g, want %g", c.name, got, c.want)
		}
	}
}

// TestCompiledQoSMatchesFreshBuilds is the rebind equivalence property:
// compiling once and moving the goal between solves must reproduce the
// fresh per-goal builds — same bounds, same rounding certificates, same
// unattainability errors — for every class across an ascending QoS
// ladder.
func TestCompiledQoSMatchesFreshBuilds(t *testing.T) {
	tp, counts := smallSystem(t, 11)
	goals := []float64{0.6, 0.75, 0.9, 0.97}
	for _, class := range []*Class{nil, Reactive(), Caching(tp), CoopCaching(tp, 150)} {
		inst, err := NewInstance(tp, counts, DefaultCost(), QoS(goals[0], 150))
		if err != nil {
			t.Fatal(err)
		}
		comp, err := inst.CompileQoS(class)
		if err != nil {
			t.Fatal(err)
		}
		name := "general"
		if class != nil {
			name = class.Name
		}
		var start *lp.Basis
		for gi, tqos := range goals {
			fi := *inst
			fi.Goal.Tqos = tqos
			fresh, freshErr := fi.LowerBound(class, BoundOptions{})
			if gi > 0 {
				if err := comp.Rebind(tqos); err != nil {
					if freshErr == nil {
						t.Fatalf("%s @%g: rebind failed (%v) where fresh build succeeded", name, tqos, err)
					}
					continue
				}
			}
			got, err := comp.LowerBound(BoundOptions{LP: lp.Options{Start: start}})
			if (err == nil) != (freshErr == nil) {
				t.Fatalf("%s @%g: compiled err=%v, fresh err=%v", name, tqos, err, freshErr)
			}
			if err != nil {
				if errors.Is(freshErr, ErrGoalUnattainable) != errors.Is(err, ErrGoalUnattainable) {
					t.Fatalf("%s @%g: error kinds differ: compiled %v, fresh %v", name, tqos, err, freshErr)
				}
				continue
			}
			start = got.Basis
			if d := math.Abs(got.LPBound - fresh.LPBound); d > 1e-6*(1+math.Abs(fresh.LPBound)) {
				t.Errorf("%s @%g: compiled bound %g != fresh bound %g", name, tqos, got.LPBound, fresh.LPBound)
			}
			// The warm chain may land on a different optimal vertex than
			// the fresh cold solve, so the rounding certificates can
			// differ — but both must certify their own bound.
			if got.FeasibleCost < got.LPBound-1e-6*(1+got.LPBound) {
				t.Errorf("%s @%g: compiled feasible %g below its own bound %g", name, tqos, got.FeasibleCost, got.LPBound)
			}
			// Under identical solve conditions (cold, same options) the
			// rebound problem must be indistinguishable from the fresh
			// build: same vertex, same rounding, same certificate.
			coldGot, err := comp.LowerBound(BoundOptions{})
			if err != nil {
				t.Fatalf("%s @%g: cold compiled solve: %v", name, tqos, err)
			}
			if coldGot.LPBound != fresh.LPBound || coldGot.FeasibleCost != fresh.FeasibleCost {
				t.Errorf("%s @%g: cold compiled (%g, %g) != fresh (%g, %g)",
					name, tqos, coldGot.LPBound, coldGot.FeasibleCost, fresh.LPBound, fresh.FeasibleCost)
			}
			if gi > 0 && got.Stats.RebindSolves != 1 {
				t.Errorf("%s @%g: RebindSolves = %d after a rebind, want 1", name, tqos, got.Stats.RebindSolves)
			}
			if gi == 0 && got.Stats.RebindSolves != 0 {
				t.Errorf("%s @%g: first solve stamped RebindSolves = %d, want 0", name, tqos, got.Stats.RebindSolves)
			}
		}
	}
}

// TestCompiledQoSUnattainableMatchesFresh drives the goal past a class's
// coverage ceiling: the rebind-time error must match the fresh build's,
// message and all.
func TestCompiledQoSUnattainableMatchesFresh(t *testing.T) {
	tp, counts := smallSystem(t, 13)
	// A tight latency threshold makes high QoS unattainable for classes
	// without full reach.
	inst, err := NewInstance(tp, counts, DefaultCost(), QoS(0.05, 40))
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []*Class{nil, Reactive()} {
		comp, err := inst.CompileQoS(class)
		if err != nil {
			if !errors.Is(err, ErrGoalUnattainable) {
				t.Fatal(err)
			}
			continue // already unattainable at the base goal: nothing to sweep
		}
		foundMismatch := false
		for _, tqos := range []float64{0.3, 0.6, 0.9, 0.99} {
			fi := *inst
			fi.Goal.Tqos = tqos
			_, freshErr := fi.LowerBound(class, BoundOptions{SkipRounding: true})
			rebindErr := comp.Rebind(tqos)
			var compErr error
			if rebindErr == nil {
				_, compErr = comp.LowerBound(BoundOptions{SkipRounding: true})
			} else {
				compErr = rebindErr
			}
			freshUnatt := errors.Is(freshErr, ErrGoalUnattainable)
			compUnatt := errors.Is(compErr, ErrGoalUnattainable)
			if freshUnatt != compUnatt {
				t.Errorf("tqos %g: fresh unattainable=%v (%v), compiled unattainable=%v (%v)",
					tqos, freshUnatt, freshErr, compUnatt, compErr)
			}
			// Build-time detection must also agree on the message, since
			// sweep cells key progress logs off it.
			if freshUnatt && rebindErr != nil && freshErr.Error() != rebindErr.Error() {
				t.Errorf("tqos %g: error text differs:\nfresh:  %s\nrebind: %s", tqos, freshErr, rebindErr)
			}
			if freshUnatt {
				foundMismatch = true
				break // the compiled problem is now stuck at the last good goal
			}
		}
		_ = foundMismatch
	}
}
