package sim_test

import (
	"errors"
	"testing"

	"wideplace/internal/heuristics"
	"wideplace/internal/scenario"
	"wideplace/internal/sim"
)

// These tests drive Tune and the caching heuristics through systems
// materialized by the scenario layer rather than the hand-written
// three-node fixtures: generated topologies (transit-stub, random-AS),
// generated workloads (flash-crowd, diurnal), and sizes beyond the
// paper's 20 nodes. They live in an external test package because
// heuristics itself imports sim.

// scenarioConfig compiles the named registered scenario (rescaled to
// nodes when > 0) and returns a simulator config matching its goal.
func scenarioConfig(t *testing.T, name string, nodes int) sim.Config {
	t.Helper()
	spec, err := scenario.Get(name)
	if err != nil {
		t.Fatalf("Get(%q): %v", name, err)
	}
	if nodes > 0 {
		spec = spec.WithNodes(nodes)
	}
	res, err := scenario.CompileWith(spec, scenario.CompileOptions{Streaming: scenario.StreamOff})
	if err != nil {
		t.Fatalf("Compile(%q): %v", name, err)
	}
	return sim.Config{
		Topo:     res.System.Topo,
		Trace:    res.System.Trace,
		Interval: spec.Delta(),
		Tlat:     spec.Tlat(),
		Alpha:    1,
		Beta:     1,
	}
}

func TestTuneCachingOnGeneratedScenarios(t *testing.T) {
	cases := []struct {
		name     string
		scenario string
		nodes    int // 0 = the registered size
		make     func(p int) sim.Heuristic
		perUser  bool
	}{
		{"lfu/flash-crowd", "flash-crowd", 0,
			func(p int) sim.Heuristic { return heuristics.NewLFU(p) }, false},
		{"lru/diurnal-shift-n24", "diurnal-shift", 0,
			func(p int) sim.Heuristic { return heuristics.NewLRU(p) }, false},
		{"lru/transit-stub-n30", "transit-stub-100", 30,
			func(p int) sim.Heuristic { return heuristics.NewLRU(p) }, false},
		{"lfu/transit-stub-n30-per-user", "transit-stub-100", 30,
			func(p int) sim.Heuristic { return heuristics.NewLFU(p) }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := scenarioConfig(t, c.scenario, c.nodes)
			objects := cfg.Trace.NumObjects

			achieved := func(m *sim.Metrics) float64 {
				if c.perUser {
					return m.MinNodeQoS
				}
				return m.QoS
			}

			// Anchor the goal on what the policy can actually reach so
			// the test is robust to generator details: zero capacity is
			// the floor, caching everything is the ceiling.
			zero, err := sim.Run(cfg, c.make(0))
			if err != nil {
				t.Fatalf("Run(capacity 0): %v", err)
			}
			full, err := sim.Run(cfg, c.make(objects))
			if err != nil {
				t.Fatalf("Run(capacity %d): %v", objects, err)
			}
			if achieved(full) <= achieved(zero) {
				t.Fatalf("caching does not help on %s: full %.4f <= zero %.4f",
					c.scenario, achieved(full), achieved(zero))
			}

			tqos := (achieved(zero) + achieved(full)) / 2
			param, m, err := sim.Tune(cfg, c.make, 0, objects, tqos, c.perUser)
			if err != nil {
				t.Fatalf("Tune(tqos=%.4f): %v", tqos, err)
			}
			if param < 1 || param > objects {
				t.Errorf("tuned capacity = %d, want in [1, %d]", param, objects)
			}
			if achieved(m) < tqos {
				t.Errorf("tuned QoS = %.4f, want >= %.4f", achieved(m), tqos)
			}

			// The search result must reproduce exactly: the simulator and
			// the generators are deterministic for a fixed spec.
			again, err := sim.Run(cfg, c.make(param))
			if err != nil {
				t.Fatalf("replay at tuned capacity: %v", err)
			}
			if again.QoS != m.QoS || again.Cost != m.Cost {
				t.Errorf("replay diverged: qos %.6f/%.6f cost %.2f/%.2f",
					again.QoS, m.QoS, again.Cost, m.Cost)
			}

			// A ceiling below the goal must surface ErrGoalNotMet rather
			// than a silently infeasible parameter.
			if _, _, err := sim.Tune(cfg, c.make, 0, 0, tqos, c.perUser); !errors.Is(err, sim.ErrGoalNotMet) {
				t.Errorf("Tune with hi=0: err = %v, want ErrGoalNotMet", err)
			}
		})
	}
}

// TestTuneUnattainableOnScenario pins the ErrGoalNotMet path at full
// capacity: cold misses on a generated transit-stub system travel to the
// origin beyond Tlat, so even caching every object cannot reach QoS 1.
func TestTuneUnattainableOnScenario(t *testing.T) {
	cfg := scenarioConfig(t, "diurnal-shift", 0)
	objects := cfg.Trace.NumObjects
	full, err := sim.Run(cfg, heuristics.NewLFU(objects))
	if err != nil {
		t.Fatal(err)
	}
	if full.QoS >= 1 {
		t.Skipf("every read within tlat at full capacity (qos=%.4f); nothing to pin", full.QoS)
	}
	_, m, err := sim.Tune(cfg, func(p int) sim.Heuristic { return heuristics.NewLFU(p) },
		0, objects, 1.0, false)
	if !errors.Is(err, sim.ErrGoalNotMet) {
		t.Fatalf("err = %v, want ErrGoalNotMet", err)
	}
	if m == nil || m.QoS != full.QoS {
		t.Errorf("ErrGoalNotMet metrics should be the hi run: got %+v", m)
	}
}
