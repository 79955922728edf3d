package heuristics

import (
	"errors"
	"fmt"
	"time"

	"wideplace/internal/sim"
)

// Static replays a precomputed placement schedule: Plan[n][i][k] says node
// n holds object k during interval i. Its main use is cross-validation —
// feeding the integral placement produced by the rounding algorithm back
// into the simulator must reproduce the placement's cost and QoS on the
// simulator's accounting, tying the bound pipeline and the simulation
// pipeline together (tested in TestStaticClosesTheLoop).
type Static struct {
	plan     [][][]bool
	interval time.Duration
	env      *sim.Env
	order    [][]int
}

var _ sim.Heuristic = (*Static)(nil)

// NewStatic returns a heuristic that executes the given placement schedule
// with the given evaluation interval.
func NewStatic(plan [][][]bool, interval time.Duration) *Static {
	return &Static{plan: plan, interval: interval}
}

// Name implements sim.Heuristic.
func (s *Static) Name() string { return "static-plan" }

// Attach implements sim.Heuristic.
func (s *Static) Attach(env *sim.Env) error {
	if env == nil {
		return errNilEnv
	}
	if len(s.plan) != env.Topo.N {
		return fmt.Errorf("heuristics: plan covers %d nodes, topology has %d", len(s.plan), env.Topo.N)
	}
	if s.interval <= 0 {
		return errors.New("heuristics: static plan needs a positive interval")
	}
	s.env = env
	s.order = neighborOrder(env)
	return nil
}

// OnIntervalStart implements sim.Heuristic: apply the scheduled placement
// for the interval.
func (s *Static) OnIntervalStart(interval int, at time.Duration) {
	for n := 0; n < s.env.Topo.N; n++ {
		if n == s.env.Topo.Origin || len(s.plan[n]) == 0 {
			continue
		}
		i := interval
		if i >= len(s.plan[n]) {
			i = len(s.plan[n]) - 1 // hold the final placement
		}
		row := s.plan[n][i]
		for _, k := range s.env.Tracker.HoldersOn(n) {
			if !row[k] {
				s.env.Tracker.Evict(n, k, at)
			}
		}
		for k, hold := range row {
			if hold {
				s.env.Tracker.Create(n, k, at)
			}
		}
	}
}

// OnRead implements sim.Heuristic.
func (s *Static) OnRead(node, object int, at time.Duration) int {
	if node == s.env.Topo.Origin {
		return node
	}
	return serveNearest(s.env, s.order, node, object)
}

// ProvisionedObjectHours implements sim.Heuristic: a static plan stores
// exactly what it schedules.
func (s *Static) ProvisionedObjectHours(time.Duration) float64 { return -1 }
