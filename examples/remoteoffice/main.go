// Remote-office file service (the paper's Section 6.1 case study, scaled
// down): an existing 20-site infrastructure must pick a placement
// heuristic for a given workload and QoS goal. The example computes the
// per-class bounds, picks the winning class, then deploys a concrete
// heuristic from that class in the simulator and verifies its measured
// cost lands above the class bound — the consistency the method promises.
//
//	go run ./examples/remoteoffice [-workload group]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"

	"wideplace/internal/core"
	"wideplace/internal/experiments"
	"wideplace/internal/heuristics"
	"wideplace/internal/scenario"
	"wideplace/internal/sim"
)

func main() {
	workload := flag.String("workload", "web", "web or group")
	flag.Parse()
	if err := run(*workload); err != nil {
		log.Fatal(err)
	}
}

func run(kind string) error {
	scn, err := scenario.Preset(kind, "small")
	if err != nil {
		return err
	}
	scn.QoS = []float64{0.90}
	// Step 2 replays the trace in the simulator, so the compile keeps it.
	res, err := scenario.CompileWith(scn, scenario.CompileOptions{Streaming: scenario.StreamOff})
	if err != nil {
		return err
	}
	sys, spec := res.System, res.System.Spec
	tqos := spec.QoSPoints[0]
	inst, err := sys.Instance(tqos)
	if err != nil {
		return err
	}

	fmt.Printf("system: %d sites, %d objects, %d requests over %v (%s popularity)\n",
		spec.Nodes, spec.Objects, spec.Requests, spec.Horizon, spec.Workload)
	fmt.Printf("goal:   %.4g%% of each user's reads within %.0f ms\n\n", tqos*100, spec.Tlat)

	// Step 1: rank the classes by lower bound.
	sel, err := inst.SelectHeuristic(core.Classes(sys.Topo, spec.Tlat), core.BoundOptions{})
	if err != nil {
		return err
	}
	for _, cb := range sel.Ranked {
		if cb.Feasible() {
			fmt.Printf("  %-26s bound %8.0f\n", cb.Class.Name, cb.Bound.LPBound)
		} else {
			fmt.Printf("  %-26s infeasible at this goal\n", cb.Class.Name)
		}
	}
	fmt.Printf("\nchosen class: %s (general bound %.0f)\n\n", sel.Best.Class.Name, sel.General.LPBound)

	// Step 2: deploy a concrete heuristic from the winning class and from
	// the caching class, tune each to the goal, and compare.
	cfg := sim.Config{
		Topo: sys.Topo, Trace: sys.Trace, Interval: spec.Delta,
		Tlat: spec.Tlat, Alpha: 1, Beta: 1,
	}
	var mkChosen func(int) sim.Heuristic
	var maxParam int
	if spec.Workload == experiments.GROUP {
		mkChosen = func(r int) sim.Heuristic { return heuristics.NewQiuGreedyPrefetch(r, sys.Counts) }
		maxParam = sys.Topo.N - 1
	} else {
		mkChosen = func(c int) sim.Heuristic { return heuristics.NewGreedyGlobalPrefetch(c, sys.Counts) }
		maxParam = spec.Objects
	}
	param, m, err := sim.Tune(cfg, mkChosen, 0, maxParam, tqos, true)
	if err != nil {
		return fmt.Errorf("tune chosen heuristic: %w", err)
	}
	fmt.Printf("deployed %-28s cost %8.0f (param %d, min-node QoS %.4f)\n", m.Heuristic, m.Cost, param, m.MinNodeQoS)
	if m.Cost+1e-6 < sel.Best.Bound.LPBound {
		return fmt.Errorf("inconsistency: deployed cost %.0f below class bound %.0f", m.Cost, sel.Best.Bound.LPBound)
	}

	_, lruM, err := sim.Tune(cfg, func(c int) sim.Heuristic { return heuristics.NewLRU(c) }, 0, spec.Objects, tqos, true)
	switch {
	case errors.Is(err, sim.ErrGoalNotMet):
		fmt.Println("deployed lru-caching              cannot meet the goal at any cache size")
	case err != nil:
		return err
	default:
		fmt.Printf("deployed %-28s cost %8.0f (cache %d per node)\n", lruM.Heuristic, lruM.Cost, lruM.CacheCapacity)
		fmt.Printf("\nsavings from following the methodology: %.1fx\n", lruM.Cost/m.Cost)
	}
	return nil
}
