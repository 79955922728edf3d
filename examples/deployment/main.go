// Infrastructure deployment (the paper's Section 6.2 scenario): no file
// servers exist yet. Phase 1 solves MC-PERF with a node-opening cost to
// decide where to deploy servers; phase 2 re-ranks the heuristic classes
// on the reduced topology, where the conclusions can differ from the
// full-topology analysis.
//
//	go run ./examples/deployment
package main

import (
	"fmt"
	"log"

	"wideplace/internal/core"
	"wideplace/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	scn, err := scenario.Preset(scenario.WorkWeb, "small")
	if err != nil {
		return err
	}
	scn.QoS = []float64{0.85}
	res, err := scenario.Compile(scn)
	if err != nil {
		return err
	}
	sys, spec := res.System, res.System.Spec
	tqos := spec.QoSPoints[0]

	// Phase 1: where should servers go? The opening cost zeta makes every
	// deployed site expensive, so the LP opens as few as possible.
	dep, err := core.PlanDeployment(sys.Topo, sys.Counts,
		core.DefaultCost(), core.QoS(tqos, spec.Tlat), spec.Zeta, nil, core.BoundOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("phase 1: deploy servers at %d of %d sites: %v (opening cost %g each)\n\n",
		len(dep.OpenNodes), sys.Topo.N, dep.OpenNodes, spec.Zeta)

	// Phase 2: rank classes on the reduced topology. Users of closed sites
	// now reach the system through their nearest open site, so
	// reachability — and with it the class ranking — changes.
	classes := []*core.Class{
		core.Reactive(),
		core.StorageConstrained(),
		core.ReplicaConstrained(),
		core.Caching(dep.Topology),
		core.CoopCaching(dep.Topology, spec.Tlat),
	}
	sel, err := dep.Instance.SelectHeuristic(classes, core.BoundOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("phase 2 bounds at %.4g%% QoS on the %d-node topology:\n", tqos*100, dep.Topology.N)
	for _, cb := range sel.Ranked {
		if cb.Feasible() {
			fmt.Printf("  %-26s bound %8.0f (feasible %8.0f)\n",
				cb.Class.Name, cb.Bound.LPBound, cb.Bound.FeasibleCost)
		} else {
			fmt.Printf("  %-26s infeasible at this goal\n", cb.Class.Name)
		}
	}
	fmt.Printf("\nchosen class: %s\n", sel.Best.Class.Name)
	if sel.CloseToGeneral(0.25) {
		fmt.Println("the chosen class is close to the general bound: no class can be much better")
	}
	return nil
}
