// Quickstart: build a small wide-area system, state a QoS goal, and ask
// which class of replica placement heuristics can meet it cheapest.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"wideplace/internal/core"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A 6-site corporate network; site 0 is the headquarters that stores
	// every file. Hops cost 100-200 ms, like the paper's AS-level topology.
	topo, err := topology.Generate(topology.GenOptions{N: 6, Seed: 42})
	if err != nil {
		return err
	}

	// One working day of file accesses with a heavy-tailed (web-like)
	// popularity distribution.
	trace, err := workload.GenerateWeb(workload.WebOptions{
		Nodes: 6, Objects: 20, Requests: 5000, Duration: 24 * time.Hour, Seed: 42,
	})
	if err != nil {
		return err
	}
	counts, err := trace.Bucket(time.Hour)
	if err != nil {
		return err
	}

	// Goal: 95% of every user's reads within 150 ms.
	inst, err := core.NewInstance(topo, counts, core.DefaultCost(), core.QoS(0.95, 150))
	if err != nil {
		return err
	}

	// Run the paper's methodology: rank all heuristic classes by their
	// inherent cost (lower bound) and pick the cheapest feasible one.
	sel, err := inst.SelectHeuristic(core.Classes(topo, 150), core.BoundOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("general lower bound (no heuristic can beat this): %.0f\n\n", sel.General.LPBound)
	fmt.Printf("%-26s %-12s %-12s %s\n", "class", "bound", "feasible", "verdict")
	for _, cb := range sel.Ranked {
		if !cb.Feasible() {
			fmt.Printf("%-26s %-12s %-12s cannot meet the goal\n", cb.Class.Name, "-", "-")
			continue
		}
		verdict := ""
		if cb.Class.Name == sel.Best.Class.Name {
			verdict = "<= pick a heuristic from this class"
		}
		row := fmt.Sprintf("%-26s %-12.0f %-12.0f %s", cb.Class.Name, cb.Bound.LPBound, cb.Bound.FeasibleCost, verdict)
		fmt.Println(strings.TrimRight(row, " "))
	}
	return nil
}
