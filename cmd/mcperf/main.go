// Command mcperf solves one MC-PERF instance: it generates a deterministic
// system and workload, computes the lower bound for one heuristic class and
// certifies it with the rounding algorithm, printing the full diagnostics.
//
// Example:
//
//	mcperf -workload web -nodes 12 -objects 30 -requests 10000 \
//	       -class storage-constrained -tqos 0.99
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"wideplace/internal/cli"
	"wideplace/internal/core"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcperf:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mcperf", flag.ContinueOnError)
	var (
		workloadFlag = fs.String("workload", "web", "workload: web or group")
		scenarioFlag = fs.String("scenario", "", "registered scenario name or spec file (overrides generator flags; tlat/delta come from the spec)")
		nodes        = fs.Int("nodes", 10, "number of sites")
		objects      = fs.Int("objects", 20, "number of objects")
		requests     = fs.Int("requests", 5000, "total requests")
		horizon      = fs.Duration("horizon", 8*time.Hour, "trace duration")
		delta        = fs.Duration("delta", time.Hour, "evaluation interval")
		seed         = fs.Uint64("seed", 1, "deterministic seed")
		zipfS        = fs.Float64("zipf", 0, "WEB Zipf exponent (0 = default 1.0)")
		classFlag    = fs.String("class", "general", "heuristic class name")
		tqos         = fs.Float64("tqos", 0.95, "QoS goal fraction")
		tlat         = fs.Float64("tlat", 150, "latency threshold (ms)")
		avg          = fs.Float64("avg", 0, "average-latency goal in ms (overrides -tqos when > 0)")
		skipRound    = fs.Bool("skip-rounding", false, "LP bound only")
		runLength    = fs.Bool("runlength", false, "enable the run-length rounding optimization")
	)
	lpFlags := cli.RegisterLPFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		topo   *topology.Topology
		trace  *workload.Trace
		counts *workload.Counts
		err    error
	)
	kindLabel := *workloadFlag
	if *scenarioFlag != "" {
		res, err := cli.ResolveScenario(*scenarioFlag, "mcperf", cli.ScenarioOptions{}, os.Stderr)
		if err != nil {
			return err
		}
		// The compile already bucketed at the scenario's interval; reuse
		// its counts so streamed (trace-less) scenarios work too.
		topo, counts = res.System.Topo, res.System.Counts
		// The scenario's own threshold and interval define the instance;
		// the goal level still comes from -tqos/-avg.
		*tlat = res.Spec.Tlat()
		*delta = res.Spec.Delta()
		kindLabel = res.Spec.Workload.Model
	} else {
		if topo, err = topology.Generate(topology.GenOptions{N: *nodes, Seed: *seed}); err != nil {
			return err
		}
		switch *workloadFlag {
		case "web":
			trace, err = workload.GenerateWeb(workload.WebOptions{
				Nodes: *nodes, Objects: *objects, Requests: *requests, Duration: *horizon, Seed: *seed,
				ZipfS: *zipfS,
			})
		case "group":
			trace, err = workload.GenerateGroup(workload.GroupOptions{
				Nodes: *nodes, Objects: *objects, Requests: *requests, Duration: *horizon, Seed: *seed,
			})
		default:
			return fmt.Errorf("unknown workload %q", *workloadFlag)
		}
		if err != nil {
			return err
		}
	}
	if counts == nil {
		if counts, err = trace.Bucket(*delta); err != nil {
			return err
		}
	}
	goal := core.QoS(*tqos, *tlat)
	if *avg > 0 {
		goal = core.AvgLatency(*avg)
	}
	inst, err := core.NewInstance(topo, counts.Dense(), core.DefaultCost(), goal)
	if err != nil {
		return err
	}
	class, err := core.ClassByName(topo, *tlat, *classFlag)
	if err != nil {
		return err
	}
	start := time.Now()
	bopts := core.BoundOptions{
		SkipRounding: *skipRound,
		Round:        core.RoundOptions{RunLength: *runLength},
	}
	bopts.LP.Presolve = lpFlags.Presolve()
	b, err := inst.LowerBound(class, bopts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "instance:   %s workload, %d nodes, %d objects, %d requests, %d intervals of %v\n",
		kindLabel, topo.N, trace.NumObjects, len(trace.Accesses), counts.Intervals, *delta)
	if goal.Kind == core.QoSGoal {
		fmt.Fprintf(stdout, "goal:       %.5g%% of each user's reads within %.0f ms\n", *tqos*100, *tlat)
	} else {
		fmt.Fprintf(stdout, "goal:       average latency per user at most %.0f ms\n", *avg)
	}
	fmt.Fprintf(stdout, "class:      %s\n", class.Name)
	fmt.Fprintf(stdout, "lower bound %.2f   (LP: %d variables, %d iterations)\n", b.LPBound, b.LPVariables, b.LPIterations)
	if !*skipRound && goal.Kind == core.QoSGoal {
		fmt.Fprintf(stdout, "feasible    %.2f   (rounding: %d up, %d down; gap %.1f%%)\n",
			b.FeasibleCost, b.UpSteps, b.DownSteps, 100*b.Gap())
	}
	fmt.Fprintf(stdout, "elapsed     %v\n", elapsed.Round(time.Millisecond))
	return nil
}
