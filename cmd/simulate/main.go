// Command simulate tunes and replays deployed heuristics against their
// class lower bounds, regenerating the paper's Figure 2: the heuristic the
// methodology selects (greedy-global for WEB, Qiu-style greedy for GROUP)
// versus plain LRU caching.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"wideplace/internal/cli"
	"wideplace/internal/experiments"
	"wideplace/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var (
		workloadFlag = fs.String("workload", "web", "workload: web or group")
		scaleFlag    = fs.String("scale", "small", "experiment scale: small, medium or large")
		scenarioFlag = fs.String("scenario", "", "registered scenario name or spec file (overrides -workload/-scale)")
		parallel     = fs.Int("parallel", 0, "concurrent cells (0 = GOMAXPROCS, 1 = serial)")
		solveTimeout = fs.Duration("solve-timeout", 0, "wall-clock cap per LP solve (0 = unlimited)")
		verbose      = fs.Bool("v", false, "print per-point progress to stderr")
	)
	lpFlags := cli.RegisterLPFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scn, err := cli.LoadScenario(*scenarioFlag, *workloadFlag, *scaleFlag)
	if err != nil {
		return err
	}
	// Figure 2 replays individual accesses, so keep the trace.
	compiled, err := cli.ResolveScenario(scn, "simulate", cli.ScenarioOptions{Streaming: scenario.StreamOff}, os.Stderr)
	if err != nil {
		return err
	}
	sys := compiled.System
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	opts := experiments.Options{
		Parallel:     *parallel,
		SolveTimeout: *solveTimeout,
		Ctx:          ctx,
	}
	opts.Bound.LP.Presolve = lpFlags.Presolve()
	res, err := experiments.Figure2(sys, opts, cli.Progress(*verbose, os.Stderr))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# Figure 2 (%s): deployed heuristic cost vs class bound (nodes=%d objects=%d requests=%d)\n",
		sys.Spec.Workload, sys.Spec.Nodes, sys.Spec.Objects, sys.Spec.Requests)
	fmt.Fprintln(stdout, "qos\tclass_bound\tchosen_heuristic\tchosen_param\tlru_caching\tlru_param")
	for i := range res.Bound {
		fmt.Fprintf(stdout, "%g", res.Bound[i].QoS*100)
		cell := func(infeasible bool, v float64) string {
			if infeasible {
				return "-"
			}
			return fmt.Sprintf("%.0f", v)
		}
		fmt.Fprintf(stdout, "\t%s", cell(res.Bound[i].Infeasible, res.Bound[i].Bound))
		fmt.Fprintf(stdout, "\t%s\t%d", cell(res.Chosen[i].Infeasible, res.Chosen[i].Cost), res.Chosen[i].Param)
		fmt.Fprintf(stdout, "\t%s\t%d\n", cell(res.LRU[i].Infeasible, res.LRU[i].Cost), res.LRU[i].Param)
	}
	return nil
}
