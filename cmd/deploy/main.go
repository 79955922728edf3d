// Command deploy runs the infrastructure-deployment methodology of the
// paper's Section 6.2 (Figure 3): phase 1 solves MC-PERF with a
// node-opening cost to decide where to deploy file servers; phase 2
// recomputes the per-class bounds on the reduced topology.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"wideplace/internal/cli"
	"wideplace/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "deploy:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("deploy", flag.ContinueOnError)
	var (
		workloadFlag = fs.String("workload", "web", "workload: web or group")
		scaleFlag    = fs.String("scale", "small", "experiment scale: small, medium or large")
		scenarioFlag = fs.String("scenario", "", "registered scenario name or spec file (overrides -workload/-scale)")
		zetaFlag     = fs.Float64("zeta", 0, "node-opening cost (0 = the spec's or preset's)")
		parallel     = fs.Int("parallel", 0, "concurrent bound solves in phase 2 (0 = GOMAXPROCS, 1 = serial)")
		solveTimeout = fs.Duration("solve-timeout", 0, "wall-clock cap per LP solve (0 = unlimited)")
		verbose      = fs.Bool("v", false, "print per-bound progress (incl. solver stats) to stderr")
	)
	lpFlags := cli.RegisterLPFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scn, err := cli.LoadScenario(*scenarioFlag, *workloadFlag, *scaleFlag)
	if err != nil {
		return err
	}
	compiled, err := cli.ResolveScenario(scn, "deploy", cli.ScenarioOptions{}, os.Stderr)
	if err != nil {
		return err
	}
	sys := compiled.System
	if *zetaFlag > 0 {
		sys.Spec.Zeta = *zetaFlag
	}
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	opts := experiments.Options{
		Parallel:     *parallel,
		SolveTimeout: *solveTimeout,
		Ctx:          ctx,
	}
	opts.Bound.LP.Presolve = lpFlags.Presolve()
	res, err := experiments.Figure3(sys, opts, cli.Progress(*verbose, os.Stderr))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# phase 1 (zeta=%g): deploy nodes at sites %v (%d of %d)\n",
		sys.Spec.Zeta, res.OpenNodes, len(res.OpenNodes), sys.Spec.Nodes)
	return res.Figure.WriteTSV(stdout)
}
