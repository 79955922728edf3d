// Command bounds sweeps QoS goals and heuristic classes, regenerating the
// per-class lower-bound curves of the paper's Figure 1.
//
// Usage:
//
//	bounds -workload web -scale small            # Figure 1 series as TSV
//	bounds -workload group -scale medium -v      # with progress on stderr
//	bounds -scenario transit-stub-100            # registered scenario instead of a preset
//	bounds -scenario examples/scenarios/flash-crowd.json
//	bounds -parallel 1                           # serial sweep (same TSV)
//	bounds -solve-timeout 5m                     # cap each LP solve
//	bounds -classes                              # print the Table 3 taxonomy
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wideplace/internal/cli"
	"wideplace/internal/experiments"
	"wideplace/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bounds:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadFlag = flag.String("workload", "web", "workload: web or group")
		scaleFlag    = flag.String("scale", "small", "experiment scale: small, medium or large")
		scenarioFlag = flag.String("scenario", "", "registered scenario name or spec file (overrides -workload/-scale)")
		requestsFlag = flag.Int("requests", 0, "override the request volume (0 = keep the spec's or preset's)")
		qosFlag      = flag.String("qos", "", "comma-separated QoS points (fractions), overriding the spec's or preset's")
		classesFlag  = flag.Bool("classes", false, "print the heuristic-class taxonomy (Table 3) and exit")
		skipRound    = flag.Bool("skip-rounding", false, "compute LP bounds only (no tightness certificate)")
		parallel     = flag.Int("parallel", 0, "concurrent bound solves (0 = GOMAXPROCS, 1 = serial)")
		solveTimeout = flag.Duration("solve-timeout", 0, "wall-clock cap per LP solve (0 = unlimited)")
		verbose      = flag.Bool("v", false, "print per-bound progress (incl. solver stats) to stderr")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	lpFlags := cli.RegisterLPFlags(flag.CommandLine)
	flag.Parse()
	cli.ServePprof(*pprofAddr, func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "bounds: "+format+"\n", args...)
	})

	if *classesFlag {
		topo, err := topology.Generate(topology.GenOptions{N: 20, Seed: 1})
		if err != nil {
			return err
		}
		return experiments.WriteTable3(os.Stdout, experiments.Table3(topo, 150))
	}

	scn, err := cli.LoadScenario(*scenarioFlag, *workloadFlag, *scaleFlag)
	if err != nil {
		return err
	}
	var qos []float64
	if *qosFlag != "" {
		if qos, err = parseQoS(*qosFlag); err != nil {
			return err
		}
	}
	res, err := cli.ResolveScenario(scn, "bounds", cli.ScenarioOptions{QoS: qos, Requests: *requestsFlag}, os.Stderr)
	if err != nil {
		return err
	}
	progress := cli.Progress(*verbose, os.Stderr)
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	opts := experiments.Options{
		Parallel:     *parallel,
		SolveTimeout: *solveTimeout,
		Ctx:          ctx,
	}
	opts.Bound.SkipRounding = *skipRound
	opts.Bound.LP.Presolve = lpFlags.Presolve()
	var fig *experiments.Figure
	if *scenarioFlag != "" {
		// Empty title = the Sweep default, which is also what placementd
		// uses for scenario jobs, so the two TSVs stay byte-identical.
		fig, err = experiments.Sweep(res.System, res.Classes, "", opts, progress)
	} else {
		fig, err = experiments.Figure1(res.System, opts, progress)
	}
	if err != nil {
		return err
	}
	return fig.WriteTSV(os.Stdout)
}

// parseQoS parses a comma-separated list of QoS fractions and rejects
// lists the sweep cannot consume (experiments.ValidateQoS) before they
// reach it.
func parseQoS(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad QoS point %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, experiments.ValidateQoS(out)
}
