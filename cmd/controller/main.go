// Command controller replays a drift scenario through the online
// placement control loop, interval by interval: each interval rewrites
// only the read-count coefficients that moved, warm re-solves from the
// previous interval's basis, and prints the placement diff. A cold
// baseline (full model rebuild and cold solve per interval, following the
// same placement decisions) runs alongside so the incremental path's
// speedup — in simplex iterations and wall clock — is measured on
// identical problems.
//
// Usage:
//
//	controller -scenario diurnal-shift                  # replay + speedup table
//	controller -scenario flash-crowd -reactive          # plan from stale demand
//	controller -scenario diurnal-shift -intervals 3     # first intervals only
//	controller -scenario diurnal-shift -sim             # score vs LRU/LFU caching
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"wideplace/internal/cli"
	"wideplace/internal/controller"
	"wideplace/internal/core"
	"wideplace/internal/heuristics"
	"wideplace/internal/sim"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "controller:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("controller", flag.ContinueOnError)
	var (
		scenarioFlag = fs.String("scenario", "", "registered scenario name or spec file (required)")
		tqos         = fs.Float64("tqos", 0.95, "per-user QoS goal fraction each interval's placement must meet")
		reactive     = fs.Bool("reactive", false, "plan each interval from the previous interval's demand (default: clairvoyant lookahead)")
		intervalsCap = fs.Int("intervals", 0, "replay only the first N intervals (0 = all)")
		deltaFlag    = fs.Duration("delta", 0, "control period: re-bucket the trace at this interval (0 = the scenario's own)")
		simFlag      = fs.Bool("sim", false, "score the controller's trajectory against LRU/LFU caching in simulation")
		cacheFlag    = fs.Int("cache", 4, "per-node cache capacity of the LRU/LFU baselines under -sim")
	)
	lpFlags := cli.RegisterLPFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *scenarioFlag == "":
		return fmt.Errorf("missing -scenario")
	case *intervalsCap < 0:
		return fmt.Errorf("-intervals %d is negative (0 = all)", *intervalsCap)
	case *deltaFlag < 0:
		return fmt.Errorf("-delta %v is negative (0 = the scenario's own)", *deltaFlag)
	case *cacheFlag < 0:
		return fmt.Errorf("-cache %d is negative", *cacheFlag)
	}
	res, err := cli.ResolveScenario(*scenarioFlag, "controller", cli.ScenarioOptions{}, os.Stderr)
	if err != nil {
		return err
	}
	sys := res.System
	counts := sys.Counts
	if *deltaFlag > 0 {
		if sys.Trace == nil {
			return fmt.Errorf("-delta re-bucketing needs the raw trace; scenario %s compiled in streaming mode (counts only)", res.Spec.Name)
		}
		if counts, err = sys.Trace.Bucket(*deltaFlag); err != nil {
			return err
		}
	}
	counts = counts.Truncate(*intervalsCap)
	cfg := controller.Config{
		Topo: sys.Topo,
		Cost: core.DefaultCost(),
		Goal: core.QoS(*tqos, sys.Spec.Tlat),
	}
	cfg.LP.Presolve = lpFlags.Presolve()
	lookahead := !*reactive
	warm, err := controller.Replay(cfg, counts, lookahead)
	if err != nil {
		return err
	}
	cold, err := controller.ColdReplay(cfg, counts, lookahead, warm)
	if err != nil {
		return err
	}

	mode := "lookahead"
	if *reactive {
		mode = "reactive"
	}
	fmt.Fprintf(stdout, "scenario:  %s (%d nodes, %d objects, %d intervals of %v), tqos %.4g, %s\n",
		res.Spec.Name, sys.Topo.N, counts.Objects, counts.Intervals, counts.Delta, *tqos, mode)
	fmt.Fprintf(stdout, "%-8s %12s %12s %7s %6s %5s %5s %6s %9s %10s\n",
		"interval", "bound", "cost", "coefs", "iters", "warm", "adds", "drops", "stale", "wall")
	var changedCoefs, basisRepairs, warmResolveIters, coldResolveIters int
	var warmResolveWallNs, coldResolveWallNs int64
	for i, st := range warm.Steps {
		fmt.Fprintf(stdout, "%-8d %12.4f %12.4f %7d %6d %5v %5d %6d %9.3f %10v\n",
			st.Interval, st.Bound, st.Cost, st.ChangedCoefs, st.Iterations, st.Warm,
			st.Adds, st.Drops, st.Staleness, time.Duration(st.WallNs).Round(time.Microsecond))
		changedCoefs += st.ChangedCoefs
		basisRepairs += st.Stats.BasisRepairs
		cs := cold.Steps[i]
		if d := st.Bound - cs.Bound; d > 1e-9*maxf(1, cs.Bound) || d < -1e-9*maxf(1, cs.Bound) {
			return fmt.Errorf("interval %d: warm bound %.12f diverged from cold %.12f", i, st.Bound, cs.Bound)
		}
		// Interval 0 has no prior basis: both chains solve it cold and
		// identically. The re-solve aggregates leave it out so they measure
		// exactly the incremental path against the rebuild it replaces.
		if i > 0 {
			warmResolveIters += st.Iterations
			warmResolveWallNs += st.WallNs
			coldResolveIters += cs.Iterations
			coldResolveWallNs += cs.WallNs
		}
	}
	fmt.Fprintf(stdout, "\nwarm chain: %6d iterations, %v   (%d coefficient writes, %d basis repairs)\n",
		warm.TotalIterations, time.Duration(warm.WallNs).Round(time.Microsecond), changedCoefs, basisRepairs)
	fmt.Fprintf(stdout, "cold base:  %6d iterations, %v   (full rebuild per interval)\n",
		cold.TotalIterations, time.Duration(cold.WallNs).Round(time.Microsecond))
	fmt.Fprintf(stdout, "speedup:    %.2fx iterations, %.2fx wall clock\n",
		speedup(cold.TotalIterations, warm.TotalIterations), speedup(cold.WallNs, warm.WallNs))
	if warmResolveIters > 0 {
		fmt.Fprintf(stdout, "re-solve:   %.2fx iterations, %.2fx wall clock   (intervals 1..%d: warm %d iters / %v, cold %d iters / %v)\n",
			speedup(coldResolveIters, warmResolveIters), speedup(coldResolveWallNs, warmResolveWallNs), counts.Intervals-1,
			warmResolveIters, time.Duration(warmResolveWallNs).Round(time.Microsecond),
			coldResolveIters, time.Duration(coldResolveWallNs).Round(time.Microsecond))
	}

	if *simFlag {
		if sys.Trace == nil {
			return fmt.Errorf("-sim replays the raw trace; scenario %s compiled in streaming mode (counts only)", res.Spec.Name)
		}
		if err := scoreTrajectory(stdout, sys.Topo, planned(sys.Trace, counts), counts, warm, *cacheFlag, sys.Spec.Tlat); err != nil {
			return err
		}
	}
	return nil
}

// speedup is the cold/warm ratio of an effort aggregate, 0 when the warm
// side spent nothing.
func speedup[T int | int64](cold, warm T) float64 {
	if warm <= 0 {
		return 0
	}
	return float64(cold) / float64(warm)
}

// planned cuts the trace at the end of the last interval the controller
// planned, so -sim never scores intervals past an -intervals cap, where
// the static schedule would just hold the last planned placement.
// Accesses are time-sorted, so the kept ones are a prefix.
func planned(trace *workload.Trace, counts *workload.Counts) *workload.Trace {
	end := time.Duration(counts.Intervals) * counts.Delta
	if end >= trace.Duration {
		return trace
	}
	n := sort.Search(len(trace.Accesses), func(i int) bool { return trace.Accesses[i].At >= end })
	cut := *trace
	cut.Accesses, cut.Duration = trace.Accesses[:n], end
	return &cut
}

// scoreTrajectory replays the controller's plan through the simulator next
// to the reactive caching heuristics on the same trace and prints the
// aligned per-interval QoS/churn series.
func scoreTrajectory(w io.Writer, topo *topology.Topology, trace *workload.Trace, counts *workload.Counts, tr *controller.Trajectory, cache int, tlat float64) error {
	simCfg := sim.Config{Topo: topo, Trace: trace, Interval: counts.Delta, Tlat: tlat, Alpha: 1, Beta: 1}
	metrics, err := sim.RunAll(simCfg,
		heuristics.NewStatic(tr.Plan, counts.Delta),
		heuristics.NewLRU(cache),
		heuristics.NewLFU(cache),
	)
	if err != nil {
		return err
	}
	names := []string{"controller", fmt.Sprintf("lru-%d", cache), fmt.Sprintf("lfu-%d", cache)}
	fmt.Fprintf(w, "\nper-interval QoS attainment / replica churn (Tlat %.0f ms):\n", tlat)
	fmt.Fprintf(w, "%-8s", "interval")
	for _, n := range names {
		fmt.Fprintf(w, " %18s", n)
	}
	fmt.Fprintln(w)
	rows := 0
	for _, m := range metrics {
		if len(m.PerInterval) > rows {
			rows = len(m.PerInterval)
		}
	}
	for i := 0; i < rows; i++ {
		fmt.Fprintf(w, "%-8d", i)
		for _, m := range metrics {
			if i < len(m.PerInterval) {
				im := m.PerInterval[i]
				fmt.Fprintf(w, " %11.3f /%5d", im.QoS, im.Creations)
			} else {
				fmt.Fprintf(w, " %18s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-8s", "overall")
	for _, m := range metrics {
		fmt.Fprintf(w, " %11.3f /%5d", m.QoS, m.Creations)
	}
	fmt.Fprintln(w)
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
