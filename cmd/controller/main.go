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
//	controller -scenario diurnal-shift -bench BENCH_controller.json
//	controller -bench BENCH_controller.json -compare    # gate on the last two records
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
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
		scenarioFlag = fs.String("scenario", "", "registered scenario name or spec file (required unless -compare)")
		tqos         = fs.Float64("tqos", 0.95, "per-user QoS goal fraction each interval's placement must meet")
		reactive     = fs.Bool("reactive", false, "plan each interval from the previous interval's demand (default: clairvoyant lookahead)")
		intervalsCap = fs.Int("intervals", 0, "replay only the first N intervals (0 = all)")
		deltaFlag    = fs.Duration("delta", 0, "control period: re-bucket the trace at this interval (0 = the scenario's own)")
		simFlag      = fs.Bool("sim", false, "score the controller's trajectory against LRU/LFU caching in simulation")
		cacheFlag    = fs.Int("cache", 4, "per-node cache capacity of the LRU/LFU baselines under -sim")
		benchFlag    = fs.String("bench", "", "append the run to this BENCH_controller.json history")
		compareFlag  = fs.Bool("compare", false, "diff the last two records of -bench and exit (non-zero on regression)")
	)
	lpFlags := cli.RegisterLPFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compareFlag {
		if *benchFlag == "" {
			return fmt.Errorf("-compare needs -bench")
		}
		return compareRecords(*benchFlag, stdout)
	}
	if *scenarioFlag == "" {
		return fmt.Errorf("missing -scenario (or -compare)")
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
	counts = truncate(counts.Dense(), *intervalsCap)
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
	rec := benchRecord{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scenario:   res.Spec.Name,
		TQoS:       *tqos,
		Intervals:  counts.Intervals,
		Lookahead:  lookahead,
	}
	for i, st := range warm.Steps {
		fmt.Fprintf(stdout, "%-8d %12.4f %12.4f %7d %6d %5v %5d %6d %9.3f %10v\n",
			st.Interval, st.Bound, st.Cost, st.ChangedCoefs, st.Iterations, st.Warm,
			st.Adds, st.Drops, st.Staleness, time.Duration(st.WallNs).Round(time.Microsecond))
		rec.ChangedCoefs += st.ChangedCoefs
		rec.Adds += st.Adds
		rec.Drops += st.Drops
		rec.BasisRepairs += st.Stats.BasisRepairs
		rec.AvgStaleness += st.Staleness / float64(len(warm.Steps))
		cs := cold.Steps[i]
		if d := st.Bound - cs.Bound; d > 1e-9*maxf(1, cs.Bound) || d < -1e-9*maxf(1, cs.Bound) {
			return fmt.Errorf("interval %d: warm bound %.12f diverged from cold %.12f", i, st.Bound, cs.Bound)
		}
		// Interval 0 has no prior basis: both chains solve it cold and
		// identically. The re-solve aggregates leave it out so they measure
		// exactly the incremental path against the rebuild it replaces.
		if i > 0 {
			rec.WarmResolveIterations += st.Iterations
			rec.WarmResolveWallNs += st.WallNs
			rec.ColdResolveIterations += cs.Iterations
			rec.ColdResolveWallNs += cs.WallNs
		}
	}
	rec.WarmIterations, rec.ColdIterations = warm.TotalIterations, cold.TotalIterations
	rec.WarmWallNs, rec.ColdWallNs = warm.WallNs, cold.WallNs
	if warm.TotalIterations > 0 {
		rec.IterSpeedup = float64(cold.TotalIterations) / float64(warm.TotalIterations)
	}
	if warm.WallNs > 0 {
		rec.WallSpeedup = float64(cold.WallNs) / float64(warm.WallNs)
	}
	if rec.WarmResolveIterations > 0 {
		rec.ResolveIterSpeedup = float64(rec.ColdResolveIterations) / float64(rec.WarmResolveIterations)
	}
	if rec.WarmResolveWallNs > 0 {
		rec.ResolveWallSpeedup = float64(rec.ColdResolveWallNs) / float64(rec.WarmResolveWallNs)
	}
	fmt.Fprintf(stdout, "\nwarm chain: %6d iterations, %v   (%d coefficient writes, %d basis repairs)\n",
		warm.TotalIterations, time.Duration(warm.WallNs).Round(time.Microsecond), rec.ChangedCoefs, rec.BasisRepairs)
	fmt.Fprintf(stdout, "cold base:  %6d iterations, %v   (full rebuild per interval)\n",
		cold.TotalIterations, time.Duration(cold.WallNs).Round(time.Microsecond))
	fmt.Fprintf(stdout, "speedup:    %.2fx iterations, %.2fx wall clock\n", rec.IterSpeedup, rec.WallSpeedup)
	if rec.WarmResolveIterations > 0 {
		fmt.Fprintf(stdout, "re-solve:   %.2fx iterations, %.2fx wall clock   (intervals 1..%d: warm %d iters / %v, cold %d iters / %v)\n",
			rec.ResolveIterSpeedup, rec.ResolveWallSpeedup, counts.Intervals-1,
			rec.WarmResolveIterations, time.Duration(rec.WarmResolveWallNs).Round(time.Microsecond),
			rec.ColdResolveIterations, time.Duration(rec.ColdResolveWallNs).Round(time.Microsecond))
	}

	if *simFlag {
		if sys.Trace == nil {
			return fmt.Errorf("-sim replays the raw trace; scenario %s compiled in streaming mode (counts only)", res.Spec.Name)
		}
		if err := scoreTrajectory(stdout, sys.Topo, sys.Trace, counts, warm, *cacheFlag, sys.Spec.Tlat); err != nil {
			return err
		}
	}
	if *benchFlag != "" {
		if err := appendRecord(*benchFlag, rec); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded -> %s\n", *benchFlag)
	}
	return nil
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

// benchRecord is one appended entry of the BENCH_controller.json history.
type benchRecord struct {
	GoVersion      string  `json:"goVersion"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Scenario       string  `json:"scenario"`
	TQoS           float64 `json:"tqos"`
	Intervals      int     `json:"intervals"`
	Lookahead      bool    `json:"lookahead"`
	WarmIterations int     `json:"warmIterations"`
	ColdIterations int     `json:"coldIterations"`
	WarmWallNs     int64   `json:"warmWallNs"`
	ColdWallNs     int64   `json:"coldWallNs"`
	IterSpeedup    float64 `json:"iterSpeedup"`
	WallSpeedup    float64 `json:"wallSpeedup"`
	// Resolve* restrict the same aggregates to intervals >= 1 — the
	// incremental re-solves — leaving out interval 0, which both chains
	// necessarily solve cold and identically.
	WarmResolveIterations int     `json:"warmResolveIterations"`
	ColdResolveIterations int     `json:"coldResolveIterations"`
	WarmResolveWallNs     int64   `json:"warmResolveWallNs"`
	ColdResolveWallNs     int64   `json:"coldResolveWallNs"`
	ResolveIterSpeedup    float64 `json:"resolveIterSpeedup"`
	ResolveWallSpeedup    float64 `json:"resolveWallSpeedup"`
	BasisRepairs          int     `json:"basisRepairs"`
	ChangedCoefs          int     `json:"changedCoefs"`
	Adds                  int     `json:"adds"`
	Drops                 int     `json:"drops"`
	AvgStaleness          float64 `json:"avgStaleness"`
}

// compareRecords gates on the BENCH_controller.json history: the latest
// record must keep an iteration speedup of at least 3x over the cold
// baseline, and (when a previous record exists for the same scenario) its
// warm iteration count must not regress by more than 10%.
func compareRecords(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var history []benchRecord
	if err := json.Unmarshal(data, &history); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(history) == 0 {
		return fmt.Errorf("%s holds no records", path)
	}
	last := history[len(history)-1]
	fmt.Fprintf(w, "latest record: %s tqos=%g intervals=%d: warm %d iters (%v), cold %d iters (%v), speedup %.2fx iters / %.2fx wall, re-solve %.2fx iters / %.2fx wall\n",
		last.Scenario, last.TQoS, last.Intervals,
		last.WarmIterations, time.Duration(last.WarmWallNs).Round(time.Microsecond),
		last.ColdIterations, time.Duration(last.ColdWallNs).Round(time.Microsecond),
		last.IterSpeedup, last.WallSpeedup, last.ResolveIterSpeedup, last.ResolveWallSpeedup)
	var problems []string
	if last.IterSpeedup < 3 {
		problems = append(problems, fmt.Sprintf("iteration speedup %.2fx below the 3x bar", last.IterSpeedup))
	}
	if last.WarmResolveIterations > 0 {
		if last.ResolveIterSpeedup < 3 {
			problems = append(problems, fmt.Sprintf("re-solve iteration speedup %.2fx below the 3x bar", last.ResolveIterSpeedup))
		}
		if last.ResolveWallSpeedup < 3 {
			problems = append(problems, fmt.Sprintf("re-solve wall speedup %.2fx below the 3x bar", last.ResolveWallSpeedup))
		}
	}
	for i := len(history) - 2; i >= 0; i-- {
		prev := history[i]
		if prev.Scenario != last.Scenario || prev.TQoS != last.TQoS || prev.Intervals != last.Intervals || prev.Lookahead != last.Lookahead {
			continue
		}
		fmt.Fprintf(w, "baseline record %d: warm %d iters, speedup %.2fx\n", i+1, prev.WarmIterations, prev.IterSpeedup)
		if prev.WarmIterations > 0 && float64(last.WarmIterations) > 1.1*float64(prev.WarmIterations) {
			problems = append(problems, fmt.Sprintf("warm iterations regressed %d -> %d (+%.0f%%)",
				prev.WarmIterations, last.WarmIterations,
				100*(float64(last.WarmIterations)/float64(prev.WarmIterations)-1)))
		}
		break
	}
	if len(problems) > 0 {
		return fmt.Errorf("controller bench gate failed: %s", strings.Join(problems, "; "))
	}
	fmt.Fprintln(w, "gate passed")
	return nil
}

// appendRecord extends the JSON-array history file with one record,
// tolerating a missing or empty file (same convention as BENCH_scale.json).
func appendRecord(path string, rec benchRecord) error {
	var history []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		trimmed := strings.TrimSpace(string(data))
		if trimmed != "" {
			if err := json.Unmarshal([]byte(trimmed), &history); err != nil {
				return fmt.Errorf("existing %s: %w", path, err)
			}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	history = append(history, raw)
	out, err := json.MarshalIndent(history, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// truncate limits a bucketed workload to its first n intervals.
func truncate(c *workload.Counts, n int) *workload.Counts {
	if n <= 0 || n >= c.Intervals {
		return c
	}
	out := &workload.Counts{
		Reads: make([][][]int, c.Nodes), Writes: make([][][]int, c.Nodes),
		Nodes: c.Nodes, Intervals: n, Objects: c.Objects, Delta: c.Delta,
	}
	for i := range out.Reads {
		out.Reads[i] = c.Reads[i][:n]
		out.Writes[i] = c.Writes[i][:n]
	}
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
