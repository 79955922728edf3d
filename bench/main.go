// Command bench is the repository's benchmark. It drives four workloads
// through the public functions of the placement packages — scenario
// compile, the Figure-1 bound sweep, the online controller, the HTTP
// service and the 16M-request ingest path — and prints one JSON result line
// per run: end-to-end metrics in an untraced run, per-layer metrics in a
// traced one. README.md explains the workloads, the metrics and how to run
// and compare them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// procs is the GOMAXPROCS every measured run uses: two callers or solves
// at most, so a run means the same thing on any machine with two cores.
func procs() int { return min(2, runtime.NumCPU()) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Uint64("seed", 1, "input seed: picks the run's instances from the reference pool")
		seconds  = fs.Float64("seconds", 25, "how long one run measures")
		ops      = fs.Int("ops", 0, "run exactly this many operations instead of measuring for -seconds (repeatable counters)")
		trace    = fs.Int("trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
		traceOut = fs.String("trace-out", "", "Chrome trace-event file written by a traced run (default .bench_build/trace-<workload>-<seed>.json)")
		writeRef = fs.Bool("write-ref", false, "recompute the reference answers into bench/ref (of -workload only, if given) and exit")
		compare  = fs.Bool("compare", false, "compare two directories of saved run outputs, with the bounds of BENCHMARK.json: -compare dirA dirB")
	)
	fs.StringVar(name, "w", "", "short for -workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two directories")
			return 2
		}
		worse, err := compareDirs("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	case *writeRef:
		if err := writeRefs(filepath.Join("bench", "ref"), *name, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 || *ops < 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -ops not negative")
		return 2
	}
	w, err := loadWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, ops: *ops, trace: *trace == 1}
	rep, tr, err := execute(w, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "bench: failed:", p)
	}
	if cfg.trace {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name(), *seed))
		}
		if err := tr.writeChrome(path, w.name(), procs()); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# chrome trace: %s\n", path)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// loadWorkload returns the full-size workload with its embedded reference
// answers.
func loadWorkload(name string) (workload, error) {
	if name == "" {
		return nil, errors.New("-workload is required; one of " + strings.Join(workloadNames(), ", "))
	}
	for _, w := range fullWorkloads() {
		if w.name() == name {
			return w, loadRef(w)
		}
	}
	return nil, fmt.Errorf("unknown workload %q; one of %s", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	var names []string
	for _, w := range fullWorkloads() {
		names = append(names, w.name())
	}
	return names
}
