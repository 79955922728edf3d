// Command workload generates, describes and converts the evaluation
// inputs: topologies and access traces. Generated artifacts are JSON and
// feed back into the library through topology.Read / workload.Read, so a
// user can pin down the exact system an analysis ran on, or bring their
// own traces in the same format.
//
// Usage:
//
//	workload gen-topology -nodes 20 -seed 1 > topo.json
//	workload gen-trace -workload web -objects 1000 > trace.json
//	workload describe -trace trace.json
//	workload scenarios                          # list the scenario registry
//	workload compile -scenario flash-crowd      # generate + self-check a scenario
//	workload compile -scenario spec.json -topo topo.json -trace trace.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"wideplace/internal/scenario"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "workload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("need a subcommand: gen-topology, gen-trace, describe, scenarios or compile")
	}
	switch args[0] {
	case "gen-topology":
		return genTopology(args[1:], stdout)
	case "gen-trace":
		return genTrace(args[1:], stdout)
	case "describe":
		return describe(args[1:], stdout)
	case "scenarios":
		return listScenarios(stdout)
	case "compile":
		return compileScenario(args[1:], stdout)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func listScenarios(stdout io.Writer) error {
	for _, spec := range scenario.Specs() {
		fmt.Fprintf(stdout, "%-26s %s\n", spec.Name, spec.Description)
	}
	return nil
}

// compileScenario compiles a scenario, prints the self-checked summary
// and optionally exports the generated topology and trace in the same
// JSON formats gen-topology/gen-trace emit, closing the loop between the
// declarative and the artifact-based workflows. Only -trace keeps the
// time-sorted trace; otherwise the accesses stream into counts.
func compileScenario(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compile", flag.ContinueOnError)
	ref := fs.String("scenario", "", "registered scenario name or spec file (required)")
	topoOut := fs.String("topo", "", "also write the generated topology JSON here")
	traceOut := fs.String("trace", "", "also write the generated trace JSON here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ref == "" {
		return fmt.Errorf("compile: -scenario is required")
	}
	spec, err := scenario.Load(*ref)
	if err != nil {
		return err
	}
	opts := scenario.CompileOptions{}
	if *traceOut != "" {
		opts.Streaming = scenario.StreamOff
	}
	res, err := scenario.CompileWith(spec, opts)
	if err != nil {
		return err
	}
	sys := res.System
	fmt.Fprintf(stdout, "scenario:    %s (%s)\n", spec.Name, spec.Description)
	fmt.Fprintf(stdout, "fingerprint: %s\n", res.Fingerprint)
	fmt.Fprintf(stdout, "topology:    %s, %d nodes\n", spec.Topology.Model, sys.Topo.N)
	fmt.Fprintf(stdout, "workload:    %s, %d objects, %d requests over %v in %d intervals\n",
		spec.Workload.Model, sys.Spec.Objects, sys.Spec.Requests, sys.Spec.Horizon, sys.Counts.Intervals)
	fmt.Fprintf(stdout, "goal:        qos %v within %g ms\n", spec.QoS, spec.Tlat())
	names := make([]string, len(res.Classes))
	for i, c := range res.Classes {
		names[i] = c.Name
	}
	fmt.Fprintf(stdout, "classes:     %v\n", names)
	for _, w := range res.Warnings {
		fmt.Fprintf(stdout, "warning:     %s\n", w)
	}
	if *topoOut != "" {
		if err := writeArtifact(*topoOut, sys.Topo.Write); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		if err := writeArtifact(*traceOut, sys.Trace.Write); err != nil {
			return err
		}
	}
	return nil
}

func writeArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// positive rejects a zero or negative size flag. The generators read zero
// as "use the default", which is not what a user who types -nodes 0 means.
func positive[T int | time.Duration](cmd, name string, v T) error {
	if v <= 0 {
		return fmt.Errorf("%s: -%s must be positive, got %v", cmd, name, v)
	}
	return nil
}

func genTopology(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gen-topology", flag.ContinueOnError)
	nodes := fs.Int("nodes", 20, "number of sites")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	minHop := fs.Float64("min-hop", 100, "minimum hop latency (ms)")
	maxHop := fs.Float64("max-hop", 200, "maximum hop latency (ms)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := positive("gen-topology", "nodes", *nodes); err != nil {
		return err
	}
	topo, err := topology.Generate(topology.GenOptions{
		N: *nodes, Seed: *seed, MinHop: *minHop, MaxHop: *maxHop,
	})
	if err != nil {
		return err
	}
	return topo.Write(stdout)
}

func genTrace(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gen-trace", flag.ContinueOnError)
	kind := fs.String("workload", "web", "web or group")
	nodes := fs.Int("nodes", 20, "number of sites")
	objects := fs.Int("objects", 1000, "number of objects")
	requests := fs.Int("requests", 300000, "total requests")
	horizon := fs.Duration("horizon", 24*time.Hour, "trace duration")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	zipf := fs.Float64("zipf", 0, "WEB Zipf exponent (0 = default)")
	writes := fs.Float64("writes", 0, "fraction of accesses turned into writes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := errors.Join(
		positive("gen-trace", "nodes", *nodes),
		positive("gen-trace", "objects", *objects),
		positive("gen-trace", "requests", *requests),
		positive("gen-trace", "horizon", *horizon),
	); err != nil {
		return err
	}
	var tr *workload.Trace
	var err error
	switch *kind {
	case "web":
		tr, err = workload.GenerateWeb(workload.WebOptions{
			Nodes: *nodes, Objects: *objects, Requests: *requests,
			Duration: *horizon, Seed: *seed, ZipfS: *zipf, WriteFraction: *writes,
		})
	case "group":
		tr, err = workload.GenerateGroup(workload.GroupOptions{
			Nodes: *nodes, Objects: *objects, Requests: *requests,
			Duration: *horizon, Seed: *seed, WriteFraction: *writes,
		})
	default:
		return fmt.Errorf("unknown workload %q", *kind)
	}
	if err != nil {
		return err
	}
	return tr.Write(stdout)
}

func describe(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("describe", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "trace JSON to summarize")
	topoPath := fs.String("topology", "", "topology JSON to summarize")
	delta := fs.Duration("delta", time.Hour, "interval for per-interval statistics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" && *topoPath == "" {
		return fmt.Errorf("describe needs -trace and/or -topology")
	}
	if *topoPath != "" {
		f, err := os.Open(*topoPath)
		if err != nil {
			return err
		}
		defer f.Close()
		topo, err := topology.Read(f)
		if err != nil {
			return err
		}
		within := 0
		d := topo.Dist(150)
		for n := 0; n < topo.N; n++ {
			if n != topo.Origin && d[n][topo.Origin] {
				within++
			}
		}
		fmt.Fprintf(stdout, "topology: %d sites, %d links, origin %d, diameter %.0f ms, %d sites within 150 ms of the origin\n",
			topo.N, len(topo.Links), topo.Origin, topo.MaxLatency(), within)
	}
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := workload.Read(f)
		if err != nil {
			return err
		}
		s := workload.Describe(tr)
		fmt.Fprintf(stdout, "trace: %d accesses (%d reads, %d writes) over %v, %d sites (%d active), %d objects\n",
			s.Requests, s.Reads, s.Writes, tr.Duration, tr.NumNodes, s.ActiveNodes, tr.NumObjects)
		fmt.Fprintf(stdout, "popularity: hottest object %d with %d accesses; coldest object %d with %d\n",
			s.HottestObj, s.HottestCount, s.ColdestObj, s.ColdestCount)
		counts, err := tr.Bucket(*delta)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "intervals: %d of %v\n", counts.Intervals, *delta)
	}
	return nil
}
