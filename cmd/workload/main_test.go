package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wideplace/internal/scenario"
)

// TestGenerateAndDescribeRoundTrip drives the binary's real flow: generate
// a topology and a trace, then describe both back from disk.
func TestGenerateAndDescribeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	topoPath := filepath.Join(dir, "topo.json")
	tracePath := filepath.Join(dir, "trace.json")

	var topoOut bytes.Buffer
	if err := run([]string{"gen-topology", "-nodes", "8", "-seed", "3"}, &topoOut); err != nil {
		t.Fatalf("gen-topology: %v", err)
	}
	if err := os.WriteFile(topoPath, topoOut.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var traceOut bytes.Buffer
	args := []string{"gen-trace", "-workload", "group", "-nodes", "8", "-objects", "6", "-requests", "500", "-horizon", "4h"}
	if err := run(args, &traceOut); err != nil {
		t.Fatalf("gen-trace: %v", err)
	}
	if err := os.WriteFile(tracePath, traceOut.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var desc bytes.Buffer
	if err := run([]string{"describe", "-topology", topoPath, "-trace", tracePath}, &desc); err != nil {
		t.Fatalf("describe: %v", err)
	}
	got := desc.String()
	for _, want := range []string{"topology: 8 sites", "500 accesses", "6 objects"} {
		if !strings.Contains(got, want) {
			t.Errorf("describe output missing %q:\n%s", want, got)
		}
	}
}

// TestCompileExportsReadBack drives compile's -topo/-trace export and
// reads both files back through describe.
func TestCompileExportsReadBack(t *testing.T) {
	const name = "diurnal-shift"
	spec, err := scenario.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	topoPath := filepath.Join(dir, "topo.json")
	tracePath := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	if err := run([]string{"compile", "-scenario", name, "-topo", topoPath, "-trace", tracePath}, &out); err != nil {
		t.Fatalf("compile: %v", err)
	}

	var desc bytes.Buffer
	if err := run([]string{"describe", "-topology", topoPath, "-trace", tracePath}, &desc); err != nil {
		t.Fatalf("describe: %v", err)
	}
	got := desc.String()
	for _, want := range []string{
		fmt.Sprintf("topology: %d sites", spec.Nodes()),
		fmt.Sprintf("trace: %d accesses", spec.Workload.Requests),
		fmt.Sprintf("%d objects", spec.Workload.Objects),
	} {
		if !strings.Contains(got, want) {
			t.Errorf("describe output missing %q:\n%s", want, got)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no subcommand", nil},
		{"unknown subcommand", []string{"frobnicate"}},
		{"unknown workload", []string{"gen-trace", "-workload", "cdn"}},
		{"negative zipf exponent", []string{"gen-trace", "-workload", "web", "-zipf", "-200"}},
		{"describe without inputs", []string{"describe"}},
		{"describe missing file", []string{"describe", "-trace", "/nonexistent/trace.json"}},
		{"zero trace nodes", []string{"gen-trace", "-nodes", "0"}},
		{"zero objects", []string{"gen-trace", "-objects", "0"}},
		{"zero requests", []string{"gen-trace", "-requests", "0"}},
		{"zero horizon", []string{"gen-trace", "-horizon", "0"}},
		{"zero topology nodes", []string{"gen-topology", "-nodes", "0"}},
		{"inverted hop range", []string{"gen-topology", "-min-hop", "300", "-max-hop", "100"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(c.args, &out); err == nil {
				t.Fatalf("run(%v) succeeded; want error", c.args)
			}
		})
	}
}
