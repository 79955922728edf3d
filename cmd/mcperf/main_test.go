package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunTinyInstance solves a deliberately tiny MC-PERF instance end to
// end through the binary's run path.
func TestRunTinyInstance(t *testing.T) {
	var out bytes.Buffer
	args := []string{
		"-nodes", "5", "-objects", "5", "-requests", "400", "-horizon", "2h",
		"-class", "general", "-tqos", "0.9", "-skip-rounding",
	}
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	got := out.String()
	for _, want := range []string{"class:      general", "lower bound"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunScenario solves a registered scenario end to end; the instance
// line must report the compiled system's sizes.
func TestRunScenario(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-scenario", "paper20-web", "-skip-rounding"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	const want = "instance:   web workload, 20 nodes, 24 objects, 12000 requests, 8 intervals of 1h0m0s\n"
	if got := out.String(); !strings.HasPrefix(got, want) {
		t.Errorf("output does not start with %q:\n%s", want, got)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-frobnicate"}},
		{"unknown workload", []string{"-workload", "cdn"}},
		{"unknown class", []string{"-class", "clairvoyant"}},
		{"zero threshold", []string{"-tlat", "0"}},
		{"sub-millisecond interval", []string{"-delta", "1500us"}},
		{"zipf exponent on group", []string{"-workload", "group", "-zipf", "1.2"}},
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
