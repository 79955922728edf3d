package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadInput smoke-tests the flag/spec validation path; the
// full methodology is exercised by internal/experiments and the bench
// harness, so the binary test stays fast.
func TestRunRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-no-such-flag"}},
		{"unknown scale", []string{"-scale", "galactic"}},
		{"unknown workload", []string{"-workload", "mixed"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(c.args, &out); err == nil {
				t.Fatalf("run(%v) succeeded; want error", c.args)
			}
			if out.Len() != 0 && !strings.HasPrefix(out.String(), "#") {
				t.Fatalf("failed run wrote output: %q", out.String())
			}
		})
	}
}

// TestRunPhase1FailureNamesPhaseOnce: at small scale the reactive class
// cannot meet the loosest goal, so the run fails in phase 1 within
// milliseconds, and its error names the phase once.
func TestRunPhase1FailureNamesPhaseOnce(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-workload", "web", "-scale", "small"}, &out)
	if err == nil {
		t.Fatal("deploy -workload web -scale small succeeded; want a phase 1 failure")
	}
	if n := strings.Count(err.Error(), "phase 1:"); n != 1 {
		t.Fatalf("error names phase 1 %d times, want once: %v", n, err)
	}
}
