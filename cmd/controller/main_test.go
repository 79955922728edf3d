package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunDiurnalShift drives the binary's real flow on a short replay and
// appends its record to a fresh history file.
func TestRunDiurnalShift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.json")
	var out bytes.Buffer
	args := []string{"-scenario", "diurnal-shift", "-intervals", "3", "-presolve=false", "-bench", path}
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, out.String())
	}
	got := out.String()
	for _, want := range []string{"warm chain:", "cold base:", "speedup:", "re-solve:", "recorded -> " + path} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var history []benchRecord
	if err := json.Unmarshal(data, &history); err != nil {
		t.Fatalf("history does not parse: %v", err)
	}
	if len(history) != 1 || history[0].Scenario != "diurnal-shift" || history[0].Intervals != 3 {
		t.Fatalf("history = %+v, want one diurnal-shift record over 3 intervals", history)
	}
}

// TestCompareGate runs -compare on hand-written histories: the latest
// record passes at 3x or more over the cold baseline and fails below it
// or when its warm iterations grow more than 10% over the previous record.
func TestCompareGate(t *testing.T) {
	record := func(warm int, iter, resolveIter, resolveWall float64) benchRecord {
		return benchRecord{
			Scenario: "diurnal-shift", TQoS: 0.95, Intervals: 8, Lookahead: true,
			WarmIterations: warm, IterSpeedup: iter, WarmResolveIterations: warm / 2,
			ResolveIterSpeedup: resolveIter, ResolveWallSpeedup: resolveWall,
		}
	}
	base := record(2759, 3.12, 4.35, 3.00)
	cases := []struct {
		name    string
		history []benchRecord
		ok      bool
	}{
		{"at 3x", []benchRecord{base, record(2759, 3.0, 3.0, 3.0)}, true},
		{"iterations below 3x", []benchRecord{base, record(2759, 2.73, 3.74, 3.0)}, false},
		{"re-solve wall below 3x", []benchRecord{base, record(2759, 3.12, 4.35, 2.06)}, false},
		{"warm iterations +11%", []benchRecord{base, record(3063, 3.12, 4.35, 3.0)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "history.json")
			data, err := json.Marshal(c.history)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			err = run([]string{"-compare", "-bench", path}, &out)
			if c.ok && err != nil {
				t.Fatalf("gate failed: %v\n%s", err, out.String())
			}
			if !c.ok && err == nil {
				t.Fatalf("gate passed; want failure\n%s", out.String())
			}
			if passed := strings.Contains(out.String(), "gate passed"); passed != c.ok {
				t.Fatalf("printed gate passed = %v, want %v:\n%s", passed, c.ok, out.String())
			}
		})
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"compare without bench", []string{"-compare"}},
		{"no scenario", nil},
		{"unknown scenario", []string{"-scenario", "no-such-scenario"}},
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
