package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunDiurnalShift drives the binary's real flow on a short replay.
func TestRunDiurnalShift(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-scenario", "diurnal-shift", "-intervals", "3", "-presolve=false"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, out.String())
	}
	got := out.String()
	for _, want := range []string{"warm chain:", "cold base:", "speedup:", "re-solve:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunSimScoresOnlyPlannedIntervals: under an -intervals cap, -sim
// scores exactly the planned intervals, so "overall" is their aggregate
// and not a replay of the whole trace under the last planned placement.
func TestRunSimScoresOnlyPlannedIntervals(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-scenario", "diurnal-shift", "-intervals", "2", "-sim"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, out.String())
	}
	_, table, ok := strings.Cut(out.String(), "per-interval QoS attainment")
	if !ok {
		t.Fatalf("no simulation table:\n%s", out.String())
	}
	var rows []string
	for _, line := range strings.Split(table, "\n")[2:] {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] == "overall" {
			break
		}
		rows = append(rows, f[0])
	}
	if got := strings.Join(rows, ","); got != "0,1" {
		t.Errorf("simulation rows %q before overall, want 0,1:\n%s", got, table)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"no scenario", nil, "-scenario"},
		{"unknown scenario", []string{"-scenario", "no-such-scenario"}, "no-such-scenario"},
		{"negative intervals", []string{"-scenario", "diurnal-shift", "-intervals", "-2"}, "-intervals"},
		{"negative delta", []string{"-scenario", "diurnal-shift", "-delta", "-1h"}, "-delta"},
		{"negative cache", []string{"-scenario", "diurnal-shift", "-cache", "-3", "-sim"}, "-cache"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			if err == nil {
				t.Fatalf("run(%v) succeeded; want error", c.args)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run(%v): error %q does not name %s", c.args, err, c.want)
			}
		})
	}
}
