package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestProgressLogging(t *testing.T) {
	sys, err := build(tinySpec(WEB))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	progress := Progress(func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	if _, err := Figure2(sys, boundOpts(), progress); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no progress lines emitted")
	}
	sawBound, sawHeuristic := false, false
	for _, l := range lines {
		if strings.Contains(l, "storage-constrained") {
			sawBound = true
		}
		if strings.Contains(l, "greedy-global") || strings.Contains(l, "lru") {
			sawHeuristic = true
		}
	}
	if !sawBound || !sawHeuristic {
		t.Errorf("progress lines missing expected entries: %q", lines)
	}
}

func TestNilProgressIsSafe(t *testing.T) {
	var p Progress
	p.logf("must not panic %d", 1)
}

func TestWriteTSVEmptyFigure(t *testing.T) {
	f := &Figure{Title: "empty", Spec: Spec{Workload: WEB}}
	var buf bytes.Buffer
	if err := f.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Error("header missing")
	}
}
