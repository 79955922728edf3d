package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

func boundOpts() Options { return Options{} }

// tinySpec is small enough for CI yet exercises every figure path.
func tinySpec(kind WorkloadKind) Spec {
	return Spec{
		Workload:  kind,
		Nodes:     6,
		Objects:   10,
		Requests:  2500,
		Horizon:   8 * time.Hour,
		Delta:     time.Hour,
		Seed:      3,
		Tlat:      150,
		QoSPoints: []float64{0.8, 0.9},
		Zeta:      100,
	}
}

// build generates a spec's system with the topology and workload
// generators. Outside tests, systems come from scenario.Compile, which
// imports this package, so its tests state their systems here.
func build(spec Spec) (*System, error) {
	topo, err := topology.Generate(topology.GenOptions{N: spec.Nodes, Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	var trace *workload.Trace
	switch spec.Workload {
	case WEB:
		trace, err = workload.GenerateWeb(workload.WebOptions{
			Nodes: spec.Nodes, Objects: spec.Objects, Requests: spec.Requests,
			Duration: spec.Horizon, Seed: spec.Seed, ZipfS: spec.ZipfS,
		})
	case GROUP:
		trace, err = workload.GenerateGroup(workload.GroupOptions{
			Nodes: spec.Nodes, Objects: spec.Objects, Requests: spec.Requests,
			Duration: spec.Horizon, Seed: spec.Seed,
		})
	default:
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	if err != nil {
		return nil, err
	}
	counts, err := trace.Bucket(spec.Delta)
	if err != nil {
		return nil, err
	}
	return &System{Spec: spec, Topo: topo, Trace: trace, Counts: counts}, nil
}

func TestFigure1Shape(t *testing.T) {
	sys, err := build(tinySpec(WEB))
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Figure1(sys, boundOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 6 {
		t.Fatalf("series = %d, want 6", len(fig.Series))
	}
	var general, sc []Point
	for _, s := range fig.Series {
		switch s.Name {
		case "general":
			general = s.Points
		case "storage-constrained":
			sc = s.Points
		}
		if len(s.Points) != 2 {
			t.Fatalf("%s has %d points, want 2", s.Name, len(s.Points))
		}
	}
	for i := range general {
		if general[i].Infeasible {
			t.Fatalf("general bound infeasible at %g", general[i].QoS)
		}
		if !sc[i].Infeasible && sc[i].Bound < general[i].Bound-1e-6 {
			t.Errorf("SC bound %g below general %g at %g", sc[i].Bound, general[i].Bound, general[i].QoS)
		}
	}
	var buf bytes.Buffer
	if err := fig.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "general") || !strings.Contains(out, "qos") {
		t.Errorf("TSV output missing headers:\n%s", out)
	}
}

func TestFigure2Shape(t *testing.T) {
	sys, err := build(tinySpec(WEB))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Figure2(sys, boundOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bound) != 2 || len(res.Chosen) != 2 || len(res.LRU) != 2 {
		t.Fatalf("unexpected point counts: %d/%d/%d", len(res.Bound), len(res.Chosen), len(res.LRU))
	}
	for i := range res.Bound {
		if res.Bound[i].Infeasible || res.Chosen[i].Infeasible {
			continue
		}
		// The deployed heuristic's simulated cost must respect its class's
		// lower bound (the central claim being certified).
		if res.Chosen[i].Cost < res.Bound[i].Bound-1e-6 {
			t.Errorf("qos=%g: deployed cost %g below class bound %g",
				res.Bound[i].QoS, res.Chosen[i].Cost, res.Bound[i].Bound)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	spec := tinySpec(WEB)
	spec.QoSPoints = []float64{0.7, 0.8}
	sys, err := build(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Figure3(sys, boundOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OpenNodes) == 0 || len(res.OpenNodes) > spec.Nodes {
		t.Fatalf("open nodes = %v", res.OpenNodes)
	}
	if len(res.Figure.Series) != 4 {
		t.Fatalf("series = %d, want 4 (reactive, SC, RC, caching)", len(res.Figure.Series))
	}
}

func TestTable3(t *testing.T) {
	sys, err := build(tinySpec(WEB))
	if err != nil {
		t.Fatal(err)
	}
	rows := Table3(sys.Topo, 150)
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Class] = r
	}
	caching := byName["caching"]
	if !caching.SC || caching.RC || caching.Route != "local" || caching.Know != "local" ||
		caching.Hist != "single" || !caching.Reactive {
		t.Errorf("caching row wrong: %+v", caching)
	}
	sc := byName["storage-constrained"]
	if !sc.SC || sc.Route != "global" || sc.Know != "global" || sc.Hist != "multi" || sc.Reactive {
		t.Errorf("storage-constrained row wrong: %+v", sc)
	}
	prefetch := byName["caching-prefetch"]
	if prefetch.Reactive {
		t.Error("prefetch variant must be proactive")
	}
	var buf bytes.Buffer
	if err := WriteTable3(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "coop-caching") {
		t.Error("rendered table missing rows")
	}
}
