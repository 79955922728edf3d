package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// smallWorkloads are the four workloads at sizes that run in seconds, even
// under the race detector.
func smallWorkloads() []workload {
	return []workload{
		&sweepWorkload{p: sweepParams{PerKind: 1, Objects: 3, HorizonHours: 2, WebRequests: 200, GroupRequests: 400}},
		&resolveWorkload{p: resolveParams{Seeds: 1, TQoS: []float64{0.9}, DeltaMinutes: 360, Requests: 2000}},
		&serveWorkload{p: serveParams{Hot: 1, HotPool: 1, HotObjects: 3, HotRequests: 300,
			FreshPerKind: 1, FreshObjects: 3, FreshRequests: 200, FreshHorizonHours: 2, FreshEvery: 2, Clients: 2}},
		&ingestWorkload{p: ingestParams{Seeds: 1, Objects: 50, Requests: 50_000}},
	}
}

// corrupt falsifies every reference answer of a workload.
func corrupt(w workload) {
	switch w := w.(type) {
	case *sweepWorkload:
		for i := range w.ref.Pool {
			c := &w.ref.Pool[i]
			for k := range c.Bound {
				c.Bound[k] = 1.5*c.Bound[k] + 1
			}
			c.Infeasible = nil
		}
	case *resolveWorkload:
		for i := range w.ref.Pool {
			w.ref.Pool[i].BoundSum = 1.5*w.ref.Pool[i].BoundSum + 1
		}
	case *serveWorkload:
		for i := range w.ref.Fresh {
			w.ref.Fresh[i].TSV = tsvDigest(nil)
		}
	case *ingestWorkload:
		for i := range w.ref.Pool {
			w.ref.Pool[i].Fingerprint = "sha256:0"
		}
	}
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (endToEnd, perLayer []declared, names []string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	return doc.EndToEnd, doc.PerLayer, names
}

// prepare computes a small workload's reference answers and installs them.
func prepare(t *testing.T, w workload) {
	t.Helper()
	ref, err := w.makeRef(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.useRef(data); err != nil {
		t.Fatal(err)
	}
}

func checkPrinted(t *testing.T, got map[string]metric, want []declared) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		}
	}
}

func TestWorkloads(t *testing.T) {
	endToEnd, perLayer, names := readBenchmarkJSON(t)
	var have []string
	for _, w := range fullWorkloads() {
		have = append(have, w.name())
	}
	if !reflect.DeepEqual(have, names) {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark has %v", names, have)
	}
	for _, w := range smallWorkloads() {
		t.Run(w.name(), func(t *testing.T) {
			prepare(t, w)
			const ops = 2
			run := func(trace bool) result {
				t.Helper()
				rep, _, err := execute(w, runConfig{seed: 1, seconds: 1, ops: ops, trace: trace}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				return rep.result
			}

			plain := run(false)
			checkPrinted(t, plain.Metrics, endToEnd)
			if !plain.Correct || plain.Failed != 0 || plain.Attempted < ops {
				t.Errorf("untraced run: correct=%t attempted=%d failed=%d", plain.Correct, plain.Attempted, plain.Failed)
			}
			for _, d := range endToEnd {
				if v := plain.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want a positive measurement", d.Name, v)
				}
			}

			// Two traced runs of the same operations agree on every
			// deterministic counter; the traced phase of each reproduces
			// the untraced answers (fingerprints, bounds, TSVs) bit for bit.
			first, second := run(true), run(true)
			checkPrinted(t, first.Metrics, perLayer)
			for _, r := range []result{first, second} {
				if !r.Correct {
					t.Errorf("traced run: attempted=%d failed=%d", r.Attempted, r.Failed)
				}
			}
			for _, d := range perLayer {
				if d.Unit == "count" && first.Metrics[d.Name] != second.Metrics[d.Name] {
					t.Errorf("%s differs between runs: %v vs %v", d.Name, first.Metrics[d.Name], second.Metrics[d.Name])
				}
			}

			corrupt(w)
			if bad := run(false); bad.Correct || bad.Failed == 0 {
				t.Errorf("a corrupted reference answer went unnoticed: attempted=%d failed=%d", bad.Attempted, bad.Failed)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", shift(1), false, "unchanged"},
		{"slower by more than the bound", shift(1.2), false, "worse"},
		{"faster everywhere", shift(0.8), false, "better"},
		{"higher is better", shift(1.2), true, "better"},
		{"inside the bound", shift(1.05), false, "unchanged"},
		{"too noisy to tell", []float64{60, 140, 70, 130, 100, 95, 105, 80, 120, 100}, false, "unresolved"},
	} {
		if got := verdict(base, tc.b, tc.higher, 0.1); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
