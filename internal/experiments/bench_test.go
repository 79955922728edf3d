package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"wideplace/internal/lp"
)

// benchSpec is the fixed instance every sweep benchmark runs: small
// enough for CI, large enough that the LP dominates setup. Changing it
// invalidates BENCH_sweep.json history.
func benchSpec(tb testing.TB) *System {
	spec, err := NewSpec(WEB, ScaleSmall)
	if err != nil {
		tb.Fatal(err)
	}
	spec.Nodes = 8
	spec.Objects = 10
	spec.Requests = 2000
	spec.Horizon = 4 * 3600e9
	spec.QoSPoints = []float64{0.9, 0.95}
	sys, err := Build(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

func benchSweep(b *testing.B, parallel int) {
	sys := benchSpec(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Figure1(sys, Options{Parallel: parallel}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// benchLadderSpec is benchSpec's instance with a five-point QoS ladder:
// the warm-vs-cold comparison needs columns long enough that basis reuse
// can pay for itself. Changing it invalidates the Warm/Cold history in
// BENCH_sweep.json (benchSpec itself stays untouched so the
// Serial/Parallel history remains comparable).
func benchLadderSpec(tb testing.TB) *System {
	spec, err := NewSpec(WEB, ScaleSmall)
	if err != nil {
		tb.Fatal(err)
	}
	spec.Nodes = 8
	spec.Objects = 10
	spec.Requests = 2000
	spec.Horizon = 4 * 3600e9
	spec.QoSPoints = []float64{0.90, 0.93, 0.95, 0.97, 0.99}
	sys, err := Build(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

func benchLadderSweep(b *testing.B, opts Options) {
	sys := benchLadderSpec(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Figure1(sys, opts, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepWarm/Cold isolate the warm-start speedup: one serial sweep
// of the ladder instance under the engine defaults, with and without basis
// chaining. BENCH_sweep.json records written before these ran on the
// defaults timed a Dantzig, no-presolve, no-rebind path under the same
// names; their default-path twin was SweepPresolved.
func BenchmarkSweepWarm(b *testing.B) { benchLadderSweep(b, Options{Parallel: 1}) }
func BenchmarkSweepCold(b *testing.B) { benchLadderSweep(b, Options{Parallel: 1, ColdStart: true}) }

// benchSweepEntry is one benchmark's wall-time measurement.
type benchSweepEntry struct {
	Name    string `json:"name"`
	NsPerOp int64  `json:"nsPerOp"`
	Runs    int    `json:"runs"`
}

// benchSolver holds a sweep's deterministic solver-effort counters.
type benchSolver struct {
	Cells            int `json:"cells"`
	Iterations       int `json:"iterations"`
	Phase1Iterations int `json:"phase1Iterations"`
	// InitialFactorizations (one per solve) and Refactorizations
	// (mid-solve only) were a single conflated counter on records written
	// before the split; omitempty keeps those records parseable.
	InitialFactorizations int   `json:"initialFactorizations,omitempty"`
	Refactorizations      int   `json:"refactorizations"`
	DegenerateSteps       int   `json:"degenerateSteps"`
	BoundFlips            int   `json:"boundFlips"`
	PricingScans          int64 `json:"pricingScans"`
	WarmSolves            int   `json:"warmSolves,omitempty"`
	ColdSolves            int   `json:"coldSolves,omitempty"`
	WarmIterations        int   `json:"warmIterations,omitempty"`
	ColdIterations        int   `json:"coldIterations,omitempty"`
	// Presolve/rebind/pricing counters, zero (and omitted) on records
	// predating the solver-speed layer.
	PresolveRowsRemoved int    `json:"presolveRowsRemoved,omitempty"`
	PresolveColsRemoved int    `json:"presolveColsRemoved,omitempty"`
	RebindSolves        int    `json:"rebindSolves,omitempty"`
	Pricing             string `json:"pricing,omitempty"`
}

// benchRecord is one data point of BENCH_sweep.json: wall time per sweep
// plus the sweep's deterministic solver-effort counters, so a perf
// regression can be attributed (more iterations = algorithmic change,
// same iterations but slower = implementation change). The file is an
// array of records, one per recorded engine revision, oldest first.
type benchRecord struct {
	GoVersion  string            `json:"goVersion"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Sweeps     []benchSweepEntry `json:"sweeps"`
	// Solver counts the default serial benchSpec sweep (warm chaining,
	// presolve, devex, rebind — whatever the engine's defaults are at
	// that revision). Older records also carry a solverCold block: the
	// same sweep pinned to the legacy Dantzig, no-presolve cold path.
	Solver benchSolver `json:"solver"`
}

func solverCounters(fig *Figure) benchSolver {
	var out benchSolver
	var agg lp.Stats
	out.Cells, agg = fig.SolverStats()
	out.Iterations = agg.Iterations
	out.Phase1Iterations = agg.Phase1Iterations
	out.InitialFactorizations = agg.InitialFactorizations
	out.Refactorizations = agg.Refactorizations
	out.DegenerateSteps = agg.DegenerateSteps
	out.BoundFlips = agg.BoundFlips
	out.PricingScans = agg.PricingScans
	out.WarmSolves = agg.WarmSolves
	out.ColdSolves = agg.ColdSolves
	out.WarmIterations = agg.WarmIterations
	out.ColdIterations = agg.ColdIterations
	out.PresolveRowsRemoved = agg.PresolveRowsRemoved
	out.PresolveColsRemoved = agg.PresolveColsRemoved
	out.RebindSolves = agg.RebindSolves
	out.Pricing = agg.PricingRule
	return out
}

// TestWriteBenchJSON appends a data point to BENCH_sweep.json when
// BENCH_JSON names the output path (it is skipped in normal test runs):
//
//	BENCH_JSON=$PWD/BENCH_sweep.json go test ./internal/experiments -run TestWriteBenchJSON -v
//
// An existing file is extended: a legacy single-object file becomes the
// first element of the array form.
func TestWriteBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("set BENCH_JSON=<path> to emit the sweep benchmark data point")
	}
	var history []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		trimmed := bytes.TrimSpace(data)
		switch {
		case len(trimmed) == 0:
		case trimmed[0] == '[':
			if err := json.Unmarshal(trimmed, &history); err != nil {
				t.Fatalf("existing %s: %v", path, err)
			}
		default:
			history = append(history, json.RawMessage(trimmed))
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}

	var rec benchRecord
	rec.GoVersion = runtime.Version()
	rec.GOMAXPROCS = runtime.GOMAXPROCS(0)
	for _, bench := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"SweepSerial", BenchmarkSweepSerial},
		{"SweepParallel", BenchmarkSweepParallel},
		{"SweepWarm", BenchmarkSweepWarm},
		{"SweepCold", BenchmarkSweepCold},
	} {
		res := testing.Benchmark(bench.fn)
		rec.Sweeps = append(rec.Sweeps, benchSweepEntry{bench.name, res.NsPerOp(), res.N})
	}

	// The counters are deterministic for the fixed spec, so they come
	// from one additional serial sweep rather than the timed runs.
	fig, err := Figure1(benchSpec(t), Options{Parallel: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.Solver = solverCounters(fig)

	recJSON, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	history = append(history, recJSON)
	out, err := json.MarshalIndent(history, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d records)", path, len(history))
}
