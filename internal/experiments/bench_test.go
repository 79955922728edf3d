package experiments

import "testing"

// benchLadderSpec is the fixed instance the warm-vs-cold benchmarks run:
// a small WEB system (small enough for CI, large enough that the LP
// dominates setup) with a five-point QoS ladder, so each column is long
// enough for basis reuse to pay for itself.
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
// chaining.
func BenchmarkSweepWarm(b *testing.B) { benchLadderSweep(b, Options{Parallel: 1}) }
func BenchmarkSweepCold(b *testing.B) { benchLadderSweep(b, Options{Parallel: 1, ColdStart: true}) }
