package experiments

import (
	"testing"
	"time"

	"wideplace/internal/core"
)

// benchLadderSpec is the fixed instance the warm-vs-cold benchmarks run:
// a small WEB system (small enough for CI, large enough that the LP
// dominates setup) with a five-point QoS ladder, so each column is long
// enough for basis reuse to pay for itself.
func benchLadderSpec(tb testing.TB) *System {
	sys, err := build(Spec{
		Workload: WEB, Nodes: 8, Objects: 10, Requests: 2000,
		Horizon: 4 * time.Hour, Delta: time.Hour, Seed: 1, Tlat: 150,
		QoSPoints: []float64{0.90, 0.93, 0.95, 0.97, 0.99}, Zeta: 500,
	})
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

// BenchmarkSweepWarm/Cold isolate the warm-start speedup: one serial
// sweep of the ladder instance under the engine defaults, against solving
// every (class, QoS) cell of the same grid on its own from the crash basis.
func BenchmarkSweepWarm(b *testing.B) { benchLadderSweep(b, Options{Parallel: 1}) }

func BenchmarkSweepCold(b *testing.B) {
	sys := benchLadderSpec(b)
	classes := figure1Classes(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldFigure(b, sys, classes, "", core.BoundOptions{})
	}
}
