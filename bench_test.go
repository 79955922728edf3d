// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Section 6), plus ablations for the design choices called out
// in DESIGN.md. Benchmarks run at the small scale so `go test -bench=.`
// finishes on a laptop; reported results in EXPERIMENTS.md come from the
// medium scale via the cmd/ tools. Each benchmark logs the regenerated
// rows/series so the output doubles as the figure data.
package wideplace_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"wideplace/internal/core"
	"wideplace/internal/experiments"
	"wideplace/internal/heuristics"
	"wideplace/internal/scenario"
	"wideplace/internal/sim"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// benchSystem compiles the CI-scale preset of a workload at the given QoS
// points; the default two points keep a full bench run in minutes.
func benchSystem(b *testing.B, kind experiments.WorkloadKind, qos ...float64) *experiments.System {
	b.Helper()
	spec, err := scenario.Preset(string(kind), "small")
	if err != nil {
		b.Fatal(err)
	}
	spec.QoS = []float64{0.95, 0.99}
	if len(qos) > 0 {
		spec.QoS = qos
	}
	// Keep the trace: the simulator benchmarks replay it.
	res, err := scenario.CompileWith(spec, scenario.CompileOptions{Streaming: scenario.StreamOff})
	if err != nil {
		b.Fatal(err)
	}
	return res.System
}

func benchmarkFigure1(b *testing.B, kind experiments.WorkloadKind, parallel int) {
	sys := benchSystem(b, kind)
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure1(sys, experiments.Options{Parallel: parallel}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			if err := fig.WriteTSV(&buf); err != nil {
				b.Fatal(err)
			}
			b.Logf("\n%s", buf.String())
		}
	}
}

// BenchmarkFigure1GROUP regenerates Figure 1 (right) for the uniform GROUP
// workload (all cores).
func BenchmarkFigure1GROUP(b *testing.B) { benchmarkFigure1(b, experiments.GROUP, 0) }

// BenchmarkSweep is the sweep-engine ablation and regenerates Figure 1
// (left): per-class lower bounds vs QoS for the heavy-tailed WEB workload,
// solved serially and fanned out across GOMAXPROCS workers. The TSV output
// is byte-identical between the two (results are slotted by cell index);
// only the wall clock differs.
func BenchmarkSweep(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchmarkFigure1(b, experiments.WEB, 1) })
	b.Run("parallel", func(b *testing.B) {
		benchmarkFigure1(b, experiments.WEB, runtime.GOMAXPROCS(0))
	})
}

func benchmarkFigure2(b *testing.B, kind experiments.WorkloadKind) {
	sys := benchSystem(b, kind)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(sys, experiments.Options{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for j := range res.Bound {
				b.Logf("qos=%g bound=%.0f chosen=%.0f (infeas=%v) lru=%.0f (infeas=%v)",
					res.Bound[j].QoS*100, res.Bound[j].Bound,
					res.Chosen[j].Cost, res.Chosen[j].Infeasible,
					res.LRU[j].Cost, res.LRU[j].Infeasible)
			}
		}
	}
}

// BenchmarkFigure2WEB regenerates Figure 2 (left): the deployed
// greedy-global heuristic and LRU caching vs the storage-constrained bound.
func BenchmarkFigure2WEB(b *testing.B) { benchmarkFigure2(b, experiments.WEB) }

// BenchmarkFigure2GROUP regenerates Figure 2 (right): the deployed
// replica-constrained heuristic and LRU caching vs the replica-constrained
// bound.
func BenchmarkFigure2GROUP(b *testing.B) { benchmarkFigure2(b, experiments.GROUP) }

func benchmarkFigure3(b *testing.B, kind experiments.WorkloadKind) {
	sys := benchSystem(b, kind, 0.85, 0.9)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(sys, experiments.Options{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			if err := res.Figure.WriteTSV(&buf); err != nil {
				b.Fatal(err)
			}
			b.Logf("open=%v\n%s", res.OpenNodes, buf.String())
		}
	}
}

// BenchmarkFigure3WEB regenerates Figure 3 (left): bounds on the deployed
// reduced topology after the phase-1 node-opening solve.
func BenchmarkFigure3WEB(b *testing.B) { benchmarkFigure3(b, experiments.WEB) }

// BenchmarkFigure3GROUP regenerates Figure 3 (right).
func BenchmarkFigure3GROUP(b *testing.B) { benchmarkFigure3(b, experiments.GROUP) }

// BenchmarkTable3 regenerates the heuristic-class taxonomy.
func BenchmarkTable3(b *testing.B) {
	topo, err := topology.Generate(topology.GenOptions{N: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(topo, 150)
		if i == 0 {
			var buf bytes.Buffer
			if err := experiments.WriteTable3(&buf, rows); err != nil {
				b.Fatal(err)
			}
			b.Logf("\n%s", buf.String())
		}
	}
}

// BenchmarkHeadlineSavings regenerates the paper's headline comparison
// (Sec. 1/Sec. 6: choosing by the methodology vs defaulting to caching).
func BenchmarkHeadlineSavings(b *testing.B) {
	sys := benchSystem(b, experiments.WEB)
	cfg := sim.Config{
		Topo: sys.Topo, Trace: sys.Trace, Interval: sys.Spec.Delta,
		Tlat: sys.Spec.Tlat, Alpha: 1, Beta: 1,
	}
	const tqos = 0.9
	for i := 0; i < b.N; i++ {
		_, chosen, err := sim.Tune(cfg, func(c int) sim.Heuristic {
			return heuristics.NewGreedyGlobalPrefetch(c, sys.Counts)
		}, 0, sys.Spec.Objects, tqos, true)
		if err != nil {
			b.Fatal(err)
		}
		_, lru, lruErr := sim.Tune(cfg, func(c int) sim.Heuristic {
			return heuristics.NewLRU(c)
		}, 0, sys.Spec.Objects, tqos, true)
		if i == 0 {
			if lruErr != nil {
				b.Logf("qos=%g chosen=%.0f; LRU cannot meet the goal at any size (infinite savings)", tqos*100, chosen.Cost)
			} else {
				b.Logf("qos=%g chosen=%.0f lru=%.0f savings=%.1fx", tqos*100, chosen.Cost, lru.Cost, lru.Cost/chosen.Cost)
			}
		}
	}
}

// BenchmarkRounding measures the rounding pass alone (Sec. 5 tightness
// machinery) on a general-bound LP solution.
func BenchmarkRounding(b *testing.B) {
	benchmarkRounding(b, core.RoundOptions{})
}

// BenchmarkRoundingRunLength is the ablation of the run-length rounding
// optimization (Appendix C, last paragraph).
func BenchmarkRoundingRunLength(b *testing.B) {
	benchmarkRounding(b, core.RoundOptions{RunLength: true})
}

func benchmarkRounding(b *testing.B, opts core.RoundOptions) {
	sys := benchSystem(b, experiments.WEB)
	inst, err := sys.Instance(0.99)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := inst.LowerBound(core.General(), core.BoundOptions{SkipRounding: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		frac := cloneStore(bound.StoreFrac)
		b.StartTimer()
		rr, err := inst.Round(core.General(), frac, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("bound=%.0f feasible=%.0f gap=%.2f%% (up=%d down=%d)",
				bound.LPBound, rr.Cost, 100*(rr.Cost-bound.LPBound)/bound.LPBound, rr.UpSteps, rr.DownSteps)
		}
	}
}

func cloneStore(src [][][]float64) [][][]float64 {
	out := make([][][]float64, len(src))
	for n := range src {
		out[n] = make([][]float64, len(src[n]))
		for i := range src[n] {
			out[n][i] = append([]float64(nil), src[n][i]...)
		}
	}
	return out
}

// BenchmarkLagrangianVsExact is the bound-engine ablation: exact LP vs the
// Lagrangian decomposition on the same instance.
func BenchmarkLagrangianVsExact(b *testing.B) {
	sys := benchSystem(b, experiments.WEB)
	inst, err := sys.Instance(0.95)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bound, err := inst.LowerBound(core.General(), core.BoundOptions{SkipRounding: true})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("exact bound=%.0f", bound.LPBound)
			}
		}
	})
	b.Run("lagrangian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bound, err := inst.LagrangianBound(core.General(), core.LagrangianOptions{MaxIters: 200})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("lagrangian bound=%.0f", bound.LPBound)
			}
		}
	})
}

// BenchmarkIntervalSweep is the evaluation-interval ablation (Sec. 4.3):
// the general bound as the interval shrinks. Finer intervals lower the
// storage component of the bound, while Theorem 2 governs validity.
func BenchmarkIntervalSweep(b *testing.B) {
	sys := benchSystem(b, experiments.WEB)
	for _, delta := range []time.Duration{2 * time.Hour, time.Hour, 30 * time.Minute} {
		b.Run(delta.String(), func(b *testing.B) {
			counts, err := sys.Trace.Bucket(delta)
			if err != nil {
				b.Fatal(err)
			}
			inst, err := core.NewInstance(sys.Topo, counts, core.DefaultCost(), core.QoS(0.95, sys.Spec.Tlat))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				bound, err := inst.LowerBound(core.General(), core.BoundOptions{SkipRounding: true})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("delta=%v intervals=%d bound=%.0f", delta, counts.Intervals, bound.LPBound)
				}
			}
		})
	}
}

// BenchmarkSimulateLRU measures raw simulator throughput (accesses/sec).
func BenchmarkSimulateLRU(b *testing.B) {
	sys := benchSystem(b, experiments.WEB)
	cfg := sim.Config{
		Topo: sys.Topo, Trace: sys.Trace, Interval: sys.Spec.Delta,
		Tlat: sys.Spec.Tlat, Alpha: 1, Beta: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, heuristics.NewLRU(10)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(sys.Trace.Accesses)), "accesses/op")
}

// BenchmarkWorkloadGen measures trace generation throughput.
func BenchmarkWorkloadGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.GenerateWeb(workload.WebOptions{
			Nodes: 20, Objects: 200, Requests: 100000, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
