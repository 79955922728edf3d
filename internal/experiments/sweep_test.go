package experiments

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"wideplace/internal/core"
)

// TestParallelSweepGolden is the engine's central guarantee: fanning the
// (class, QoS) grid across workers produces byte-identical TSV output to
// the serial sweep, for both workloads.
func TestParallelSweepGolden(t *testing.T) {
	for _, kind := range []WorkloadKind{WEB, GROUP} {
		t.Run(string(kind), func(t *testing.T) {
			sys, err := build(tinySpec(kind))
			if err != nil {
				t.Fatal(err)
			}
			render := func(parallel int) string {
				fig, err := Figure1(sys, Options{Parallel: parallel}, nil)
				if err != nil {
					t.Fatalf("parallel=%d: %v", parallel, err)
				}
				var buf bytes.Buffer
				if err := fig.WriteTSV(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			serial := render(1)
			parallel := render(4)
			if serial != parallel {
				t.Errorf("parallel sweep TSV differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
			}
		})
	}
}

// TestColumnSolverByteIdentical is the distributed path's core guarantee:
// delegating each class column to a ColumnSolver hook that re-solves it on
// a fresh System (as a remote worker does) reassembles a figure whose TSV
// is byte-identical to the purely local sweep.
func TestColumnSolverByteIdentical(t *testing.T) {
	for _, kind := range []WorkloadKind{WEB, GROUP} {
		t.Run(string(kind), func(t *testing.T) {
			sys, err := build(tinySpec(kind))
			if err != nil {
				t.Fatal(err)
			}
			render := func(opts Options) string {
				fig, err := Figure1(sys, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := fig.WriteTSV(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			local := render(Options{Parallel: 2})
			remote := render(Options{
				Parallel: 2,
				ColumnSolver: func(ctx context.Context, class string, qos []float64) ([]Point, error) {
					// Play a worker: rebuild the system from scratch and run
					// a single-class sweep over the requested column.
					wsys, err := build(tinySpec(kind))
					if err != nil {
						return nil, err
					}
					c, err := core.ClassByName(wsys.Topo, wsys.Spec.Tlat, class)
					if err != nil {
						return nil, err
					}
					fig, err := Sweep(wsys, []*core.Class{c}, "", Options{Ctx: ctx}, nil)
					if err != nil {
						return nil, err
					}
					return fig.Series[0].Points, nil
				},
			})
			if local != remote {
				t.Errorf("column-solver TSV differs from local:\n--- local ---\n%s--- remote ---\n%s", local, remote)
			}
		})
	}
}

// TestColumnSolverValidation rejects hooks that return the wrong shape.
func TestColumnSolverValidation(t *testing.T) {
	sys, err := build(tinySpec(WEB))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Figure1(sys, Options{
		ColumnSolver: func(ctx context.Context, class string, qos []float64) ([]Point, error) {
			return nil, nil // wrong length
		},
	}, nil)
	if err == nil {
		t.Fatal("short column accepted; want error")
	}
	_, err = Figure1(sys, Options{
		ColumnSolver: func(ctx context.Context, class string, qos []float64) ([]Point, error) {
			pts := make([]Point, len(qos))
			for i, q := range qos {
				pts[i] = Point{Class: "wrong-class", QoS: q}
			}
			return pts, nil
		},
	}, nil)
	if err == nil {
		t.Fatal("mislabeled column accepted; want error")
	}
}

// TestSweepSolverStats asserts that every feasible cell reports nonzero
// solver effort (the observability layer's acceptance criterion).
func TestSweepSolverStats(t *testing.T) {
	sys, err := build(tinySpec(WEB))
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Figure1(sys, Options{Parallel: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.Infeasible {
				continue
			}
			// A warm-chained cell can legitimately take 0 iterations (the
			// previous basis was already optimal), but every solve factors
			// its starting basis at least once and is attributed to
			// exactly one start mode.
			if p.Stats.InitialFactorizations <= 0 {
				t.Errorf("%s at %g: Stats.InitialFactorizations = %d, want > 0", s.Name, p.QoS, p.Stats.InitialFactorizations)
			}
			if p.Stats.WarmSolves+p.Stats.ColdSolves != 1 {
				t.Errorf("%s at %g: start-mode ledger %+v, want exactly one solve", s.Name, p.QoS, p.Stats)
			}
			if p.Stats.Wall <= 0 {
				t.Errorf("%s at %g: Stats.Wall = %v, want > 0", s.Name, p.QoS, p.Stats.Wall)
			}
		}
	}
	cells, agg := fig.SolverStats()
	if cells == 0 || agg.Iterations <= 0 {
		t.Errorf("aggregate stats empty: cells=%d %+v", cells, agg)
	}
}

// TestSweepCanceled asserts that a canceled context aborts the sweep
// promptly with a distinguishable error.
func TestSweepCanceled(t *testing.T) {
	sys, err := build(tinySpec(WEB))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Figure1(sys, Options{Parallel: 2, Ctx: ctx}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFigure2Parallel checks the three-task-per-QoS fan-out matches the
// serial run.
func TestFigure2Parallel(t *testing.T) {
	sys, err := build(tinySpec(WEB))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Figure2(sys, Options{Parallel: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure2(sys, Options{Parallel: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Bound {
		if serial.Bound[i].Bound != parallel.Bound[i].Bound ||
			serial.Bound[i].Infeasible != parallel.Bound[i].Infeasible {
			t.Errorf("bound %d differs: %+v vs %+v", i, serial.Bound[i], parallel.Bound[i])
		}
		if serial.Chosen[i] != parallel.Chosen[i] {
			t.Errorf("chosen %d differs: %+v vs %+v", i, serial.Chosen[i], parallel.Chosen[i])
		}
		if serial.LRU[i] != parallel.LRU[i] {
			t.Errorf("lru %d differs: %+v vs %+v", i, serial.LRU[i], parallel.LRU[i])
		}
	}
}

// TestRunCellsDeterministicSlots checks that results land in their own
// slots regardless of completion order and that the first error wins.
func TestRunCellsDeterministicSlots(t *testing.T) {
	out := make([]int, 64)
	err := runCells(context.Background(), len(out), 8, func(ctx context.Context, i int) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
	boom := errors.New("boom")
	err = runCells(context.Background(), 32, 4, func(ctx context.Context, i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}
