package experiments_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"wideplace/internal/core"
	"wideplace/internal/experiments"
	"wideplace/internal/lp"
	"wideplace/internal/scenario"
)

// paper20Cut compiles a sweep-paper20-shaped instance: paper20's topology
// and Figure-1 grid with the trace cut to 8 objects over 4 hours, 1,000
// WEB or 4,000 GROUP requests, drawn with the given workload seed.
func paper20Cut(tb testing.TB, kind string, seed uint64) *scenario.Result {
	tb.Helper()
	spec, err := scenario.Get("paper20-" + kind)
	if err != nil {
		tb.Fatal(err)
	}
	spec.Name = fmt.Sprintf("paper20-cut-%s-%d", kind, seed)
	spec.Workload.Seed = seed
	spec.Workload.Objects = 8
	spec.Workload.HorizonMillis = (4 * time.Hour).Milliseconds()
	spec.Workload.Requests = 1000
	if kind == scenario.WorkGroup {
		spec.Workload.Requests = 4000
	}
	res, err := scenario.Compile(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// statsBytes renders every deterministic counter of st (all but Wall).
func statsBytes(st lp.Stats) []byte {
	st.Wall = 0
	return []byte(fmt.Sprintf("%+v", st))
}

// trajectoryGolden pins the solver's whole trajectory on four
// sweep-paper20-shaped instances: the SHA-256 of the Figure-1 TSV (bounds
// plus the "# solver:" footer of iteration and pivot counts) and of every
// cell's bound and certificate bits with its full counters. A change to
// the simplex's arithmetic that moves any pivot moves a counter and fails
// here, even when the rounded bounds in the TSV body do not move.
var trajectoryGolden = map[string][2]string{
	"web-1":   {"5a8ca61ba7e325d2c09865e87710b7346c00a8645246a0c35e6f4201d6fd6697", "8cb948f9d359d6aa6c71464423a252eb262b8ac681a92a63d980ff415c440ae8"},
	"web-2":   {"8f9c04f05d5f9c65d4746586c41a05336169497def2e4285d88a77b6c130109d", "0948f0b23d3a410330f2c4ee0873f5ba6be0113d13e4a2d630eadf1df21ff1a2"},
	"group-1": {"d10dba833d5567be66f45d8630e8c89814bdb540c16d26fe3a89446f54392ab8", "a748d502b89acc716d575f82972b019629ffa5e5de2380f2882bc7a54123f4d2"},
	"group-2": {"422414d3f38744ba89164ec64ecb8417742356318a4740707e664d2b484585d3", "9e3d184d5047045b0a0d0c2fc0ada8e1260a98a46f21c7646e0e525297f367bd"},
}

// TestSolverTrajectoryGolden runs the serial warm-chained sweep of each
// instance and compares both digests with the recorded ones. The digests
// are amd64's: where the compiler fuses multiply-adds (arm64, ppc64le,
// s390x) the simplex rounds differently and takes another path.
func TestSolverTrajectoryGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("trajectory digests are recorded on amd64; fused multiply-adds change the bits elsewhere")
	}
	if testing.Short() {
		t.Skip("four Figure-1 sweeps")
	}
	for _, kind := range []string{scenario.WorkWeb, scenario.WorkGroup} {
		for seed := uint64(1); seed <= 2; seed++ {
			name := fmt.Sprintf("%s-%d", kind, seed)
			t.Run(name, func(t *testing.T) {
				res := paper20Cut(t, kind, seed)
				fig, err := experiments.Sweep(res.System, res.Classes, "", experiments.Options{Parallel: 1}, nil)
				if err != nil {
					t.Fatal(err)
				}
				var tsv bytes.Buffer
				if err := fig.WriteTSV(&tsv); err != nil {
					t.Fatal(err)
				}
				cells := sha256.New()
				for _, s := range fig.Series {
					for _, p := range s.Points {
						var b [16]byte
						binary.LittleEndian.PutUint64(b[:8], math.Float64bits(p.Bound))
						binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Feasible))
						cells.Write(b[:])
						cells.Write(statsBytes(p.Stats))
					}
				}
				got := [2]string{fmt.Sprintf("%x", sha256.Sum256(tsv.Bytes())), fmt.Sprintf("%x", cells.Sum(nil))}
				if want := trajectoryGolden[name]; got != want {
					t.Errorf("trajectory moved:\n  tsv   %s (want %s)\n  cells %s (want %s)\n%s", got[0], want[0], got[1], want[1], tsv.String())
				}
			})
		}
	}
}

// BenchmarkColdCell times cold solves of the 0.95 cells of every class
// that can meet that goal on one sweep-paper20 GROUP instance (four of the
// six classes), the per-iteration cost that dominates sweep-paper20. It
// reports ns per simplex iteration next to ns per op.
func BenchmarkColdCell(b *testing.B) {
	res := paper20Cut(b, scenario.WorkGroup, 1)
	inst, err := res.System.Instance(0.95)
	if err != nil {
		b.Fatal(err)
	}
	var comps []*core.CompiledQoS
	for _, class := range res.Classes {
		comp, err := inst.CompileQoS(class)
		if err == nil {
			_, err = comp.LowerBound(core.BoundOptions{SkipRounding: true})
		}
		if errors.Is(err, core.ErrGoalUnattainable) {
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		comps = append(comps, comp)
	}
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		for _, comp := range comps {
			bd, err := comp.LowerBound(core.BoundOptions{SkipRounding: true})
			if err != nil {
				b.Fatal(err)
			}
			iters += bd.Stats.Iterations
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iter")
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}
