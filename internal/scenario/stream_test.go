package scenario

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestStreamedCompileMatchesMaterialized is the end-to-end differential of
// the streaming compile path: for every registered builtin, forcing the
// one-pass streamed aggregation must yield Counts byte-identical (after
// canonical serialization, via Counts.Equal) to materialize-then-Bucket.
//
// The full-volume 16M-request builtin materializes ~512MB of accesses on
// the StreamOff side, so it is skipped in -short mode and under the race
// detector (raceEnabled, see race_on_test.go / race_off_test.go).
func TestStreamedCompileMatchesMaterialized(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Workload.Requests >= StreamingThreshold && (testing.Short() || raceEnabled) {
				t.Skipf("skipping the %d-request materialization in short/race mode", spec.Workload.Requests)
			}
			t.Parallel()
			streamed, err := CompileWith(spec, CompileOptions{Streaming: StreamOn})
			if err != nil {
				t.Fatal(err)
			}
			if !streamed.Streamed {
				t.Fatal("StreamOn compile not marked Streamed")
			}
			if streamed.System.Trace != nil {
				t.Fatal("streamed compile retained the raw trace")
			}
			materialized, err := CompileWith(spec, CompileOptions{Streaming: StreamOff})
			if err != nil {
				t.Fatal(err)
			}
			if materialized.Streamed {
				t.Fatal("StreamOff compile marked Streamed")
			}
			if materialized.System.Trace == nil {
				t.Fatal("materialized compile dropped the trace")
			}
			if !streamed.System.Counts.Equal(materialized.System.Counts) {
				t.Fatal("streamed counts differ from materialize-then-bucket")
			}
		})
	}
}

// TestStreamAutoThreshold: the auto mode must stream at and above the
// threshold and materialize below it.
func TestStreamAutoThreshold(t *testing.T) {
	spec, err := Get("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompileWith(spec, CompileOptions{}) // StreamAuto
	if err != nil {
		t.Fatal(err)
	}
	if res.Streamed {
		t.Errorf("%d requests streamed below the %d threshold", spec.Workload.Requests, StreamingThreshold)
	}
	full, err := Get("paper20-group-full")
	if err != nil {
		t.Fatal(err)
	}
	if full.Workload.Requests < StreamingThreshold {
		t.Fatalf("paper20-group-full volume %d under the streaming threshold", full.Workload.Requests)
	}
	if testing.Short() {
		t.Skip("skipping the 16M-request streamed compile in short mode")
	}
	res, err = CompileWith(full, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Streamed {
		t.Error("full-volume scenario did not stream under StreamAuto")
	}
	if res.Fingerprint == "" {
		t.Error("streamed compile produced no fingerprint")
	}
}

// TestStreamedCompileAllocsNearCountTensors is the streamed compile's
// memory guard: compiling paper20-group-full at a tenth of its volume
// must allocate at most 3x its two dense count tensors (reads and writes,
// 20 x 24 x 1000 ints each), set-up, self-check and fingerprint included.
// The tensors are the compile's one unavoidable allocation, so a second
// copy of them in any other form shows up here. Not parallel: TotalAlloc
// is process-wide.
func TestStreamedCompileAllocsNearCountTensors(t *testing.T) {
	const gate = 3
	spec, err := Get("paper20-group-full")
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload.Requests = 1_600_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := CompileWith(spec, CompileOptions{Streaming: StreamOn})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	c := res.System.Counts
	if !res.Streamed || c.Nodes != 20 || c.Intervals != 24 || c.Objects != 1000 {
		t.Fatalf("compiled %dx%dx%d counts (streamed %v), want a streamed 20x24x1000", c.Nodes, c.Intervals, c.Objects, res.Streamed)
	}
	compiled := after.TotalAlloc - before.TotalAlloc
	tensors := uint64(2*c.Nodes*c.Intervals*c.Objects) * uint64(unsafe.Sizeof(int(0)))
	ratio := float64(compiled) / float64(tensors)
	t.Logf("streamed compile allocated %d bytes, two dense count tensors %d bytes: %.2fx", compiled, tensors, ratio)
	if compiled > gate*tensors {
		t.Errorf("streamed compile allocated %d bytes, %.2fx its count tensors' %d, above the %dx gate",
			compiled, ratio, tensors, gate)
	}
}
