package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"
	"unsafe"
)

// TestStreamedCompileMatchesMaterialized is the end-to-end differential of
// the streaming compile path: for every registered builtin, the one-pass
// streamed aggregation must yield Counts byte-identical (after canonical
// serialization, via Counts.Equal) to materialize-then-Bucket, and so the
// same fingerprint.
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
			if spec.Workload.Requests >= slowCompileRequests && (testing.Short() || raceEnabled) {
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
			if streamed.Fingerprint != materialized.Fingerprint {
				t.Fatalf("streamed fingerprint %s, materialized %s", streamed.Fingerprint, materialized.Fingerprint)
			}
		})
	}
}

// traceGolden pins the SHA-256 of the JSON trace a StreamOff compile keeps,
// one scenario per workload model. Fingerprints hash counts only, so a
// change to the access sequence the simulator replays that leaves every
// count alone (an access moved within its interval, say) fails here.
var traceGolden = map[string]string{
	"paper20-web":   "sha256:3b64973497163bd14529404582dcf68c9695fee0e21ca96ea6adebb6725069b7",
	"paper20-group": "sha256:443a4d6138a69f65660cb6cc30fca6ce2e5e5934b27190540a624d371813e01d",
	"flash-crowd":   "sha256:c6cf271b8d4bdaf34b170dee0b9625cc27acb7a7908424b9392d6db47f2a343d",
	"diurnal-shift": "sha256:6802e2e9c4db80012853416b7d01e6ab7ab9ea69a4d59e544dc0e4d14ac37bfd",
}

func TestTraceGolden(t *testing.T) {
	for name, want := range traceGolden {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := CompileWith(spec, CompileOptions{Streaming: StreamOff})
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(res.System.Trace)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := "sha256:" + hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("trace hash %s, want %s", got, want)
			}
		})
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
