package workload

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// streamPairs returns, for each workload model, a fresh stream and the
// matching materialized generator output over non-default knobs
// (including write fractions, which must flag in place).
func streamPairs(t *testing.T) map[string]struct {
	stream func() *Stream
	trace  *Trace
} {
	t.Helper()
	web := WebOptions{Nodes: 6, Objects: 40, Requests: 9000, Duration: 6 * time.Hour, Seed: 11, WriteFraction: 0.2}
	group := GroupOptions{Nodes: 5, Objects: 30, Requests: 8000, Duration: 5 * time.Hour, Seed: 12}
	crowd := FlashCrowdOptions{Nodes: 7, Objects: 25, Requests: 7000, Duration: 8 * time.Hour, Seed: 13, WriteFraction: 0.1}
	day := DiurnalOptions{Nodes: 8, Objects: 20, Requests: 6000, Duration: 24 * time.Hour, Seed: 14, ObjectDrift: true, WriteFraction: 0.05}

	out := make(map[string]struct {
		stream func() *Stream
		trace  *Trace
	})
	mustStream := func(st *Stream, err error) func() *Stream {
		if err != nil {
			t.Fatal(err)
		}
		return func() *Stream { return st }
	}
	tr, err := GenerateWeb(web)
	if err != nil {
		t.Fatal(err)
	}
	out["web"] = struct {
		stream func() *Stream
		trace  *Trace
	}{mustStream(StreamWeb(web)), tr}
	if tr, err = GenerateGroup(group); err != nil {
		t.Fatal(err)
	}
	out["group"] = struct {
		stream func() *Stream
		trace  *Trace
	}{mustStream(StreamGroup(group)), tr}
	if tr, err = materialized(StreamFlashCrowd(crowd)); err != nil {
		t.Fatal(err)
	}
	out["flash-crowd"] = struct {
		stream func() *Stream
		trace  *Trace
	}{mustStream(StreamFlashCrowd(crowd)), tr}
	if tr, err = materialized(StreamDiurnal(day)); err != nil {
		t.Fatal(err)
	}
	out["diurnal"] = struct {
		stream func() *Stream
		trace  *Trace
	}{mustStream(StreamDiurnal(day)), tr}
	return out
}

// TestStreamCountsMatchMaterializedBucket is the core differential of the
// streaming path: for every workload model, one-pass aggregation over the
// stream must produce Counts identical — byte for byte after canonical
// serialization — to materialize-then-Bucket.
func TestStreamCountsMatchMaterializedBucket(t *testing.T) {
	delta := time.Hour
	for name, pair := range streamPairs(t) {
		got, err := pair.stream().Counts(delta)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := pair.trace.Bucket(delta)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: streamed counts differ from materialized bucket", name)
		}
	}
}

// TestStreamAllocsFiveTimesBelowMaterialized is the streaming pipeline's
// memory gate. Materialize-then-Bucket must hold every access live at its
// peak, requests × sizeof(Access) bytes for the slice alone; the streamed
// path must allocate at least 5x less than that in total, stream set-up
// included, on the paper's GROUP shape at a tenth of its volume. Total
// allocation bounds the streamed peak heap from above, so the gate holds
// for the peak too. Not parallel: TotalAlloc is process-wide.
func TestStreamAllocsFiveTimesBelowMaterialized(t *testing.T) {
	const gate = 5
	opts := GroupOptions{Nodes: 20, Objects: 100, Requests: 1_600_000, Duration: 24 * time.Hour, Seed: 1}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, err := StreamGroup(opts)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := st.Counts(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if counts.Intervals != 24 {
		t.Fatalf("streamed %d intervals, want 24", counts.Intervals)
	}
	streamed := after.TotalAlloc - before.TotalAlloc
	materialized := uint64(opts.Requests) * uint64(unsafe.Sizeof(Access{}))
	ratio := float64(materialized) / float64(streamed)
	t.Logf("streamed %d bytes allocated, materialized access slice %d bytes: %.2fx", streamed, materialized, ratio)
	if gate*streamed > materialized {
		t.Errorf("streamed path allocated %d bytes against the materialized slice's %d: %.2fx, below the %dx gate",
			streamed, materialized, ratio, gate)
	}
}

// TestStreamMaterializeMatchesGenerate pins Materialize to the legacy
// generator output exactly: same draws, same sort.
func TestStreamMaterializeMatchesGenerate(t *testing.T) {
	for name, pair := range streamPairs(t) {
		got, err := pair.stream().Materialize()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NumNodes != pair.trace.NumNodes || got.NumObjects != pair.trace.NumObjects ||
			got.Duration != pair.trace.Duration || len(got.Accesses) != len(pair.trace.Accesses) {
			t.Fatalf("%s: shape mismatch", name)
		}
		for i := range got.Accesses {
			if got.Accesses[i] != pair.trace.Accesses[i] {
				t.Fatalf("%s: access %d = %+v, want %+v", name, i, got.Accesses[i], pair.trace.Accesses[i])
			}
		}
	}
}

// TestStreamCountsAcrossChunksAndGenerators is the differential for the
// parallel aggregator: every model, writes on where the model has them,
// streamed over more chunks than there are buffers and a partial last
// chunk, at several generator counts, must count exactly what the
// sequential Materialize fill buckets to. Not parallel: it sets
// GOMAXPROCS, which is process-wide.
func TestStreamCountsAcrossChunksAndGenerators(t *testing.T) {
	const requests = (streamBuffers+1)*streamChunk + 4321
	const delta = time.Hour
	streams := map[string]func() (*Stream, error){
		"web": func() (*Stream, error) {
			return StreamWeb(WebOptions{Nodes: 6, Objects: 40, Requests: requests, Duration: 6 * time.Hour, Seed: 21, WriteFraction: 0.2})
		},
		"group": func() (*Stream, error) {
			return StreamGroup(GroupOptions{Nodes: 5, Objects: 30, Requests: requests, Duration: 5 * time.Hour, Seed: 22})
		},
		"flash-crowd": func() (*Stream, error) {
			return StreamFlashCrowd(FlashCrowdOptions{Nodes: 7, Objects: 25, Requests: requests, Duration: 8 * time.Hour, Seed: 23, WriteFraction: 0.1})
		},
		"diurnal": func() (*Stream, error) {
			return StreamDiurnal(DiurnalOptions{Nodes: 8, Objects: 20, Requests: requests, Duration: 24 * time.Hour, Seed: 24, ObjectDrift: true, WriteFraction: 0.05})
		},
	}
	want := make(map[string]*Counts)
	for name, stream := range streams {
		tr, err := materialized(stream())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want[name], err = tr.Bucket(delta); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for name, stream := range streams {
			st, err := stream()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := st.Counts(delta)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
			if !got.Equal(want[name]) {
				t.Errorf("%s at GOMAXPROCS %d: streamed counts differ from the materialized bucket", name, procs)
			}
		}
	}
}

// TestStreamSingleUse: a consumed stream refuses further terminal calls.
func TestStreamSingleUse(t *testing.T) {
	opts := WebOptions{Nodes: 2, Objects: 4, Requests: 100, Duration: time.Hour, Seed: 1}
	st, err := StreamWeb(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Counts(time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Counts(time.Hour); err == nil {
		t.Error("second Counts on a drained stream succeeded")
	}
	if _, err := st.Materialize(); err == nil {
		t.Error("Materialize on a drained stream succeeded")
	}
	if st, err = StreamWeb(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Counts(0); err == nil {
		t.Error("non-positive delta accepted")
	}
}

// TestWriteFractionIndependence: flagging writes must not perturb the
// access sequence — the same seed with and without a write fraction
// yields the same (At, Node, Object) triples, and the flagged share is
// near the requested fraction.
func TestWriteFractionIndependence(t *testing.T) {
	base := GroupOptions{Nodes: 4, Objects: 10, Requests: 20000, Duration: 2 * time.Hour, Seed: 9}
	plain, err := GenerateGroup(base)
	if err != nil {
		t.Fatal(err)
	}
	frac := base
	frac.WriteFraction = 0.3
	flagged, err := GenerateGroup(frac)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for i := range flagged.Accesses {
		g, p := flagged.Accesses[i], plain.Accesses[i]
		if g.At != p.At || g.Node != p.Node || g.Object != p.Object {
			t.Fatalf("access %d moved when writes were flagged: %+v vs %+v", i, g, p)
		}
		if g.Write {
			writes++
		}
	}
	got := float64(writes) / float64(len(flagged.Accesses))
	if got < 0.27 || got > 0.33 {
		t.Errorf("write share %.3f, want ~0.30", got)
	}
	if _, err := GenerateGroup(GroupOptions{Nodes: 2, Objects: 2, Requests: 10, Duration: time.Hour, WriteFraction: 1.5}); err == nil {
		t.Error("write fraction > 1 accepted")
	}
}
