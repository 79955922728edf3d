package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wideplace/internal/dist"
)

// startDistWorker runs an in-process dist worker over HTTP.
func startDistWorker(t *testing.T) *httptest.Server {
	t.Helper()
	w := httptest.NewServer(dist.NewWorker(dist.WorkerConfig{Concurrency: 2}).Handler())
	t.Cleanup(w.Close)
	return w
}

func getTSV(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result?format=tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s\n%s", resp.Status, raw)
	}
	return string(raw)
}

// TestJobPathMatrix runs one job through every setup of the job path:
// the standalone in-process worker, a coordinator with two remote workers
// and a store, and a restarted coordinator over that store with no
// workers. Every setup serves the same TSV bytes. The two that solve
// dispatch one shard per class and record the same solver effort; the
// store-served one dispatches nothing and records no fresh effort.
func TestJobPathMatrix(t *testing.T) {
	const job = `{"spec":{"workload":"web","scale":"small","nodes":6,"objects":8,
		"requests":1500,"horizonMillis":14400000,"qos":[0.9,0.95]},
		"classes":["general","storage-constrained","caching"]}`
	dir := t.TempDir()
	openStore := func(t *testing.T) *dist.Store {
		store, err := dist.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	setups := []struct {
		name  string
		co    func(t *testing.T) *dist.Coordinator
		fresh bool
	}{
		{"in-process", func(*testing.T) *dist.Coordinator { return nil }, true},
		{"remote workers", func(t *testing.T) *dist.Coordinator {
			co := dist.NewCoordinator(dist.CoordinatorConfig{Store: openStore(t), WorkerWait: 10 * time.Second})
			co.Register(startDistWorker(t).URL)
			co.Register(startDistWorker(t).URL)
			return co
		}, true},
		{"store only", func(t *testing.T) *dist.Coordinator {
			return dist.NewCoordinator(dist.CoordinatorConfig{Store: openStore(t), WorkerWait: time.Second})
		}, false},
	}
	var wantTSV, wantIters string
	for _, setup := range setups {
		_, ts := newTestServer(t, Config{Workers: 1, Parallel: 3, Coordinator: setup.co(t)})
		v, _ := postJob(t, ts, job)
		waitState(t, ts, v.ID, time.Minute, StateDone)
		tsv := getTSV(t, ts, v.ID)
		text := getMetrics(t, ts)
		iters := metricValue(t, text, "placementd_lp_iterations_total")
		dispatched := metricValue(t, text, "placementd_dist_shards_dispatched_total")
		if wantTSV == "" {
			wantTSV, wantIters = tsv, iters
			if iters == "0" {
				t.Fatalf("%s: a fresh job recorded no solver effort", setup.name)
			}
		} else if tsv != wantTSV {
			t.Errorf("%s TSV differs from in-process:\n--- in-process ---\n%s--- %s ---\n%s", setup.name, wantTSV, setup.name, tsv)
		}
		wantDispatched := "3"
		if !setup.fresh {
			wantIters, wantDispatched = "0", "0"
		}
		if iters != wantIters || dispatched != wantDispatched {
			t.Errorf("%s: %s iterations and %s shards dispatched, want %s and %s",
				setup.name, iters, dispatched, wantIters, wantDispatched)
		}
	}
}

// TestStandaloneTimeoutFailsAtOnce: an in-process column whose LP times
// out fails its job after one dispatch. The worker answered, and solves
// are deterministic, so the shard is never retried.
func TestStandaloneTimeoutFailsAtOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Parallel: 1, CheckEvery: 1})
	v, _ := postJob(t, ts, `{"spec":{"workload":"web","scale":"small","nodes":10,"objects":30,
		"requests":8000,"qos":[0.99]},"classes":["general"],"solveTimeoutMillis":1}`)
	got := waitState(t, ts, v.ID, time.Minute, StateFailed)
	if !strings.Contains(got.Error, "timeout") {
		t.Fatalf("error = %q, want an LP timeout", got.Error)
	}
	text := getMetrics(t, ts)
	for name, want := range map[string]string{
		"placementd_dist_shards_dispatched_total": "1",
		"placementd_dist_shard_retries_total":     "0",
		"placementd_dist_shard_failures_total":    "1",
	} {
		if got := metricValue(t, text, name); got != want {
			t.Errorf("%s = %s, want %s", name, got, want)
		}
	}
}

// jobStream reads a job's NDJSON stream to completion, calling afterHeader
// (when non-nil) once the header line has been read.
func jobStream(t *testing.T, ts *httptest.Server, id string, afterHeader func()) (lines []map[string]interface{}) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
		if len(lines) == 1 && afterHeader != nil {
			afterHeader()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestJobStream covers the job NDJSON stream: a live job streams a
// header, progress and per-column events and a done trailer; an
// already-finished job streams header + trailer immediately. The worker
// holds every shard until the stream's header has been read: otherwise
// the job can finish before the stream subscribes, and the stream then
// correctly carries only header + trailer.
func TestJobStream(t *testing.T) {
	open := make(chan struct{})
	solve := dist.NewWorker(dist.WorkerConfig{Concurrency: 2}).Handler()
	gated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-open:
			solve.ServeHTTP(w, r)
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(gated.Close)
	co := dist.NewCoordinator(dist.CoordinatorConfig{WorkerWait: 10 * time.Second})
	co.Register(gated.URL)
	_, ts := newTestServer(t, Config{Workers: 1, Parallel: 1, Coordinator: co})

	const job = `{"spec":{"workload":"web","scale":"small","nodes":5,"objects":5,
		"requests":400,"horizonMillis":7200000,"qos":[0.9,0.95]},"classes":["general","caching"]}`
	v, _ := postJob(t, ts, job)
	lines := jobStream(t, ts, v.ID, func() { close(open) })
	if len(lines) < 2 {
		t.Fatalf("stream held %d lines, want header + trailer at least", len(lines))
	}
	first, last := lines[0], lines[len(lines)-1]
	if first["type"] != "job" || last["type"] != "job" {
		t.Fatalf("stream must start and end with job lines; got %v ... %v", first, last)
	}
	if st := last["job"].(map[string]interface{})["state"]; st != "done" {
		t.Fatalf("trailer state = %v, want done", st)
	}
	columns := 0
	for _, l := range lines[1 : len(lines)-1] {
		switch l["type"] {
		case "progress", "column":
			if l["type"] == "column" {
				columns++
			}
		default:
			t.Fatalf("unexpected stream line %v", l)
		}
	}
	if columns == 0 {
		t.Fatal("stream emitted no column events")
	}

	// A finished job answers immediately with header + trailer.
	lines = jobStream(t, ts, v.ID, nil)
	if len(lines) != 2 || lines[0]["type"] != "job" || lines[1]["type"] != "job" {
		t.Fatalf("finished-job stream = %v, want exactly header + trailer", lines)
	}

	resp, err := http.Get(ts.URL + "/jobs/nope/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job stream: %s, want 404", resp.Status)
	}
}

// TestDispatcherFailureFailsJob: when no worker ever registers with the
// coordinator the job fails with its error instead of hanging.
func TestDispatcherFailureFailsJob(t *testing.T) {
	co := dist.NewCoordinator(dist.CoordinatorConfig{WorkerWait: 300 * time.Millisecond})
	_, ts := newTestServer(t, Config{Workers: 1, Parallel: 1, Coordinator: co})
	v, _ := postJob(t, ts, tinyJob)
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := getJob(t, ts, v.ID)
		if got.State == StateFailed {
			if !strings.Contains(got.Error, "no live worker") {
				t.Fatalf("error = %q, want a no-live-worker failure", got.Error)
			}
			return
		}
		if got.State.terminal() {
			t.Fatalf("job reached %s, want failed", got.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never failed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
