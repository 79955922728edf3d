package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wideplace/internal/experiments"
	"wideplace/internal/scenario"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

func tinySpec() experiments.Spec {
	return experiments.Spec{
		Workload:  experiments.WEB,
		Nodes:     6,
		Objects:   10,
		Requests:  2500,
		Horizon:   8 * time.Hour,
		Delta:     time.Hour,
		Seed:      3,
		Tlat:      150,
		QoSPoints: []float64{0.8, 0.9},
		Zeta:      100,
	}
}

func tinyFingerprint(t *testing.T) string {
	t.Helper()
	sys, err := experiments.Build(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := scenario.Fingerprint(sys)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewWorker(WorkerConfig{Concurrency: 2}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestWorkerSolvesShard solves one shard on a remote worker and on an
// in-process one and checks the columns match bit for bit. The in-process
// shard states no system at all: it must solve on the system it carries,
// never building one.
func TestWorkerSolvesShard(t *testing.T) {
	spec := tinySpec()
	sys, err := experiments.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := NewShard(Statement{Spec: &spec}, sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	shard.Class = "general"
	co := NewCoordinator(CoordinatorConfig{WorkerWait: 2 * time.Second})
	co.Register(startWorker(t).URL)
	got, fromStore, err := co.SolveColumn(context.Background(), shard)
	if err != nil {
		t.Fatal(err)
	}
	if fromStore {
		t.Fatal("store-less coordinator claims a store hit")
	}
	carried, err := NewShard(Statement{}, sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	carried.Class = "general"
	local := NewLocalCoordinator(NewWorker(WorkerConfig{}))
	want, _, err := local.SolveColumn(context.Background(), carried)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d points, want %d", len(got), len(want))
	}
	for i := range got {
		// Wall is the one nondeterministic stat; everything else must
		// survive the wire bit-exactly.
		got[i].Stats.Wall, want[i].Stats.Wall = 0, 0
		if got[i] != want[i] {
			t.Errorf("point %d differs over the wire:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if d := local.dispatched.Load(); d != 1 {
		t.Errorf("in-process coordinator dispatched %d shards, want 1", d)
	}
}

// TestWorkerRejectsFingerprintDrift: a shard whose fingerprint does not
// match the worker's rebuild must fail, not contaminate results, and
// fail at once: the worker answered, so no other worker is tried.
func TestWorkerRejectsFingerprintDrift(t *testing.T) {
	spec := tinySpec()
	worker := startWorker(t)
	co := NewCoordinator(CoordinatorConfig{WorkerWait: 2 * time.Second})
	co.Register(worker.URL)
	_, _, err := co.SolveColumn(context.Background(),
		ShardJob{Statement: Statement{Spec: &spec}, Class: "general", Fingerprint: "sha256:not-the-system"})
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("err = %v, want a fingerprint mismatch", err)
	}
	if d, r := co.dispatched.Load(), co.retries.Load(); d != 1 || r != 0 {
		t.Fatalf("dispatched %d, retried %d; want 1 and 0", d, r)
	}
}

// TestCoordinatorRetriesCutOffReply: a reply cut off mid-body is a
// transport failure, so the shard is retried; here no other worker is
// left, and the shard fails naming the cut-off attempt.
func TestCoordinatorRetriesCutOffReply(t *testing.T) {
	spec := tinySpec()
	cut := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"class":"general","points":[`)) //nolint:errcheck
	}))
	defer cut.Close()
	co := NewCoordinator(CoordinatorConfig{WorkerWait: 300 * time.Millisecond})
	co.Register(cut.URL)
	_, _, err := co.SolveColumn(context.Background(),
		ShardJob{Statement: Statement{Spec: &spec}, Class: "general", Fingerprint: "sha256:x"})
	if err == nil || !strings.Contains(err.Error(), "transport failure") {
		t.Fatalf("err = %v, want a transport failure", err)
	}
	if d, r := co.dispatched.Load(), co.retries.Load(); d != 1 || r != 1 {
		t.Fatalf("dispatched %d, retried %d; want 1 and 1", d, r)
	}
}

// TestShardWireFormat pins one encoded shard per system form: the JSON a
// coordinator sends and a worker decodes must not drift.
func TestShardWireFormat(t *testing.T) {
	spec := tinySpec()
	var (
		scn   scenario.Spec
		topo  topology.Topology
		trace workload.Trace
	)
	for v, raw := range map[interface{}]string{
		&scn:   `{"name":"wire","seed":3,"topology":{"model":"transit-stub","nodes":6},"workload":{"model":"web","objects":4,"requests":100,"horizonMillis":7200000},"qos":[0.9]}`,
		&topo:  `{"nodes":2,"origin":0,"links":[{"a":0,"b":1,"latencyMillis":5}]}`,
		&trace: `{"nodes":2,"objects":1,"durationMillis":7200000,"accesses":[{"atMillis":0,"node":1,"object":0},{"atMillis":60000,"node":1,"object":0,"write":true}]}`,
	} {
		if err := json.Unmarshal([]byte(raw), v); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		shard ShardJob
		wire  string
	}{
		{ShardJob{Statement: Statement{Spec: &spec}, Class: "general", Fingerprint: "sha256:f", SolveTimeoutMillis: 250},
			`{"spec":{"Workload":"web","Nodes":6,"Objects":10,"Requests":2500,"Horizon":28800000000000,"Delta":3600000000000,"Seed":3,"Tlat":150,"QoSPoints":[0.8,0.9],"Zeta":100,"ZipfS":0},"class":"general","fingerprint":"sha256:f","solveTimeoutMillis":250}`},
		{ShardJob{Statement: Statement{Scenario: &scn}, Class: "caching", Fingerprint: "sha256:f"},
			`{"scenario":{"name":"wire","seed":3,"topology":{"model":"transit-stub","nodes":6},"workload":{"model":"web","objects":4,"requests":100,"horizonMillis":7200000},"qos":[0.9]},"class":"caching","fingerprint":"sha256:f"}`},
		{ShardJob{Statement: Statement{Topology: &topo, Trace: &trace, DeltaMillis: 3600000, Tlat: 150, QoS: []float64{0.9, 0.95}}, Class: "storage-constrained", Fingerprint: "sha256:f"},
			`{"topology":{"nodes":2,"origin":0,"links":[{"a":0,"b":1,"latencyMillis":5}]},"trace":{"nodes":2,"objects":1,"durationMillis":7200000,"accesses":[{"atMillis":0,"node":1,"object":0},{"atMillis":60000,"node":1,"object":0,"write":true}]},"deltaMillis":3600000,"tlat":150,"qos":[0.9,0.95],"class":"storage-constrained","fingerprint":"sha256:f"}`},
	} {
		raw, err := json.Marshal(&c.shard)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != c.wire {
			t.Errorf("%s shard encodes as\n%s\nwant\n%s", c.shard.Class, raw, c.wire)
		}
		// The worker's decode of the pinned bytes re-encodes identically.
		dec := json.NewDecoder(strings.NewReader(c.wire))
		dec.DisallowUnknownFields()
		var back ShardJob
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("%s: decode pinned shard: %v", c.shard.Class, err)
		}
		if again, _ := json.Marshal(&back); string(again) != c.wire {
			t.Errorf("%s shard does not round-trip:\n%s", c.shard.Class, again)
		}
	}
}

// TestCoordinatorByteIdenticalFigure is the tentpole guarantee at package
// level: a figure assembled from columns solved by two remote workers is
// byte-identical (TSV) to the local sweep, and a second coordinator
// lifetime over the same store serves every column from disk with zero
// dispatches even with no worker alive.
func TestCoordinatorByteIdenticalFigure(t *testing.T) {
	spec := tinySpec()
	sys, err := experiments.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := scenario.Fingerprint(sys)
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	fig, err := experiments.Figure1(sys, experiments.Options{Parallel: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.WriteTSV(&local); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	render := func(co *Coordinator) string {
		opts := experiments.Options{
			Parallel: 3,
			ColumnSolver: func(ctx context.Context, class string, qos []float64) ([]experiments.Point, error) {
				pts, _, err := co.SolveColumn(ctx, ShardJob{Statement: Statement{Spec: &spec}, Class: class, Fingerprint: fp})
				return pts, err
			},
		}
		fig, err := experiments.Figure1(sys, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fig.WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := NewCoordinator(CoordinatorConfig{Store: store, WorkerWait: 5 * time.Second})
	first.Register(startWorker(t).URL)
	first.Register(startWorker(t).URL)
	if got := render(first); got != local.String() {
		t.Fatalf("distributed TSV differs from local:\n--- local ---\n%s--- distributed ---\n%s", local.String(), got)
	}
	if first.storeHits.Load() != 0 || first.dispatched.Load() == 0 {
		t.Fatalf("first lifetime: hits=%d dispatched=%d, want cold store and real dispatches",
			first.storeHits.Load(), first.dispatched.Load())
	}

	// Lifetime two: fresh coordinator, same directory, no workers at all.
	store2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	second := NewCoordinator(CoordinatorConfig{Store: store2, WorkerWait: time.Second})
	if got := render(second); got != local.String() {
		t.Fatalf("restarted coordinator served a different TSV")
	}
	if second.dispatched.Load() != 0 {
		t.Fatalf("restarted coordinator dispatched %d shards, want 0 (all from store)", second.dispatched.Load())
	}
	if second.storeHits.Load() == 0 {
		t.Fatal("restarted coordinator recorded no store hits")
	}
}

// TestCoordinatorRetriesOnAnotherWorker kills one of two workers and
// checks a shard that lands on the corpse is retried on the survivor.
func TestCoordinatorRetriesOnAnotherWorker(t *testing.T) {
	spec := tinySpec()
	fp := tinyFingerprint(t)
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close() // a registered worker whose process has died
	live := startWorker(t)

	co := NewCoordinator(CoordinatorConfig{WorkerWait: 2 * time.Second, ShardRetries: 3})
	co.Register(dead.URL)
	co.Register(live.URL)
	// Solve every Figure 1 column so the round-robin is guaranteed to hit
	// the dead worker at least once.
	for _, class := range []string{"general", "storage-constrained", "caching"} {
		if _, _, err := co.SolveColumn(context.Background(),
			ShardJob{Statement: Statement{Spec: &spec}, Class: class, Fingerprint: fp}); err != nil {
			t.Fatalf("%s: %v", class, err)
		}
	}
	if co.retries.Load() == 0 {
		t.Fatal("no shard was retried despite a dead worker in the rotation")
	}
	// The corpse was dropped from the registry after its first failure.
	for _, w := range co.Workers() {
		if w.URL == dead.URL {
			t.Fatal("dead worker still registered")
		}
	}
}

// TestCoordinatorNoWorkers fails a shard with a clear error when no
// worker ever appears.
func TestCoordinatorNoWorkers(t *testing.T) {
	spec := tinySpec()
	co := NewCoordinator(CoordinatorConfig{WorkerWait: 300 * time.Millisecond})
	_, _, err := co.SolveColumn(context.Background(),
		ShardJob{Statement: Statement{Spec: &spec}, Class: "general", Fingerprint: "sha256:x"})
	if err == nil || !strings.Contains(err.Error(), "no live worker") {
		t.Fatalf("err = %v, want a no-live-worker failure", err)
	}
}

// TestHeartbeatRegisters runs the worker heartbeat loop against the
// coordinator's registry handler.
func TestHeartbeatRegisters(t *testing.T) {
	co := NewCoordinator(CoordinatorConfig{})
	reg := httptest.NewServer(co.Handler())
	defer reg.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go RunHeartbeat(ctx, nil, reg.URL, "http://worker-1:9", 50*time.Millisecond, t.Logf)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if ws := co.Workers(); len(ws) == 1 && ws[0].URL == "http://worker-1:9" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered; registry: %+v", co.Workers())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
