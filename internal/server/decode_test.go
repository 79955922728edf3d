package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// smallExplicitRequest is an explicit job small enough to solve in a test:
// 5 sites, 300 WEB accesses over 2 hours, a tenth of them writes.
func smallExplicitRequest(t *testing.T) JobRequest {
	t.Helper()
	topo, err := topology.Generate(topology.GenOptions{N: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.GenerateWeb(workload.WebOptions{
		Nodes: 5, Objects: 5, Requests: 300, Duration: 2 * time.Hour, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace.Accesses {
		trace.Accesses[i].Write = i%10 == 0
	}
	return JobRequest{Topology: topo, Trace: trace, DeltaMillis: 3600000,
		QoS: []float64{0.9}, Classes: []string{"caching"}}
}

// TestExplicitBodiesReadInPlace pins the fast path: a body json.Marshal
// writes for a JobRequest has its trace read in place and kept as its
// exact canonical bytes, so an encoder change that sent such bodies back
// through encoding/json, or their key back through Trace.MarshalJSON,
// fails here instead of only running slower.
func TestExplicitBodiesReadInPlace(t *testing.T) {
	small, err := json.Marshal(smallExplicitRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{small, explicitBody(t)} {
		req, err := decodeJobRequest(bytes.NewReader(body), int64(len(body)))
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := req.Trace.MarshalJSON(); req.canonicalTrace == nil || !bytes.Equal(req.canonicalTrace, want) {
			t.Fatalf("trace of a %d-byte body not kept as its canonical bytes (kept %d)", len(body), len(req.canonicalTrace))
		}
	}
}

// TestExplicitSpellingsShareOneJob submits one explicit question spelled
// three ways: as json.Marshal writes it, indented, and with the members of
// the body and of the trace reordered. Only the first reads its trace as
// canonical bytes; all three must hash to one job, so the second and the
// third are answered from the cache.
func TestExplicitSpellingsShareOneJob(t *testing.T) {
	canonical, err := json.Marshal(smallExplicitRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, canonical, "", "  "); err != nil {
		t.Fatal(err)
	}
	// Maps marshal with sorted keys: accesses, durationMillis, nodes,
	// objects in the trace, and classes, deltaMillis, qos, topology, trace
	// in the body.
	var members map[string]json.RawMessage
	if err := json.Unmarshal(canonical, &members); err != nil {
		t.Fatal(err)
	}
	var traceMembers map[string]json.RawMessage
	if err := json.Unmarshal(members["trace"], &traceMembers); err != nil {
		t.Fatal(err)
	}
	if members["trace"], err = json.Marshal(traceMembers); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(members)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 1, Parallel: 1})
	first, status := postJob(t, ts, string(canonical))
	if status != http.StatusAccepted {
		t.Fatalf("first submit status %d", status)
	}
	for name, body := range map[string][]byte{"indented": indented.Bytes(), "reordered": reordered} {
		if req, err := decodeJobRequest(bytes.NewReader(body), -1); err != nil || req.canonicalTrace != nil {
			t.Fatalf("%s body: decode %v, canonical trace bytes %v", name, err, req != nil && req.canonicalTrace != nil)
		}
		v, status := postJob(t, ts, string(body))
		if status != http.StatusOK || !v.Cached || v.ID != first.ID || v.Key != first.Key {
			t.Errorf("%s body: status %d, job %s (cached %v), want a cache hit on %s", name, status, v.ID, v.Cached, first.ID)
		}
	}
	waitState(t, ts, first.ID, 2*time.Minute, StateDone)
}
