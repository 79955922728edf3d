package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"wideplace/internal/experiments"
	"wideplace/internal/scenario"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// newTestServer starts a server plus its HTTP front end and registers
// cleanup that drains it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (JobView, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return JobView{}, resp.StatusCode
	}
	var v JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode job view: %v\n%s", err, raw)
	}
	return v, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	return v
}

// waitState polls a job until it reaches a terminal state or any of the
// wanted states, failing on timeout.
func waitState(t *testing.T, ts *httptest.Server, id string, timeout time.Duration, want ...JobState) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, ts, id)
		for _, w := range want {
			if v.State == w {
				return v
			}
		}
		if v.State.terminal() {
			t.Fatalf("job %s reached %s (error %q), want one of %v", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s after %v, want one of %v", id, v.State, timeout, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func getMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// metricValue extracts a sample value from the exposition text.
func metricValue(t *testing.T, text, name string) string {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (.+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, text)
	}
	return m[1]
}

// tinyJob is a placement question that solves in well under a second.
const tinyJob = `{"spec":{"workload":"web","scale":"small","nodes":5,"objects":5,
	"requests":400,"horizonMillis":7200000,"qos":[0.9]},"classes":["general"]}`

// slowJob keeps a worker busy for seconds (several thousand-variable LPs).
const slowJob = `{"spec":{"workload":"web","scale":"small","nodes":10,"objects":30,
	"requests":8000,"qos":[0.99,0.999,0.9999]},
	"classes":["general","storage-constrained","replica-constrained"]}`

// TestIdenticalConcurrentSubmissionsShareOneSolve is acceptance test (a):
// two identical concurrent submissions produce one solve and one cache
// hit, verified through /metrics.
func TestIdenticalConcurrentSubmissionsShareOneSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Parallel: 1})
	const job = `{"spec":{"workload":"web","scale":"small","nodes":8,"objects":10,
		"requests":2000,"horizonMillis":14400000,"qos":[0.9,0.95]},
		"classes":["general","storage-constrained"]}`

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		views []JobView
	)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, status := postJob(t, ts, job)
			if status != http.StatusAccepted && status != http.StatusOK {
				t.Errorf("submit status %d", status)
				return
			}
			mu.Lock()
			views = append(views, v)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(views) != 2 {
		t.Fatalf("got %d successful submissions, want 2", len(views))
	}
	if views[0].ID != views[1].ID {
		t.Fatalf("identical submissions got distinct jobs %s and %s", views[0].ID, views[1].ID)
	}
	if views[0].Cached == views[1].Cached {
		t.Fatalf("want exactly one cached response, got cached=%v and cached=%v", views[0].Cached, views[1].Cached)
	}

	waitState(t, ts, views[0].ID, 2*time.Minute, StateDone)
	text := getMetrics(t, ts)
	if got := metricValue(t, text, "placementd_cache_hits_total"); got != "1" {
		t.Errorf("cache hits = %s, want 1", got)
	}
	if got := metricValue(t, text, "placementd_cache_misses_total"); got != "1" {
		t.Errorf("cache misses = %s, want 1", got)
	}
	if got := metricValue(t, text, `placementd_jobs_finished_total{state="done"}`); got != "1" {
		t.Errorf("jobs done = %s, want 1 (one solve for two submissions)", got)
	}

	// A third identical submission is a pure cache hit answered from the
	// finished job.
	v, status := postJob(t, ts, job)
	if status != http.StatusOK || !v.Cached || v.State != StateDone {
		t.Errorf("resubmission: status=%d cached=%v state=%s, want 200/cached/done", status, v.Cached, v.State)
	}
	if got := metricValue(t, getMetrics(t, ts), "placementd_cache_hits_total"); got != "2" {
		t.Errorf("cache hits after resubmission = %s, want 2", got)
	}
}

// TestCancelAbortsRunningSolve is acceptance test (b): DELETE on a
// running job aborts the simplex mid-solve. CheckEvery=1 polls the
// context every iteration, so cancellation latency is one iteration.
func TestCancelAbortsRunningSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Parallel: 1, CheckEvery: 1})
	v, _ := postJob(t, ts, slowJob)
	waitState(t, ts, v.ID, time.Minute, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+v.ID, nil)
	canceledAt := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status %d, want 202", resp.StatusCode)
	}
	waitState(t, ts, v.ID, 30*time.Second, StateCanceled)
	if elapsed := time.Since(canceledAt); elapsed > 15*time.Second {
		t.Errorf("cancellation took %v; the solver should abort at the next poll", elapsed)
	}

	// The canceled job must not occupy the result cache: resubmitting
	// runs a fresh solve rather than returning the aborted one.
	v2, _ := postJob(t, ts, slowJob)
	if v2.Cached || v2.ID == v.ID {
		t.Errorf("resubmission after cancel reused job %s (cached=%v)", v2.ID, v2.Cached)
	}
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+v2.ID, nil)
	if resp2, err := http.DefaultClient.Do(req2); err == nil {
		resp2.Body.Close()
	}
}

// TestResultMatchesSerialSweep is acceptance test (c): a spec-form job's
// TSV is byte-identical to the serial sweep the cmd/bounds tool runs, for
// both WEB and GROUP.
func TestResultMatchesSerialSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Parallel: 0})
	for _, kind := range []string{scenario.WorkWeb, scenario.WorkGroup} {
		t.Run(kind, func(t *testing.T) {
			spec, err := scenario.Preset(kind, "small")
			if err != nil {
				t.Fatal(err)
			}
			spec.Topology.Nodes = 8
			spec.Workload.Objects = 10
			spec.Workload.Requests = 2000
			spec.Workload.HorizonMillis = (4 * time.Hour).Milliseconds()
			spec.QoS = []float64{0.9, 0.95}
			res, err := scenario.Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			fig, err := experiments.Figure1(res.System, experiments.Options{Parallel: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var golden bytes.Buffer
			if err := fig.WriteTSV(&golden); err != nil {
				t.Fatal(err)
			}

			body := fmt.Sprintf(`{"spec":{"workload":%q,"scale":"small","nodes":8,"objects":10,
				"requests":2000,"horizonMillis":14400000,"qos":[0.9,0.95]}}`, kind)
			v, _ := postJob(t, ts, body)
			waitState(t, ts, v.ID, 5*time.Minute, StateDone)

			resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/result?format=tsv")
			if err != nil {
				t.Fatal(err)
			}
			served, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !bytes.Equal(served, golden.Bytes()) {
				t.Errorf("served TSV differs from serial sweep:\n--- golden ---\n%s--- served ---\n%s", golden.String(), served)
			}
		})
	}
}

// TestExplicitSystemJob submits a custom topology + trace (the JSON the
// cmd/workload tool emits) and checks the result shape and progress.
func TestExplicitSystemJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Parallel: 1})
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
	topoJSON, _ := json.Marshal(topo)
	traceJSON, _ := json.Marshal(trace)
	body := fmt.Sprintf(`{"topology":%s,"trace":%s,"deltaMillis":3600000,
		"qos":[0.9],"classes":["general","caching"]}`, topoJSON, traceJSON)
	v, status := postJob(t, ts, body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	final := waitState(t, ts, v.ID, 2*time.Minute, StateDone)
	if final.CellsTotal != 2 || final.CellsDone != 2 {
		t.Errorf("progress %d/%d, want 2/2", final.CellsDone, final.CellsTotal)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var fig experiments.Figure
	if err := json.NewDecoder(resp.Body).Decode(&fig); err != nil {
		t.Fatalf("decode figure: %v", err)
	}
	resp.Body.Close()
	if len(fig.Series) != 2 || fig.Series[0].Name != "general" || fig.Series[1].Name != "caching" {
		t.Errorf("unexpected series: %+v", fig.Series)
	}
	if fig.Spec.Workload != experiments.CustomWorkload {
		t.Errorf("workload = %q, want custom", fig.Spec.Workload)
	}
}

// TestSubmitValidation exercises the request-validation path: bad input
// must produce a 400 with a JSON error, never a panic or a queued job.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	topo, _ := topology.Generate(topology.GenOptions{N: 4, Seed: 1})
	topoJSON, _ := json.Marshal(topo)
	trace, _ := workload.GenerateWeb(workload.WebOptions{
		Nodes: 5, Objects: 3, Requests: 50, Duration: time.Hour, Seed: 1,
	})
	traceJSON, _ := json.Marshal(trace)

	cases := []struct {
		name, body string
	}{
		{"malformed JSON", `{`},
		{"unknown field", `{"zap":1}`},
		{"no system", `{}`},
		{"spec and explicit", fmt.Sprintf(`{"spec":{"workload":"web","scale":"small"},"topology":%s,"trace":%s,"deltaMillis":1,"qos":[0.9]}`, topoJSON, traceJSON)},
		{"unknown workload", `{"spec":{"workload":"cdn","scale":"small"}}`},
		{"unknown scale", `{"spec":{"workload":"web","scale":"galactic"}}`},
		{"negative override", `{"spec":{"workload":"web","scale":"small","nodes":-2}}`},
		{"zipf exponent on group", `{"spec":{"workload":"group","scale":"small","zipfS":1.1}}`},
		{"qos above one", `{"spec":{"workload":"web","scale":"small","qos":[1.5]}}`},
		{"qos zero", `{"spec":{"workload":"web","scale":"small","qos":[0]}}`},
		{"duplicate qos", `{"spec":{"workload":"web","scale":"small","qos":[0.9,0.9]}}`},
		{"unknown class", `{"spec":{"workload":"web","scale":"small"},"classes":["clairvoyant"]}`},
		{"duplicate class", `{"spec":{"workload":"web","scale":"small"},"classes":["general","general"]}`},
		{"negative solve timeout", `{"spec":{"workload":"web","scale":"small"},"solveTimeoutMillis":-1}`},
		{"trace without topology", fmt.Sprintf(`{"trace":%s,"deltaMillis":3600000,"qos":[0.9]}`, traceJSON)},
		{"missing delta", fmt.Sprintf(`{"topology":%s,"trace":%s,"qos":[0.9]}`, topoJSON, traceJSON)},
		{"node count mismatch", fmt.Sprintf(`{"topology":%s,"trace":%s,"deltaMillis":3600000,"qos":[0.9]}`, topoJSON, traceJSON)},
		{"no qos for explicit system", fmt.Sprintf(`{"topology":%s,"trace":%s,"deltaMillis":3600000}`, topoJSON, traceJSON)},
		{"negative link latency", `{"topology":{"nodes":2,"origin":0,"links":[{"a":0,"b":1,"latencyMillis":-5}]},"trace":{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[]},"deltaMillis":1000,"qos":[0.9]}`},
		{"ragged latency matrix", `{"topology":{"origin":0,"latencyMillis":[[0,10],[10]]},"trace":{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[]},"deltaMillis":1000,"qos":[0.9]}`},
		{"trace object out of range", `{"topology":{"nodes":2,"origin":0,"links":[{"a":0,"b":1,"latencyMillis":5}]},"trace":{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":0,"node":0,"object":9}]},"deltaMillis":1000,"qos":[0.9]}`},
		{"empty object set", `{"topology":{"nodes":2,"origin":0,"links":[{"a":0,"b":1,"latencyMillis":5}]},"trace":{"nodes":2,"objects":0,"durationMillis":1000,"accesses":[]},"deltaMillis":1000,"qos":[0.9]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, status := postJob(t, ts, c.body)
			if status != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", status)
			}
		})
	}
	// Nothing should have been enqueued or counted as submitted.
	text := getMetrics(t, ts)
	if got := metricValue(t, text, "placementd_jobs_submitted_total"); got != "0" {
		t.Errorf("submitted = %s, want 0 after rejected requests", got)
	}
}

// TestHostileSystemsFailCleanly: bodies stating systems past the size
// caps (topology.MaxNodes, workload.MaxCells) end in a 400 or a failed
// job instead of allocating what they state, and the same server then
// completes a normal job.
func TestHostileSystemsFailCleanly(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Parallel: 1})
	var chain strings.Builder
	chain.WriteString(`{"topology":{"nodes":30000,"origin":0,"links":[`)
	for i := 1; i < 30000; i++ {
		if i > 1 {
			chain.WriteByte(',')
		}
		fmt.Fprintf(&chain, `{"a":%d,"b":%d,"latencyMillis":1}`, i-1, i)
	}
	chain.WriteString(`]},"trace":{"nodes":30000,"objects":1,"durationMillis":1000,"accesses":[]},"deltaMillis":1000,"qos":[0.9]}`)
	for _, c := range []struct {
		name, body string
		status     int
	}{
		{"explicit trace of 2e9 objects",
			`{"topology":{"nodes":2,"origin":0,"links":[{"a":0,"b":1,"latencyMillis":100}]},"trace":{"nodes":2,"objects":2000000000,"durationMillis":86400000,"accesses":[]},"deltaMillis":1,"qos":[0.9]}`,
			http.StatusAccepted},
		{"scenario of 2e9 objects",
			`{"scenario":{"name":"huge","topology":{"model":"random-as","nodes":2},"workload":{"model":"web","objects":2000000000,"requests":10},"qos":[0.9]}}`,
			http.StatusBadRequest},
		{"30000-node chain", chain.String(), http.StatusBadRequest},
	} {
		t.Run(c.name, func(t *testing.T) {
			v, status := postJob(t, ts, c.body)
			if status != c.status {
				t.Fatalf("status = %d, want %d", status, c.status)
			}
			if status == http.StatusAccepted {
				got := waitState(t, ts, v.ID, time.Minute, StateFailed)
				if !strings.Contains(got.Error, "exceeds the supported maximum") {
					t.Errorf("job failed with %q, want the size cap", got.Error)
				}
			}
		})
	}
	v, _ := postJob(t, ts, tinyJob)
	waitState(t, ts, v.ID, time.Minute, StateDone)
}

// TestQueueBoundsAndDrain covers the bounded queue and graceful drain at
// the API level.
func TestQueueBoundsAndDrain(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, Parallel: 1, CheckEvery: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	mkReq := func(seed uint64) *JobRequest {
		return &JobRequest{Spec: &SpecRequest{
			Workload: "web", Scale: "small", Nodes: 10, Objects: 30,
			Requests: 8000, Seed: seed, QoS: []float64{0.99},
		}, Classes: []string{"storage-constrained"}}
	}
	j1, _, err := s.Submit(mkReq(1))
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	// Wait for the single worker to pick j1 up so the queue slot is free.
	for deadline := time.Now().Add(time.Minute); j1.State() == StateQueued; {
		if time.Now().After(deadline) {
			t.Fatal("job 1 never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	j2, _, err := s.Submit(mkReq(2))
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	// Worker 1 holds j1; j2 occupies the single queue slot; j3 must be
	// rejected, not queued unboundedly.
	if _, _, err := s.Submit(mkReq(3)); err != ErrQueueFull {
		t.Fatalf("submit 3: err = %v, want ErrQueueFull", err)
	}
	s.Cancel(j1.id)
	s.Cancel(j2.id)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, _, err := s.Submit(mkReq(4)); err != ErrDraining {
		t.Fatalf("submit after drain: err = %v, want ErrDraining", err)
	}
}

// TestJobEndpoints covers the remaining HTTP surface: list, health,
// unknown IDs, result-before-done and cancel conflicts.
func TestJobEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Parallel: 1})
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	v, _ := postJob(t, ts, tinyJob)
	waitState(t, ts, v.ID, time.Minute, StateDone)

	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID {
		t.Errorf("list = %+v, want the one submitted job", list.Jobs)
	}

	for _, c := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/jobs/nosuch", http.StatusNotFound},
		{"GET", "/jobs/nosuch/result", http.StatusNotFound},
		{"DELETE", "/jobs/nosuch", http.StatusNotFound},
		{"DELETE", "/jobs/" + v.ID, http.StatusConflict}, // already done
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}
