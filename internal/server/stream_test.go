package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wideplace/internal/controller"
	"wideplace/internal/core"
	"wideplace/internal/scenario"
)

// driftScenario is a small drift workload: a diurnal trace bucketed into
// a few control intervals, sized to replay in well under a second.
const driftScenario = `{"scenario":{"name":"drift-tiny","seed":11,
	"topology":{"model":"transit-stub","nodes":8},
	"workload":{"model":"diurnal","objects":6,"requests":1200,"horizonMillis":21600000},
	"deltaMillis":7200000,"qos":[0.9],"classes":["general"]}}`

// controllerStream posts a controller stream request and reads the whole
// stream: its header, one step per line and the done trailer.
func controllerStream(t *testing.T, ts *httptest.Server, body string) (streamHeader, []controller.StepResult, streamTrailer) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/controller/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no header line")
	}
	var hdr streamHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("header: %v", err)
	}
	var steps []controller.StepResult
	var trailer streamTrailer
	for sc.Scan() {
		line := sc.Bytes()
		if strings.Contains(string(line), `"done"`) {
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatalf("trailer: %v", err)
			}
			break
		}
		var st controller.StepResult
		if err := json.Unmarshal(line, &st); err != nil {
			t.Fatalf("step line %q: %v", line, err)
		}
		steps = append(steps, st)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return hdr, steps, trailer
}

// TestControllerStream replays a drift scenario through the streaming
// endpoint and checks the ndjson framing: one header, one StepResult per
// interval (with intervals in order and warm re-solves past the first),
// and a done trailer whose totals match the steps.
func TestControllerStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	hdr, steps, trailer := controllerStream(t, ts, driftScenario)
	if hdr.Scenario != "drift-tiny" || hdr.Nodes != 8 || hdr.Intervals < 2 {
		t.Fatalf("unexpected header %+v", hdr)
	}
	if len(steps) != hdr.Intervals {
		t.Fatalf("got %d steps, header promised %d", len(steps), hdr.Intervals)
	}
	iters := 0
	for i, st := range steps {
		if st.Interval != i {
			t.Errorf("step %d reports interval %d", i, st.Interval)
		}
		if i > 0 && !st.Warm {
			t.Errorf("interval %d did not warm re-solve", i)
		}
		iters += st.Iterations
	}
	if !trailer.Done || trailer.Intervals != len(steps) || trailer.TotalIterations != iters {
		t.Errorf("trailer %+v does not match %d steps / %d iterations", trailer, len(steps), iters)
	}
}

// TestControllerStreamMatchesReplay: a capped reactive stream emits
// exactly the steps controller.Replay computes for the same scenario,
// wall clock aside.
func TestControllerStreamMatchesReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := strings.Replace(driftScenario, `{"scenario"`, `{"reactive":true,"intervals":2,"scenario"`, 1)
	_, streamed, _ := controllerStream(t, ts, body)

	var req StreamRequest
	if err := json.Unmarshal([]byte(driftScenario), &req); err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Compile(*req.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	sys := res.System
	tr, err := controller.Replay(controller.Config{
		Topo: sys.Topo, Cost: core.DefaultCost(), Goal: core.QoS(0.95, sys.Spec.Tlat),
	}, sys.Counts.Truncate(2), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(tr.Steps) {
		t.Fatalf("stream emitted %d steps, Replay took %d", len(streamed), len(tr.Steps))
	}
	for i := range streamed {
		streamed[i].WallNs, tr.Steps[i].WallNs = 0, 0
		got, _ := json.Marshal(&streamed[i])
		want, _ := json.Marshal(tr.Steps[i])
		if string(got) != string(want) {
			t.Errorf("step %d:\nstream %s\nreplay %s", i, got, want)
		}
	}
}

// TestControllerStreamRejects covers the 4xx paths: bodies without a
// scenario and out-of-range goals never reach the solver.
func TestControllerStreamRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{}`,
		`{"tqos":0.9}`,
		strings.Replace(driftScenario, `"seed":11,`, `"seed":11,"bogus":1,`, 1),
	} {
		resp, err := http.Post(ts.URL+"/controller/stream", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/controller/stream", "application/json",
		strings.NewReader(strings.Replace(driftScenario, `"classes":["general"]`, `"classes":["general"],"x":0`, 1)+"{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-field body: status %d, want 400", resp.StatusCode)
	}
}
