package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// wholeJobRequest decodes a POST /jobs body with encoding/json over the
// whole body, the decode decodeJobRequest must match value for value and
// error for error.
func wholeJobRequest(body string) (*JobRequest, error) {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// Members of a small explicit job body, for the fuzz seeds.
const (
	seedTopology = `{"nodes":2,"origin":0,"links":[{"a":0,"b":1,"latencyMillis":5}]}`
	seedTrace    = `{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":0,"node":1,"object":0},{"atMillis":7,"node":1,"object":0,"write":true}]}`
)

// explicitSeeds spell explicit job bodies every way the in-place trace
// read must either take, with exactly the whole-body decode's result, or
// turn down: the trace first, in the middle and last; case variants of
// its key before and after it; the word trace as a value and as a nested
// key; whitespace between members and bytes after the object; -0,
// "write":false and an indented trace.
func explicitSeeds() []string {
	var indented bytes.Buffer
	json.Indent(&indented, []byte(seedTrace), "", "  ") //nolint:errcheck // a valid literal
	member := func(key, trace string) string {
		return `{"topology":` + seedTopology + `,"` + key + `":` + trace + `,"deltaMillis":1000,"qos":[0.9]}`
	}
	canonical := member("trace", seedTrace)
	return []string{
		canonical,
		`{"trace":` + seedTrace + `,"topology":` + seedTopology + `,"deltaMillis":1000,"qos":[0.9]}`,
		`{"topology":` + seedTopology + `,"deltaMillis":1000,"qos":[0.9],"trace":` + seedTrace + `}`,
		member("Trace", seedTrace),
		member("TRACE", seedTrace),
		`{"Trace":` + seedTrace + `,"topology":` + seedTopology + `,"trace":` + seedTrace + `,"deltaMillis":1000}`,
		`{"topology":` + seedTopology + `,"trace":` + seedTrace + `,"TRACE":` + seedTrace + `,"deltaMillis":1000}`,
		`{"topology":` + seedTopology + `,"trace":` + seedTrace + `,"Trace":null,"deltaMillis":1000}`,
		`{"topology":` + seedTopology + `,"trace":` + seedTrace + `,"trace":null,"deltaMillis":1000}`,
		`{"trace":` + seedTrace + `,"topology":` + seedTopology + `,"deltaMillis":1000}`,
		`{"classes":["trace","general"],"topology":` + seedTopology + `,"trace":` + seedTrace + `,"deltaMillis":1000}`,
		`{"scenario":{"name":"trace","trace":` + seedTrace + `}}`,
		" {\n\t\"topology\" : " + seedTopology + " ,\r\n \"trace\" :\t" + seedTrace + " , \"deltaMillis\":1000 }\n",
		canonical + ` {"zap":1}`,
		canonical + `}]garbage`,
		member("trace", strings.Replace(seedTrace, `"atMillis":0`, `"atMillis":-0`, 1)),
		member("trace", strings.Replace(seedTrace, `"object":0}`, `"object":0,"write":false}`, 1)),
		member("trace", indented.String()),
		member("trace", `null`),
		member("trace", `{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":5000,"node":1,"object":0}]}`),
		canonical[:len(canonical)-30],
		`{"classes":["x\"}],\\"],"topology":` + seedTopology + `,"trace":` + seedTrace + `,"deltaMillis":1000}`,
		`{"topology":` + seedTopology + `,"trace":` + seedTrace + `,"zap":1}`,
	}
}

// FuzzJobRequest feeds arbitrary bytes to the POST /jobs decoder and
// compiles whatever it accepts. The decoder is held to encoding/json over
// the whole body: both give the same request and job key, or both fail
// with the same error, and the canonical trace bytes it keeps are
// Trace.MarshalJSON's. Neither decode nor compile may panic, every
// rejection must be a bad request (a 400, never a 500), and an accepted
// request must keep its content key when re-encoded, decoded and compiled
// again.
func FuzzJobRequest(f *testing.F) {
	f.Add(tinyJob)
	f.Add(tinyScenario)
	f.Add(`{"topology":{"nodes":2,"origin":0,"links":[{"a":0,"b":1,"latencyMillis":5}]},
		"trace":{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":0,"node":1,"object":0}]},
		"deltaMillis":1000,"qos":[0.9],"tlat":80}`)
	f.Add(`{"spec":{"workload":"group","scale":"medium","qos":[0.5],"seed":9},"classes":["caching"],"solveTimeoutMillis":5}`)
	f.Add(`{"spec":{"workload":"web","scale":"small"},"zap":1}`)
	f.Add(`{}`)
	for _, body := range explicitSeeds() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeJobRequest(strings.NewReader(body), int64(len(body)))
		whole, wholeErr := wholeJobRequest(body)
		if err != nil || wholeErr != nil {
			if err == nil || wholeErr == nil || err.Error() != wholeErr.Error() {
				t.Fatalf("decode fails with %v, the whole-body decode with %v: %q", err, wholeErr, body)
			}
			return
		}
		if req.canonicalTrace != nil {
			if want, _ := req.Trace.MarshalJSON(); !bytes.Equal(req.canonicalTrace, want) {
				t.Fatalf("kept trace bytes\n%s\nare not the canonical\n%s", req.canonicalTrace, want)
			}
		}
		bare := *req
		bare.canonicalTrace = nil
		if !reflect.DeepEqual(&bare, whole) {
			t.Fatalf("decode reads %+v, the whole-body decode %+v: %q", bare, whole, body)
		}
		plan, err := compile(req)
		wholePlan, wholeErr := compile(whole)
		if err != nil || wholeErr != nil {
			if err == nil || wholeErr == nil || err.Error() != wholeErr.Error() {
				t.Fatalf("compile fails with %v, on the whole-body decode with %v: %q", err, wholeErr, body)
			}
			if !errors.Is(err, errBadRequest) {
				t.Fatalf("rejection is not a bad request: %v", err)
			}
			return
		}
		if plan.key != wholePlan.key {
			t.Fatalf("content key %s differs from the whole-body decode's %s: %q", plan.key, wholePlan.key, body)
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode of an accepted request failed: %v", err)
		}
		again, err := decodeJobRequest(bytes.NewReader(raw), -1)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v\n%s", err, raw)
		}
		replan, err := compile(again)
		if err != nil {
			t.Fatalf("re-encoded request is rejected: %v\n%s", err, raw)
		}
		if replan.key != plan.key {
			t.Fatalf("content key moved on re-encode: %s -> %s\n%s", plan.key, replan.key, raw)
		}
	})
}

// FuzzStreamRequest feeds arbitrary bytes to the POST /controller/stream
// decoder. It must never panic, must reject with an error, and whatever
// it accepts must carry its defaults in range and a spec that passes
// scenario.Validate, the check Compile starts with.
func FuzzStreamRequest(f *testing.F) {
	f.Add(driftScenario)
	f.Add(strings.Replace(driftScenario, `{"scenario"`, `{"deltaMillis":1800000,"tqos":0.9,"reactive":true,"intervals":2,"scenario"`, 1))
	f.Add(strings.Replace(driftScenario, `{"scenario"`, `{"deltaMillis":1,"scenario"`, 1))
	f.Add(strings.Replace(driftScenario, `{"scenario"`, `{"tqos":1,"scenario"`, 1))
	f.Add(strings.Replace(driftScenario, `{"scenario"`, `{"intervals":-1,"scenario"`, 1))
	f.Add(strings.Replace(driftScenario, `"seed":11,`, `"seed":11,"bogus":1,`, 1))
	f.Add(`{"tqos":0.9}`)
	f.Add(`{"scenario":null}`)
	f.Add(`{"scenario":{}}`)
	f.Fuzz(func(t *testing.T, body string) {
		req, spec, err := decodeStreamRequest(strings.NewReader(body))
		if err != nil {
			if req != nil {
				t.Fatalf("a rejection returns a request: %v", err)
			}
			return
		}
		if req.Scenario == nil || req.TQoS <= 0 || req.TQoS >= 1 || req.Intervals < 0 || req.DeltaMillis < 0 {
			t.Fatalf("accepted request out of range: %+v", req)
		}
		if req.DeltaMillis > 0 && spec.DeltaMillis != req.DeltaMillis {
			t.Fatalf("spec interval %d ignores the override %d", spec.DeltaMillis, req.DeltaMillis)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v", err)
		}
	})
}
