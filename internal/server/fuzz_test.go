package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// FuzzJobRequest feeds arbitrary bytes to the POST /jobs decoder and
// compiles whatever it accepts: neither may panic, every rejection must
// be a bad request (a 400, never a 500), and an accepted request must
// keep its content key when re-encoded, decoded and compiled again.
func FuzzJobRequest(f *testing.F) {
	f.Add(tinyJob)
	f.Add(tinyScenario)
	f.Add(`{"topology":{"nodes":2,"origin":0,"links":[{"a":0,"b":1,"latencyMillis":5}]},
		"trace":{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":0,"node":1,"object":0}]},
		"deltaMillis":1000,"qos":[0.9],"tlat":80}`)
	f.Add(`{"spec":{"workload":"group","scale":"medium","qos":[0.5],"seed":9},"classes":["caching"],"solveTimeoutMillis":5}`)
	f.Add(`{"spec":{"workload":"web","scale":"small"},"zap":1}`)
	f.Add(`{}`)
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeJobRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		plan, err := compile(req)
		if err != nil {
			if !errors.Is(err, errBadRequest) {
				t.Fatalf("rejection is not a bad request: %v", err)
			}
			return
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode of an accepted request failed: %v", err)
		}
		again, err := decodeJobRequest(bytes.NewReader(raw))
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
