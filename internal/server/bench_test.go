package server

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"wideplace/internal/scenario"
)

// explicitBody is a POST /jobs body stating an explicit topology + trace:
// a 10-site topology and a 12,000-access WEB trace over 8 hours, about
// 0.5 MB of JSON, the size of the repeat bodies a placement service
// answers from its result cache.
func explicitBody(tb testing.TB) []byte {
	tb.Helper()
	spec := scenario.Spec{
		Name:     "explicit",
		Seed:     1,
		Topology: scenario.TopologySpec{Model: scenario.TopoRandomAS, Nodes: 10},
		Workload: scenario.WorkloadSpec{Model: scenario.WorkWeb, Objects: 8, Requests: 12000,
			HorizonMillis: (8 * time.Hour).Milliseconds(), Seed: 1},
		DeltaMillis: time.Hour.Milliseconds(),
		QoS:         []float64{0.9, 0.95, 0.99},
	}
	res, err := scenario.CompileWith(spec, scenario.CompileOptions{Streaming: scenario.StreamOff})
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(JobRequest{Topology: res.System.Topo, Trace: res.System.Trace,
		DeltaMillis: spec.DeltaMillis, QoS: spec.QoS})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkExplicitJobDecode decodes an explicit-system job body as the
// POST /jobs handler does.
func BenchmarkExplicitJobDecode(b *testing.B) {
	body := explicitBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeJobRequest(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplicitJobKey validates a decoded explicit-system request and
// computes its content key, the rest of a cache hit's work.
func BenchmarkExplicitJobKey(b *testing.B) {
	req, err := decodeJobRequest(bytes.NewReader(explicitBody(b)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := compile(req); err != nil {
			b.Fatal(err)
		}
	}
}
