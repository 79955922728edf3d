package dist

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"wideplace/internal/scenario"
	"wideplace/internal/workload"
)

// wholeShard decodes a POST /solve body with encoding/json over the whole
// body, the decode decodeShard must match value for value and error for
// error.
func wholeShard(body string) (*ShardJob, error) {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	var shard ShardJob
	if err := dec.Decode(&shard); err != nil {
		return nil, err
	}
	return &shard, nil
}

// FuzzShardRequest feeds arbitrary bytes to the POST /solve decoder, the
// network's way into the topology and trace readers. It decodes as
// decodeShard does, through workload.DecodeBody with shardTrace, and
// holds that to encoding/json over the whole body: both give the same
// shard, or both fail with the same error, and trace bytes reported as
// canonical are Trace.MarshalJSON's. Decoding must never panic, and a small statement
// it accepts is built and fingerprinted as a remote worker does before
// solving: neither may panic, and a built system's counts must have its
// topology's node count.
func FuzzShardRequest(f *testing.F) {
	const (
		topo  = `{"nodes":2,"origin":0,"links":[{"a":0,"b":1,"latencyMillis":5}]}`
		trace = `{"nodes":2,"objects":1,"durationMillis":7200000,"accesses":[{"atMillis":0,"node":1,"object":0},{"atMillis":60000,"node":1,"object":0,"write":true}]}`
		tail  = `"deltaMillis":3600000,"tlat":150,"qos":[0.9,0.95],"class":"storage-constrained","fingerprint":"sha256:f"`
	)
	var indented bytes.Buffer
	json.Indent(&indented, []byte(trace), "", "  ") //nolint:errcheck // a valid literal
	f.Add(`{"scenario":{"name":"wire","seed":3,"topology":{"model":"transit-stub","nodes":6},"workload":{"model":"web","objects":4,"requests":100,"horizonMillis":7200000},"qos":[0.9]},"class":"caching","fingerprint":"sha256:f"}`)
	f.Add(`{"topology":` + topo + `,"trace":` + trace + `,` + tail + `}`)
	f.Add(`{"topology":{"nodes":2,"origin":0,"links":[]},"trace":{"nodes":2,"objects":1,"durationMillis":7200000,"accesses":[{"atMillis":0,"node":1`)
	// The trace first and last, case variants of its key before and after
	// it, whitespace, bytes after the object, and non-canonical traces.
	f.Add(`{"trace":` + trace + `,"topology":` + topo + `,` + tail + `}`)
	f.Add(`{"topology":` + topo + `,` + tail + `,"trace":` + trace + `}`)
	f.Add(`{"Trace":` + trace + `,"topology":` + topo + `,"trace":` + trace + `,` + tail + `}`)
	f.Add(`{"topology":` + topo + `,"trace":` + trace + `,"TRACE":null,` + tail + `}`)
	f.Add(`{"class":"trace","scenario":{"name":"trace","trace":` + trace + `},"fingerprint":"sha256:f"}`)
	f.Add(" {\n\"topology\":" + topo + " ,\t\"trace\" : " + trace + ",\r\n" + tail + " } trailing")
	f.Add(`{"topology":` + topo + `,"trace":` + strings.Replace(trace, `"atMillis":0`, `"atMillis":-0`, 1) + `,` + tail + `}`)
	f.Add(`{"topology":` + topo + `,"trace":` + strings.Replace(trace, `"object":0}`, `"object":0,"write":false}`, 1) + `,` + tail + `}`)
	f.Add(`{"topology":` + topo + `,"trace":` + indented.String() + `,` + tail + `}`)
	f.Fuzz(func(t *testing.T, body string) {
		shard, exact, err := workload.DecodeBody(strings.NewReader(body), int64(len(body)), shardTrace)
		whole, wholeErr := wholeShard(body)
		if err != nil || wholeErr != nil {
			if err == nil || wholeErr == nil || err.Error() != wholeErr.Error() {
				t.Fatalf("decode fails with %v, the whole-body decode with %v: %q", err, wholeErr, body)
			}
			return
		}
		if !reflect.DeepEqual(shard, whole) {
			t.Fatalf("decode reads %+v, the whole-body decode %+v: %q", shard, whole, body)
		}
		if exact != nil {
			if want, _ := shard.Trace.MarshalJSON(); !bytes.Equal(exact, want) {
				t.Fatalf("reported canonical trace bytes\n%s\nare not\n%s", exact, want)
			}
		}
		if !smallStatement(&shard.Statement) {
			return
		}
		sys, err := shard.Build()
		if err != nil {
			return // a statement the worker cannot build is a failed shard
		}
		if sys.Counts.Nodes != sys.Topo.N {
			t.Fatalf("built system has %d count nodes on a %d-node topology", sys.Counts.Nodes, sys.Topo.N)
		}
		if fp, err := scenario.Fingerprint(sys); err != nil || fp == "" {
			t.Fatalf("built system has no fingerprint: %q, %v", fp, err)
		}
	})
}

// smallStatement reports whether a decoded statement is small enough to
// build under fuzzing: FuzzScenarioJSON's caps of 8 nodes, 8 objects, 200
// requests and 4 QoS points, and at most 64 intervals, since the counts
// are allocated whole. A scenario must size its objects, requests and
// horizon itself, as model defaults are larger. A statement Build rejects
// before allocating anything counts as small.
func smallStatement(st *Statement) bool {
	small := func(nodes, objects, requests, qos int, horizon, delta time.Duration) bool {
		if nodes > 8 || objects > 8 || requests > 200 || qos > 4 {
			return false
		}
		ni, err := workload.Intervals(nodes, objects, horizon, delta)
		return err != nil || ni <= 64
	}
	switch s := st.Scenario; {
	case s != nil:
		if s.Validate() != nil {
			return true
		}
		w := s.Workload
		return w.Objects > 0 && w.Requests > 0 && w.HorizonMillis > 0 &&
			small(s.Nodes(), w.Objects, w.Requests, len(s.QoS), time.Duration(w.HorizonMillis)*time.Millisecond, s.Delta())
	case st.Topology != nil && st.Trace != nil:
		return small(st.Topology.N, st.Trace.NumObjects, len(st.Trace.Accesses), len(st.QoS),
			st.Trace.Duration, time.Duration(st.DeltaMillis)*time.Millisecond)
	default:
		return true
	}
}
