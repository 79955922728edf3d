package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"wideplace/internal/xrand"
)

func TestTraceJSONRoundTrip(t *testing.T) {
	orig, err := GenerateWeb(WebOptions{Nodes: 5, Objects: 20, Requests: 500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Accesses {
		orig.Accesses[i].Write = i%10 == 0
	}
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes != orig.NumNodes || got.NumObjects != orig.NumObjects {
		t.Fatalf("shape mismatch")
	}
	if len(got.Accesses) != len(orig.Accesses) {
		t.Fatalf("access count %d, want %d", len(got.Accesses), len(orig.Accesses))
	}
	if s := Describe(got); s.Writes != 50 || s.Reads != 450 {
		t.Fatalf("Describe counts %d writes and %d reads, want 50 and 450", s.Writes, s.Reads)
	}
	for i := range got.Accesses {
		a, b := got.Accesses[i], orig.Accesses[i]
		if a.Node != b.Node || a.Object != b.Object || a.Write != b.Write {
			t.Fatalf("access %d mismatch: %+v vs %+v", i, a, b)
		}
		// Times survive at millisecond resolution.
		if d := a.At - b.At; d > 1e6 || d < -1e6 {
			t.Fatalf("access %d time drift: %v vs %v", i, a.At, b.At)
		}
	}
}

func TestTraceJSONRejectsInvalid(t *testing.T) {
	cases := []string{
		`{"nodes":1,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":5000,"node":0,"object":0}]}`, // beyond duration
		`{"nodes":1,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":0,"node":4,"object":0}]}`,    // bad node
		`{"nodes":0,"objects":1,"durationMillis":1000,"accesses":[]}`,                                      // no nodes
		`{broken`, // malformed
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("accepted invalid trace %s", c)
		}
	}
}

// TestTraceJSONRejectsInvalidInput is the hardening table: a trace file
// or request with impossible values must fail the decode with an error,
// never panic downstream consumers.
func TestTraceJSONRejectsInvalidInput(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"no nodes", `{"nodes":0,"objects":1,"durationMillis":1000,"accesses":[]}`},
		{"empty object set", `{"nodes":1,"objects":0,"durationMillis":1000,"accesses":[]}`},
		{"negative objects", `{"nodes":1,"objects":-3,"durationMillis":1000,"accesses":[]}`},
		{"zero duration", `{"nodes":1,"objects":1,"durationMillis":0,"accesses":[]}`},
		{"negative duration", `{"nodes":1,"objects":1,"durationMillis":-1000,"accesses":[]}`},
		{"negative access time", `{"nodes":1,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":-5,"node":0,"object":0}]}`},
		{"access beyond duration", `{"nodes":1,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":5000,"node":0,"object":0}]}`},
		{"accesses out of order", `{"nodes":1,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":500,"node":0,"object":0},{"atMillis":100,"node":0,"object":0}]}`},
		{"node out of range", `{"nodes":1,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":0,"node":4,"object":0}]}`},
		{"negative node", `{"nodes":1,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":0,"node":-1,"object":0}]}`},
		{"object out of range", `{"nodes":1,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":0,"node":0,"object":9}]}`},
		{"malformed JSON", `{broken`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got, err := Read(strings.NewReader(c.in)); err == nil {
				t.Errorf("accepted %s as %+v", c.in, got)
			}
		})
	}
}

// reflectTraceJSON is the reflection encoder MarshalJSON replaced, kept as
// the reference for its bytes.
func reflectTraceJSON(t *Trace) ([]byte, error) {
	out := traceJSON{
		Nodes:          t.NumNodes,
		Objects:        t.NumObjects,
		DurationMillis: t.Duration.Milliseconds(),
		Accesses:       make([]accessJSON, len(t.Accesses)),
	}
	for i, a := range t.Accesses {
		out.Accesses[i] = accessJSON{
			AtMillis: a.At.Milliseconds(),
			Node:     a.Node,
			Object:   a.Object,
			Write:    a.Write,
		}
	}
	return json.Marshal(out)
}

// randomTraces returns traces the encoder must write as the reflection
// encoder did: nil and empty access lists, writes, and times, nodes and
// objects across their ranges, sign included. The traces need not be
// valid; the encoder writes whatever it is given.
func randomTraces() []*Trace {
	rng := xrand.New(26)
	extremes := []int64{0, 1, -1, 9, 10, 999_999_999_999_999_999, -999_999_999_999_999_999}
	value := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return extremes[rng.Intn(len(extremes))]
		case 1:
			return int64(rng.Intn(1000))
		default:
			return int64(rng.Uint64()>>5) - 1<<58
		}
	}
	duration := func() time.Duration {
		if rng.Intn(4) == 0 {
			return []time.Duration{math.MaxInt64, math.MinInt64, 0, 999 * time.Microsecond}[rng.Intn(4)]
		}
		return time.Duration(rng.Uint64())
	}
	traces := []*Trace{
		{NumNodes: 1, NumObjects: 1, Duration: time.Hour},
		{NumNodes: 1, NumObjects: 1, Duration: time.Hour, Accesses: []Access{}},
	}
	for len(traces) < 200 {
		tr := &Trace{NumNodes: int(value()), NumObjects: int(value()), Duration: duration()}
		for n := rng.Intn(40); len(tr.Accesses) < n; {
			tr.Accesses = append(tr.Accesses, Access{
				At: duration(), Node: int(value()), Object: int(value()), Write: rng.Intn(3) == 0,
			})
		}
		traces = append(traces, tr)
	}
	return traces
}

// TestTraceMarshalMatchesReflection holds the hand-written encoder to the
// reflection encoder byte for byte, and the canonical reader to every
// encoder output, indented too, read into an access list of exact size: a
// change to either that sent encoded traces down the encoding/json path
// would fail here, not just run slower.
func TestTraceMarshalMatchesReflection(t *testing.T) {
	for i, tr := range randomTraces() {
		want, err := reflectTraceJSON(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trace %d encodes as\n%s\nwant\n%s", i, got, want)
		}
		var line bytes.Buffer
		if err := tr.Write(&line); err != nil {
			t.Fatal(err)
		}
		if line.String() != string(want)+"\n" {
			t.Fatalf("trace %d writes as\n%s\nwant\n%s", i, line.Bytes(), want)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, got, "", "\t"); err != nil {
			t.Fatal(err)
		}
		for _, enc := range [][]byte{got, line.Bytes(), indented.Bytes()} {
			r := canonicalReader{data: enc}
			h, accs, ok := r.trace()
			if !ok {
				t.Fatalf("canonical reader turns down encoder output\n%s", enc)
			}
			if h.Nodes != tr.NumNodes || h.Objects != tr.NumObjects ||
				h.DurationMillis != tr.Duration.Milliseconds() || len(accs) != len(tr.Accesses) {
				t.Fatalf("trace %d reads back as %+v with %d accesses", i, h, len(accs))
			}
			if cap(accs) != len(accs) {
				t.Fatalf("trace %d reads %d accesses into a list of capacity %d", i, len(accs), cap(accs))
			}
			for k, a := range tr.Accesses {
				a.At = a.At / time.Millisecond * time.Millisecond
				if accs[k] != a {
					t.Fatalf("trace %d access %d reads back as %+v, want %+v", i, k, accs[k], a)
				}
			}
		}
	}
}
