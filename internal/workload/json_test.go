package workload

import (
	"bytes"
	"strings"
	"testing"
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
