package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fuzzBucketCells bounds the node x interval x object count cells
// FuzzTraceJSON buckets a trace into, unless one interval alone holds more.
const fuzzBucketCells = 1 << 16

// FuzzTraceJSON feeds arbitrary bytes to the trace decoder: it must
// reject bad inputs with an error, never panic, and anything it accepts
// must satisfy the validated invariants, bucket without panicking, and
// survive a Write/Read round trip unchanged. The canonical reader is held
// to encoding/json: whatever it accepts, json.Unmarshal must accept with
// the same value.
func FuzzTraceJSON(f *testing.F) {
	f.Add(`{"nodes":2,"objects":1,"durationMillis":3600000,"accesses":[{"atMillis":0,"node":1,"object":0}]}`)
	f.Add(`{"nodes":1,"objects":1,"durationMillis":1000,"accesses":[]}`)
	f.Add(`{"nodes":0,"objects":1,"durationMillis":1000}`)
	f.Add(`{"nodes":2,"objects":2,"durationMillis":1000,"accesses":[{"atMillis":2000,"node":0,"object":0}]}`)
	f.Add(`{"nodes":2,"objects":2,"durationMillis":9223372036854,"accesses":[{"atMillis":5,"node":1,"object":1,"write":true}]}`)
	// Wide shapes: one interval fits 300 x 300 cells; none fits 5000 x 5000.
	f.Add(`{"nodes":300,"objects":300,"durationMillis":3600000000,"accesses":[{"atMillis":5,"node":299,"object":299}]}`)
	f.Add(`{"nodes":5000,"objects":5000,"durationMillis":1000,"accesses":[]}`)
	// Spellings the canonical reader must read or turn down exactly as
	// encoding/json reads them: reordered keys and whitespace, duplicate
	// keys, case-folded and escaped keys, null, non-canonical numbers and
	// numbers of 18 and 19 digits.
	f.Add(" { \"accesses\" : [ {\"write\":false, \"object\":0,\n\"node\":1 ,\"atMillis\":7} ] ,\r\"durationMillis\":1000,\t\"objects\":1,\"nodes\":2 } ")
	f.Add(`{"nodes":2,"nodes":3,"objects":1,"durationMillis":1000,"accesses":[]}`)
	f.Add(`{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":0,"node":0,"node":1,"object":0}]}`)
	f.Add(`{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[],"accesses":[{"atMillis":0,"node":1,"object":0}]}`)
	f.Add(`{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[{"atMilliſ":5,"Node":1,"object":0}]}`)
	f.Add(`{"nod\u0065s":2,"objects":1,"durationMillis":1000,"accesses":[]}`)
	f.Add(`null`)
	f.Add(`{"nodes":2,"objects":1,"durationMillis":1000,"accesses":null}`)
	f.Add(`{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[null]}`)
	f.Add(`{"nodes":2,"objects":1,"durationMillis":1e3,"accesses":[]}`)
	f.Add(`{"nodes":01,"objects":1,"durationMillis":1000,"accesses":[]}`)
	f.Add(`{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":-0,"node":1,"object":0}]}`)
	f.Add(`{"nodes":2,"objects":1,"durationMillis":999999999999999999,"accesses":[]}`)
	f.Add(`{"nodes":2,"objects":1,"durationMillis":9223372036854775807,"accesses":[]}`)
	f.Add(`{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":0,"node":1000000000000000000,"object":0}]}`)
	f.Fuzz(func(t *testing.T, s string) {
		r := canonicalReader{data: []byte(s)}
		if h, accs, ok := r.trace(); ok {
			var ref traceJSON
			if err := json.Unmarshal([]byte(s), &ref); err != nil {
				t.Fatalf("canonical reader accepts what encoding/json rejects (%v): %q", err, s)
			}
			if h.Nodes != ref.Nodes || h.Objects != ref.Objects || h.DurationMillis != ref.DurationMillis ||
				len(accs) != len(ref.Accesses) {
				t.Fatalf("canonical reader reads %+v with %d accesses, encoding/json %+v: %q", h, len(accs), ref, s)
			}
			for i, a := range ref.Accesses {
				want := Access{At: time.Duration(a.AtMillis) * time.Millisecond, Node: a.Node, Object: a.Object, Write: a.Write}
				if accs[i] != want {
					t.Fatalf("canonical reader reads access %d as %+v, encoding/json as %+v: %q", i, accs[i], want, s)
				}
			}
		}
		tr, err := Read(strings.NewReader(s))
		if err != nil {
			return
		}
		// The decoder promises a validated trace.
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		// Bucketing an accepted trace must not panic, and may fail only for
		// a shape that not even one interval fits, with the MaxCells error
		// Intervals reports for it. Bucket allocates its tensors whole, so
		// the fuzzer buckets at one hour while that fits fuzzBucketCells
		// count cells, and otherwise into as many intervals as fit, from
		// one to 64: hourly intervals would cost a trace of years hundreds
		// of MB on every input.
		fit := fuzzBucketCells / tr.NumNodes / tr.NumObjects
		delta := time.Hour
		if ni, err := Intervals(tr.NumNodes, tr.NumObjects, tr.Duration, delta); err != nil || ni > fit {
			delta = (tr.Duration-1)/time.Duration(max(1, min(64, fit))) + 1
		}
		counts, err := tr.Bucket(delta)
		if err != nil {
			if _, one := Intervals(tr.NumNodes, tr.NumObjects, tr.Duration, tr.Duration); one == nil || one.Error() != err.Error() {
				t.Fatalf("accepted trace fails Bucket(%v): %v", delta, err)
			}
		} else if counts.Intervals <= 0 {
			t.Fatalf("accepted trace bucketed into %d intervals", counts.Intervals)
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted trace failed: %v", err)
		}
		if back.NumNodes != tr.NumNodes || back.NumObjects != tr.NumObjects ||
			back.Duration.Milliseconds() != tr.Duration.Milliseconds() ||
			len(back.Accesses) != len(tr.Accesses) {
			t.Fatalf("round trip changed shape: %+v -> %+v", tr, back)
		}
		for i := range tr.Accesses {
			a, b := tr.Accesses[i], back.Accesses[i]
			if a.At.Milliseconds() != b.At.Milliseconds() || a.Node != b.Node ||
				a.Object != b.Object || a.Write != b.Write {
				t.Fatalf("round trip changed access %d: %+v -> %+v", i, a, b)
			}
		}
	})
}
