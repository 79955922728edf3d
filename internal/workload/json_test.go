package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
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
// encoder output, indented too, read into an access list of exact size
// and marked loose exactly when whitespace was added: a change to either
// that sent encoded traces down the encoding/json path, or their bytes
// past the job key's exact-bytes hash, would fail here, not just run
// slower.
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
		for e, enc := range [][]byte{got, line.Bytes(), indented.Bytes()} {
			r := canonicalReader{data: enc}
			h, accs, ok := r.trace()
			if !ok {
				t.Fatalf("canonical reader turns down encoder output\n%s", enc)
			}
			if r.loose != (e > 0) {
				t.Fatalf("trace %d: canonical reader marks loose=%v on\n%s", i, r.loose, enc)
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

// TestTraceJSONRejectsOutOfRangeMillis holds both readers to the range of
// a time.Duration: a millisecond count whose magnitude exceeds
// math.MaxInt64/1e6 would wrap on conversion, so it fails the decode with
// an error naming its field, in canonical and non-canonical spellings
// alike, while the largest count that converts is read exactly.
func TestTraceJSONRejectsOutOfRangeMillis(t *testing.T) {
	for _, c := range []struct{ in, field string }{
		{`{"nodes":2,"objects":1,"durationMillis":999999999999999999,"accesses":[]}`, "durationMillis"},
		{`{"nodes":2,"objects":1,"durationMillis":9223372036855,"accesses":[]}`, "durationMillis"},
		{`{"nodes":2,"objects":1,"durationMillis":9223372036854775807,"accesses":[]}`, "durationMillis"},
		{`{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":18446744073710,"node":1,"object":0}]}`, "atMillis"},
		{`{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":-18446744073710,"node":1,"object":0}]}`, "atMillis"},
		{`{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[{ "node":1, "object":0, "atMillis":999999999999999999 }]}`, "atMillis"},
		{`{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":9223372036855000,"node":1,"object":0}]}`, "atMillis"},
	} {
		tr, err := Read(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("accepted %s as a trace over %v", c.in, tr.Duration)
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %q does not name %s", c.in, err, c.field)
		}
	}
	tr, err := Read(strings.NewReader(`{"nodes":2,"objects":1,"durationMillis":9223372036854,"accesses":[{"atMillis":9223372036853,"node":1,"object":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(maxMillis) * time.Millisecond; tr.Duration != want || tr.Accesses[0].At != want-time.Millisecond {
		t.Fatalf("read duration %v and access at %v, want %v and a millisecond less", tr.Duration, tr.Accesses[0].At, want)
	}
}

// bodyRequest is a request body with a top-level trace member, shaped as
// the job and shard bodies are.
type bodyRequest struct {
	Name  string   `json:"name,omitempty"`
	Trace *Trace   `json:"trace,omitempty"`
	Tags  []string `json:"tags,omitempty"`
	Inner *struct {
		Trace *Trace `json:"trace,omitempty"`
	} `json:"inner,omitempty"`
}

func bodyTrace(b *bodyRequest) **Trace { return &b.Trace }

// wholeBody decodes a body with encoding/json over all of it, the decode
// DecodeBody must match value for value and error for error.
func wholeBody(r io.Reader) (*bodyRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var v bodyRequest
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return &v, nil
}

// sameDecode fails t unless DecodeBody and the whole-body decode agree on
// body, and reports DecodeBody's canonical bytes.
func sameDecode(t *testing.T, body string, size int64) []byte {
	t.Helper()
	got, exact, err := DecodeBody(strings.NewReader(body), size, bodyTrace)
	want, wantErr := wholeBody(strings.NewReader(body))
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("DecodeBody fails with %v, the whole-body decode with %v: %q", err, wantErr, body)
		}
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeBody reads %+v, the whole-body decode %+v: %q", got, want, body)
	}
	if exact != nil {
		if canonical, _ := got.Trace.MarshalJSON(); !bytes.Equal(exact, canonical) {
			t.Fatalf("DecodeBody reports\n%s\nas canonical, want\n%s", exact, canonical)
		}
	}
	return exact
}

// TestDecodeBodyCutsTraceInPlace pins which bodies cutTrace reads in
// place, and whether it reports their trace bytes as canonical, and holds
// DecodeBody to the whole-body decode on every one of them.
func TestDecodeBodyCutsTraceInPlace(t *testing.T) {
	const tr = `{"nodes":2,"objects":1,"durationMillis":1000,"accesses":[{"atMillis":0,"node":1,"object":0},{"atMillis":7,"node":0,"object":0,"write":true}]}`
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(tr), "", "\t"); err != nil {
		t.Fatal(err)
	}
	respell := func(old, new string) string { return strings.Replace(tr, old, new, 1) }
	for _, c := range []struct {
		name, body   string
		cut, exact   bool
		decodedWhole bool // DecodeBody still falls back to encoding/json
	}{
		{"trace first", `{"trace":` + tr + `,"name":"a"}`, true, true, false},
		{"trace in the middle", `{"name":"a","trace":` + tr + `,"tags":["x"]}`, true, true, false},
		{"trace last", `{"name":"a","tags":[],"trace":` + tr + `}`, true, true, false},
		{"trace alone", `{"trace":` + tr + `}`, true, true, false},
		{"whitespace between members", " {\n \"name\" : \"a\" ,\t\"trace\" :\r\n" + tr + " }\n", true, true, false},
		{"bytes after the object", `{"trace":` + tr + `} {"name":1} ]]`, true, true, false},
		{"the word trace as a value", `{"tags":["trace","\"trace\""],"name":"trace","trace":` + tr + `}`, true, true, false},
		{"escapes in a skipped string", `{"name":"a\"}\\","trace":` + tr + `}`, true, true, false},
		{"trace nested in a member too", `{"inner":{"trace":` + tr + `},"trace":` + tr + `}`, true, true, false},
		{"indented trace", `{"trace":` + indented.String() + `}`, true, false, false},
		{"header keys reordered", `{"trace":` + respell(`"nodes":2,"objects":1`, `"objects":1,"nodes":2`) + `}`, true, false, false},
		{"header key missing", `{"trace":{"nodes":2,"objects":1,"durationMillis":1000}}`, true, false, false},
		{"access keys reordered", `{"trace":` + respell(`"atMillis":0,"node":1`, `"node":1,"atMillis":0`) + `}`, true, false, false},
		{"minus zero", `{"trace":` + respell(`"atMillis":0`, `"atMillis":-0`) + `}`, true, false, false},
		{"write false", `{"trace":` + respell(`"object":0}`, `"object":0,"write":false}`) + `}`, true, false, false},
		{"unknown member", `{"zap":1,"trace":` + tr + `}`, true, true, true},
		{"Trace after it", `{"trace":` + tr + `,"Trace":` + tr + `}`, false, false, true},
		{"TRACE before it", `{"TRACE":` + tr + `,"trace":` + tr + `}`, false, false, true},
		{"Trace null after it", `{"trace":` + tr + `,"Trace":null}`, false, false, true},
		{"trace twice", `{"trace":` + tr + `,"trace":` + tr + `}`, false, false, true},
		{"escaped key", `{"tr\u0061ce":` + tr + `}`, false, false, true},
		{"escape in another key", `{"n\u0061me":"a","trace":` + tr + `}`, false, false, true},
		{"nested trace only", `{"inner":{"trace":` + tr + `}}`, false, false, true},
		{"null trace", `{"trace":null}`, false, false, true},
		{"invalid trace", `{"trace":` + respell(`"node":1`, `"node":2`) + `}`, false, false, true},
		{"not an object", `[` + tr + `]`, false, false, true},
		{"truncated", `{"name":"a","trace":` + tr, false, false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			rest, got, exact := cutTrace([]byte(c.body))
			if (got != nil) != c.cut || (exact != nil) != c.exact {
				t.Fatalf("cut %v with canonical bytes %v, want %v and %v", got != nil, exact != nil, c.cut, c.exact)
			}
			if got != nil && (len(rest) >= len(c.body) || bytes.Count(rest, []byte("null")) != strings.Count(c.body, "null")+1) {
				t.Fatalf("rest %q is not the body with its trace replaced by null", rest)
			}
			for _, size := range []int64{int64(len(c.body)), -1, 0, 1 << 40} {
				if exact := sameDecode(t, c.body, size); (exact != nil) != (c.exact && !c.decodedWhole) {
					t.Fatalf("declared size %d: DecodeBody reports canonical bytes %v", size, exact != nil)
				}
			}
		})
	}
}

// TestDecodeBodyReadErrors holds DecodeBody to the whole-body decode when
// the body fails to read, at a request body's size cap too: the decoder
// meets the error after every byte read before it, so a value complete
// before the error still decodes and any other fails with that error.
func TestDecodeBodyReadErrors(t *testing.T) {
	const tr = `{"nodes":1,"objects":1,"durationMillis":1000,"accesses":[]}`
	errCut := errors.New("connection reset")
	for _, body := range []string{
		`{"trace":` + tr + `}`,
		`{"trace":` + tr + `}` + strings.Repeat(" ", 100),
		`{"trace":` + tr + `}` + strings.Repeat("}", 100),
		`{"trace":` + tr,
		`{"name":"a","tags":["b"`,
		``,
	} {
		for _, read := range []func() io.Reader{
			func() io.Reader { return http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), 80) },
			func() io.Reader { return http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), 40) },
			func() io.Reader { return io.MultiReader(strings.NewReader(body), iotest.ErrReader(errCut)) },
			func() io.Reader { return iotest.DataErrReader(strings.NewReader(body)) },
			func() io.Reader { return iotest.OneByteReader(strings.NewReader(body)) },
			func() io.Reader { return iotest.TimeoutReader(strings.NewReader(body)) },
		} {
			got, _, err := DecodeBody(read(), int64(len(body)), bodyTrace)
			want, wantErr := wholeBody(read())
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%q: DecodeBody fails with %v, the whole-body decode with %v", body, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: DecodeBody reads %+v, the whole-body decode %+v", body, got, want)
			}
		}
	}
}

// TestReadBodySizing checks that the declared length sizes the buffer
// only up to maxBodyPrealloc: a body of that length or less is read into
// one buffer, and a declared length the body never reaches allocates no
// more than the cap.
func TestReadBodySizing(t *testing.T) {
	body := strings.Repeat("x", 3000)
	for _, c := range []struct {
		size    int64
		wantCap int
	}{
		{3000, 3001},
		{-1, 0},
		{1 << 40, maxBodyPrealloc + 1},
	} {
		b, err := readBody(strings.NewReader(body), c.size)
		if err != nil || string(b) != body {
			t.Fatalf("declared %d: read %d bytes, %v", c.size, len(b), err)
		}
		if c.wantCap > 0 && cap(b) != c.wantCap {
			t.Errorf("declared %d: buffer capacity %d, want %d", c.size, cap(b), c.wantCap)
		}
	}
}
