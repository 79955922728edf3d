package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// traceJSON is the on-disk form of a Trace. Access times are stored in
// milliseconds since the trace start (encoding/json has no native
// time.Duration support; the unit lives in the field name). MarshalJSON
// writes this form by hand, and canonicalReader reads it; encoding/json
// decodes into it every input that reader turns down.
type traceJSON struct {
	Nodes          int          `json:"nodes"`
	Objects        int          `json:"objects"`
	DurationMillis int64        `json:"durationMillis"`
	Accesses       []accessJSON `json:"accesses"`
}

type accessJSON struct {
	AtMillis int64 `json:"atMillis"`
	Node     int   `json:"node"`
	Object   int   `json:"object"`
	Write    bool  `json:"write,omitempty"`
}

// MarshalJSON implements json.Marshaler. It writes the canonical form, the
// bytes encoding/json writes for traceJSON: compact, keys in field order,
// "write" only on writes and an empty access list as [].
func (t *Trace) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 64+48*len(t.Accesses))
	b = append(b, `{"nodes":`...)
	b = strconv.AppendInt(b, int64(t.NumNodes), 10)
	b = append(b, `,"objects":`...)
	b = strconv.AppendInt(b, int64(t.NumObjects), 10)
	b = append(b, `,"durationMillis":`...)
	b = strconv.AppendInt(b, t.Duration.Milliseconds(), 10)
	b = append(b, `,"accesses":[`...)
	for i, a := range t.Accesses {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"atMillis":`...)
		b = strconv.AppendInt(b, a.At.Milliseconds(), 10)
		b = append(b, `,"node":`...)
		b = strconv.AppendInt(b, int64(a.Node), 10)
		b = append(b, `,"object":`...)
		b = strconv.AppendInt(b, int64(a.Object), 10)
		if a.Write {
			b = append(b, `,"write":true`...)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// UnmarshalJSON implements json.Unmarshaler, revalidating the trace. Input
// in the canonical form is read in one pass; any other spelling is decoded
// by encoding/json, so it decodes, and fails, exactly as it always has. The
// dimension checks run before encoding/json's access array is converted so
// a bad header (empty node or object set, non-positive duration) fails fast
// and can never panic a downstream consumer.
func (t *Trace) UnmarshalJSON(data []byte) error {
	r := canonicalReader{data: data}
	in, accs, ok := r.trace()
	if !ok {
		// The reader left in zero: encoding/json starts from scratch.
		if err := json.Unmarshal(data, &in); err != nil {
			return fmt.Errorf("workload: decode: %w", err)
		}
	}
	if in.Nodes <= 0 || in.Objects <= 0 {
		return fmt.Errorf("workload: trace needs at least one node and object (nodes=%d objects=%d)", in.Nodes, in.Objects)
	}
	if in.DurationMillis <= 0 {
		return fmt.Errorf("workload: trace duration %dms must be positive", in.DurationMillis)
	}
	if !ok {
		accs = make([]Access, len(in.Accesses))
		for i, a := range in.Accesses {
			accs[i] = Access{
				At:     time.Duration(a.AtMillis) * time.Millisecond,
				Node:   a.Node,
				Object: a.Object,
				Write:  a.Write,
			}
		}
	}
	out := Trace{
		NumNodes:   in.Nodes,
		NumObjects: in.Objects,
		Duration:   time.Duration(in.DurationMillis) * time.Millisecond,
		Accesses:   accs,
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*t = out
	return nil
}

// canonicalReader parses a trace spelled as MarshalJSON writes it, up to
// key order and JSON whitespace, straight into its fields in one pass. It
// accepts only: the four exact key names at each level, each at most once
// per object; integers -?(0|[1-9][0-9]*) of at most 18 digits, which
// cannot overflow an int64, that also fit their field; and write as true
// or false. It turns down everything else (escapes, case variants,
// unknown or duplicate keys, null, fractions, exponents, longer numbers)
// without judging it, and the caller hands that input to encoding/json.
type canonicalReader struct {
	data []byte
	pos  int
}

// trace reads a whole trace document. It reports false, with a zero
// header, when the input leaves the canonical grammar. A missing key reads
// as its zero value, as encoding/json reads it, and the access list is
// never nil.
func (r *canonicalReader) trace() (traceJSON, []Access, bool) {
	var h traceJSON
	accs := []Access{}
	ok := r.object(func(key []byte) (int, bool) {
		switch string(key) {
		case "nodes":
			return 0, r.readInt(&h.Nodes)
		case "objects":
			return 1, r.readInt(&h.Objects)
		case "durationMillis":
			return 2, r.readInt64(&h.DurationMillis)
		case "accesses":
			return 3, r.accesses(&accs)
		}
		return 0, false
	})
	if !ok || r.skipSpace() != len(r.data) {
		return traceJSON{}, nil, false
	}
	return h, accs, true
}

// minAccessBytes is the length of the shortest access MarshalJSON writes,
// {"atMillis":0,"node":0,"object":0}, with its comma.
const minAccessBytes = 35

// accesses reads the access array into *accs. The array is sized once, to
// the count of '{' in the rest of the input: an input the reader accepts
// has exactly one per access there, so an accepted trace holds no spare
// capacity. The count is capped at the accesses the rest could hold, so an
// input of braces the reader turns down allocates less than its own length.
func (r *canonicalReader) accesses(accs *[]Access) bool {
	if !r.consume('[') {
		return false
	}
	if r.consume(']') {
		return true
	}
	rest := r.data[r.pos:]
	*accs = make([]Access, 0, min(bytes.Count(rest, []byte{'{'}), len(rest)/minAccessBytes))
	for {
		var (
			a  Access
			ms int64
		)
		ok := r.object(func(key []byte) (int, bool) {
			switch string(key) {
			case "atMillis":
				return 0, r.readInt64(&ms)
			case "node":
				return 1, r.readInt(&a.Node)
			case "object":
				return 2, r.readInt(&a.Object)
			case "write":
				return 3, r.readBool(&a.Write)
			}
			return 0, false
		})
		if !ok {
			return false
		}
		a.At = time.Duration(ms) * time.Millisecond
		*accs = append(*accs, a)
		if r.consume(']') {
			return true
		}
		if !r.consume(',') {
			return false
		}
	}
}

// object reads one object. member reads the value of each key and
// reports the key's index among its object's four names, or false for an
// unknown key or a bad value; a repeated index turns the object down.
func (r *canonicalReader) object(member func(key []byte) (int, bool)) bool {
	if !r.consume('{') {
		return false
	}
	if r.consume('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := r.key()
		if !ok || !r.consume(':') {
			return false
		}
		i, ok := member(key)
		if !ok || seen&(1<<i) != 0 {
			return false
		}
		seen |= 1 << i
		if r.consume('}') {
			return true
		}
		if !r.consume(',') {
			return false
		}
	}
}

// key reads a quoted key. A key holding an escape never matches a name,
// so the raw bytes up to the next quote are all a caller needs to compare.
func (r *canonicalReader) key() ([]byte, bool) {
	if !r.consume('"') {
		return nil, false
	}
	end := bytes.IndexByte(r.data[r.pos:], '"')
	if end < 0 {
		return nil, false
	}
	key := r.data[r.pos : r.pos+end]
	r.pos += end + 1
	return key, true
}

// readInt64 reads an integer of at most 18 digits into *v.
func (r *canonicalReader) readInt64(v *int64) bool {
	p := r.skipSpace()
	neg := p < len(r.data) && r.data[p] == '-'
	if neg {
		p++
	}
	start := p
	var n int64
	for ; p < len(r.data) && p-start <= 18; p++ {
		d := r.data[p] - '0'
		if d > 9 {
			break
		}
		n = n*10 + int64(d)
	}
	if digits := p - start; digits == 0 || digits > 18 || digits > 1 && r.data[start] == '0' {
		return false
	}
	if neg {
		n = -n
	}
	r.pos, *v = p, n
	return true
}

// readInt reads an integer into an int field, which is narrower than
// int64 on 32-bit platforms.
func (r *canonicalReader) readInt(v *int) bool {
	var n int64
	if !r.readInt64(&n) || int64(int(n)) != n {
		return false
	}
	*v = int(n)
	return true
}

// readBool reads true or false into *v.
func (r *canonicalReader) readBool(v *bool) bool {
	rest := r.data[r.skipSpace():]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		r.pos, *v = r.pos+len("true"), true
	case bytes.HasPrefix(rest, []byte("false")):
		r.pos, *v = r.pos+len("false"), false
	default:
		return false
	}
	return true
}

// consume skips whitespace and then c, reporting whether c was there.
func (r *canonicalReader) consume(c byte) bool {
	p := r.skipSpace()
	if p < len(r.data) && r.data[p] == c {
		r.pos = p + 1
		return true
	}
	return false
}

// skipSpace moves past JSON whitespace and returns the new position.
func (r *canonicalReader) skipSpace() int {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return r.pos
		}
	}
	return r.pos
}

// Write serializes the trace as one line of canonical JSON.
func (t *Trace) Write(w io.Writer) error {
	b, _ := t.MarshalJSON() // the hand-written encoder cannot fail
	_, err := w.Write(append(b, '\n'))
	return err
}

// Read deserializes and validates a trace from JSON.
func Read(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, err
	}
	return &t, nil
}
