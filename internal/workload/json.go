package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
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

// maxMillis is the largest magnitude of a millisecond count that converts
// to a time.Duration without overflow.
const maxMillis = math.MaxInt64 / int64(time.Millisecond)

// UnmarshalJSON implements json.Unmarshaler, revalidating the trace. Input
// in the canonical form is read in one pass; any other spelling is decoded
// by encoding/json, so it decodes, and fails, exactly as it always has.
func (t *Trace) UnmarshalJSON(data []byte) error {
	r := canonicalReader{data: data}
	h, accs, ok := r.trace()
	if !ok {
		// encoding/json starts from scratch.
		h, accs = traceJSON{}, nil
		if err := json.Unmarshal(data, &h); err != nil {
			return fmt.Errorf("workload: decode: %w", err)
		}
	}
	out, err := h.build(accs)
	if err != nil {
		return err
	}
	*t = out
	return nil
}

// build checks a decoded header and returns its validated trace. accs is
// the canonical reader's access list; nil means encoding/json decoded the
// trace, and build converts h.Accesses. The dimension and range checks run
// before that conversion, so a bad header (empty node or object set,
// duration out of range) fails fast and can never panic a downstream
// consumer, and no millisecond count wraps on its way to a time.Duration.
func (h *traceJSON) build(accs []Access) (Trace, error) {
	if h.Nodes <= 0 || h.Objects <= 0 {
		return Trace{}, fmt.Errorf("workload: trace needs at least one node and object (nodes=%d objects=%d)", h.Nodes, h.Objects)
	}
	if h.DurationMillis <= 0 {
		return Trace{}, fmt.Errorf("workload: trace duration %dms must be positive", h.DurationMillis)
	}
	if h.DurationMillis > maxMillis {
		return Trace{}, fmt.Errorf("workload: trace durationMillis %d exceeds %d", h.DurationMillis, maxMillis)
	}
	if accs == nil {
		accs = make([]Access, len(h.Accesses))
		for i, a := range h.Accesses {
			if a.AtMillis > maxMillis || a.AtMillis < -maxMillis {
				return Trace{}, fmt.Errorf("workload: access %d atMillis %d is beyond ±%d", i, a.AtMillis, maxMillis)
			}
			accs[i] = Access{
				At:     time.Duration(a.AtMillis) * time.Millisecond,
				Node:   a.Node,
				Object: a.Object,
				Write:  a.Write,
			}
		}
	}
	out := Trace{
		NumNodes:   h.Nodes,
		NumObjects: h.Objects,
		Duration:   time.Duration(h.DurationMillis) * time.Millisecond,
		Accesses:   accs,
	}
	if err := out.Validate(); err != nil {
		return Trace{}, err
	}
	return out, nil
}

// canonicalReader parses a trace spelled as MarshalJSON writes it, up to
// key order and JSON whitespace, straight into its fields in one pass. It
// accepts only: the four exact key names at each level, each at most once
// per object; integers -?(0|[1-9][0-9]*) of at most 18 digits, which
// cannot overflow an int64, that also fit their field, with access times
// of at most maxMillis in magnitude; and write as true or false. It turns
// down everything else (escapes, case variants, unknown or duplicate
// keys, null, fractions, exponents, longer numbers) without judging it,
// and the caller hands that input to encoding/json.
type canonicalReader struct {
	data []byte
	pos  int
	// loose is set once the reader reads anything MarshalJSON does not
	// write: whitespace, header keys out of order or missing, an access
	// not spelled exactly as MarshalJSON spells one, or -0.
	loose bool
}

// trace reads a whole trace document: one trace object, then nothing but
// whitespace. It reports false, with a zero header, when the input
// leaves the canonical grammar.
func (r *canonicalReader) trace() (traceJSON, []Access, bool) {
	h, accs, ok := r.traceObject()
	if !ok || r.skipSpace() != len(r.data) {
		return traceJSON{}, nil, false
	}
	return h, accs, true
}

// traceObject reads one trace object from r.pos on and stops after its
// closing brace. A missing key reads as its zero value, as encoding/json
// reads it, and the access list is never nil.
func (r *canonicalReader) traceObject() (traceJSON, []Access, bool) {
	var h traceJSON
	accs := []Access{}
	seen, ok := r.object(func(key []byte) (int, bool) {
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
	if !ok {
		return traceJSON{}, nil, false
	}
	if seen != 1<<4-1 {
		r.loose = true
	}
	return h, accs, true
}

// minAccessBytes is the length of the shortest access MarshalJSON writes,
// {"atMillis":0,"node":0,"object":0}, with its comma.
const minAccessBytes = 35

// accesses reads the access array into *accs. The array is sized once, to
// the count of '{' up to the first ']': an input the reader accepts has
// no ']' inside its access list and exactly one '{' per access, so
// nothing after the list can inflate the count. The count is capped at
// the accesses that span could hold at the length of the shortest one
// MarshalJSON writes, so an input of braces the reader turns down
// allocates less than its own length; only a trace that omits access keys
// can outgrow the cap and end with spare capacity.
func (r *canonicalReader) accesses(accs *[]Access) bool {
	if !r.consume('[') {
		return false
	}
	if r.consume(']') {
		return true
	}
	span := r.data[r.pos:]
	end := bytes.IndexByte(span, ']')
	if end < 0 {
		return false
	}
	span = span[:end]
	*accs = make([]Access, 0, min(bytes.Count(span, []byte{'{'}), (len(span)+1)/minAccessBytes))
	for {
		var (
			a  Access
			ms int64
		)
		if !r.canonicalAccess(&a, &ms) {
			r.loose = true
			if !r.access(&a, &ms) {
				return false
			}
		}
		if ms > maxMillis || ms < -maxMillis {
			return false // encoding/json's path names the field
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

// canonicalAccess reads one access spelled exactly as MarshalJSON writes
// it: {"atMillis":N,"node":N,"object":N}, with ,"write":true before the
// brace on a write. On any other spelling it restores the reader and
// zeroes *a and *ms, and the caller reads the access as a general object.
func (r *canonicalReader) canonicalAccess(a *Access, ms *int64) bool {
	saved := *r
	if r.literal(`{"atMillis":`) && r.readInt64(ms) && r.literal(`,"node":`) && r.readInt(&a.Node) &&
		r.literal(`,"object":`) && r.readInt(&a.Object) {
		if r.literal(`}`) {
			return true
		}
		if r.literal(`,"write":true}`) {
			a.Write = true
			return true
		}
	}
	*r, *a, *ms = saved, Access{}, 0
	return false
}

// access reads one access object in any key order and spacing.
func (r *canonicalReader) access(a *Access, ms *int64) bool {
	_, ok := r.object(func(key []byte) (int, bool) {
		switch string(key) {
		case "atMillis":
			return 0, r.readInt64(ms)
		case "node":
			return 1, r.readInt(&a.Node)
		case "object":
			return 2, r.readInt(&a.Object)
		case "write":
			return 3, r.readBool(&a.Write)
		}
		return 0, false
	})
	return ok
}

// object reads one object. member reads the value of each key and
// reports the key's index among its object's four names, or false for an
// unknown key or a bad value; a repeated index turns the object down. It
// returns the set of indexes read; reading them out of index order marks
// the reader loose.
func (r *canonicalReader) object(member func(key []byte) (int, bool)) (uint8, bool) {
	if !r.consume('{') {
		return 0, false
	}
	if r.consume('}') {
		return 0, true
	}
	var seen uint8
	for {
		key, ok := r.key()
		if !ok || !r.consume(':') {
			return 0, false
		}
		i, ok := member(key)
		if !ok || seen&(1<<i) != 0 {
			return 0, false
		}
		if seen >= 1<<i {
			r.loose = true
		}
		seen |= 1 << i
		if r.consume('}') {
			return seen, true
		}
		if !r.consume(',') {
			return 0, false
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

// readInt64 reads an integer of at most 18 digits into *v. MarshalJSON
// never writes -0, so reading one marks the reader loose.
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
		r.loose = r.loose || n == 0
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

// readBool reads true or false into *v. MarshalJSON never writes false.
func (r *canonicalReader) readBool(v *bool) bool {
	r.skipSpace()
	switch {
	case r.literal("true"):
		*v = true
	case r.literal("false"):
		*v, r.loose = false, true
	default:
		return false
	}
	return true
}

// literal moves past s when the input continues with it at r.pos.
func (r *canonicalReader) literal(s string) bool {
	if len(r.data)-r.pos < len(s) || string(r.data[r.pos:r.pos+len(s)]) != s {
		return false
	}
	r.pos += len(s)
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

// skipSpace moves past JSON whitespace, marking the reader loose if there
// was any, and returns the new position.
func (r *canonicalReader) skipSpace() int {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
			r.loose = true
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

// maxBodyPrealloc caps the buffer DecodeBody sizes from a body's declared
// length. A longer body grows the buffer as it arrives, so a client that
// declares more than it sends cannot make the reader allocate much more
// than it receives. It covers the 0.5 MB bodies of an explicit trace of
// some ten thousand accesses.
const maxBodyPrealloc = 1 << 20

// DecodeBody reads a request body of declared length size (negative when
// unknown) from r and decodes it into a new T as a json.Decoder with
// DisallowUnknownFields decodes r: to the same value, or to the same
// error. field returns the *Trace field of a T that holds the body's
// top-level "trace" member.
//
// encoding/json never scans a trace DecodeBody can read in place: the
// canonical reader reads the member's value straight from the body, and
// encoding/json decodes the rest, that value replaced by null. It also
// returns the trace's bytes when they are exactly MarshalJSON's output of
// the trace read, or nil; they alias the body. A body whose trace is read
// otherwise, or that fails to read, is decoded whole by encoding/json.
func DecodeBody[T any](r io.Reader, size int64, field func(*T) **Trace) (*T, []byte, error) {
	body, err := readBody(r, size)
	var src io.Reader = bytes.NewReader(body)
	if err != nil {
		// The decoder meets the read error where it always met it: after
		// every byte read before it.
		src = io.MultiReader(src, errReader{err})
	} else if rest, tr, exact := cutTrace(body); tr != nil {
		if v, err := decodeStrict[T](bytes.NewReader(rest)); err == nil && *field(v) == nil {
			*field(v) = tr
			return v, exact, nil
		}
	}
	v, err := decodeStrict[T](src)
	return v, nil, err
}

// decodeStrict decodes one JSON value from r into a new T, rejecting
// unknown fields.
func decodeStrict[T any](r io.Reader) (*T, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	v := new(T)
	if err := dec.Decode(v); err != nil {
		return nil, err
	}
	return v, nil
}

// readBody reads r to its end, into a buffer sized from the declared
// length size up to maxBodyPrealloc, and returns what it read with the
// first error other than io.EOF.
func readBody(r io.Reader, size int64) ([]byte, error) {
	// One spare byte: at the declared length, the read that meets io.EOF
	// needs no larger buffer.
	b := make([]byte, 0, max(512, min(size, maxBodyPrealloc)+1))
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// errReader fails every read with its error.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// cutTrace walks the top-level object of body and reads the value of its
// "trace" member with the canonical reader, in place. It returns body with
// that value replaced by null, the validated trace, and the value's bytes
// when they are exactly MarshalJSON's output of the trace, or nil.
//
// It returns a nil trace unless body is an object with exactly one key
// equal to "trace", no other key encoding/json would match to the same
// field (bytes.EqualFold), no key holding an escape, and a trace value the
// reader accepts and Trace's checks pass. It judges nothing else: other
// values are skipped unread, and every byte after the object's closing
// brace is kept verbatim in the rest.
func cutTrace(body []byte) (rest []byte, tr *Trace, exact []byte) {
	r := canonicalReader{data: body}
	start, end := -1, -1
	if !r.consume('{') || r.consume('}') {
		return nil, nil, nil
	}
	for {
		key, ok := r.key()
		if !ok || bytes.IndexByte(key, '\\') >= 0 || !r.consume(':') {
			return nil, nil, nil
		}
		switch {
		case string(key) == "trace" && start < 0:
			start = r.skipSpace()
			r.loose = false
			h, accs, ok := r.traceObject()
			if !ok {
				return nil, nil, nil
			}
			end = r.pos
			if !r.loose {
				exact = body[start:end]
			}
			t, err := h.build(accs)
			if err != nil {
				return nil, nil, nil
			}
			tr = &t
		case bytes.EqualFold(key, []byte("trace")):
			return nil, nil, nil
		default:
			if !r.skipValue() {
				return nil, nil, nil
			}
		}
		if r.consume('}') {
			break
		}
		if !r.consume(',') {
			return nil, nil, nil
		}
	}
	if tr == nil {
		return nil, nil, nil
	}
	rest = make([]byte, 0, len(body)-(end-start)+len("null"))
	rest = append(append(append(rest, body[:start]...), "null"...), body[end:]...)
	return rest, tr, exact
}

// skipValue moves past one JSON value. It follows only strings and
// nesting and judges nothing, so it reports false only where it finds no
// end to the value.
func (r *canonicalReader) skipValue() bool {
	p := r.skipSpace()
	for depth := 0; p < len(r.data); {
		switch r.data[p] {
		case '"':
			if p = stringEnd(r.data, p+1); p < 0 {
				return false
			}
		case '{', '[':
			depth++
			p++
		case '}', ']':
			if depth == 0 {
				return false
			}
			depth--
			p++
		default:
			if depth > 0 {
				p++
				continue
			}
			// A number or literal ends at the next delimiter.
			start := p
			for p < len(r.data) && strings.IndexByte(",}] \t\n\r", r.data[p]) < 0 {
				p++
			}
			if p == start {
				return false
			}
		}
		if depth == 0 {
			r.pos = p
			return true
		}
	}
	return false
}

// stringEnd returns the position after the quote that closes a string
// whose contents start at p, or -1 when none does.
func stringEnd(data []byte, p int) int {
	for ; p < len(data); p++ {
		switch data[p] {
		case '\\':
			p++
		case '"':
			return p + 1
		}
	}
	return -1
}
