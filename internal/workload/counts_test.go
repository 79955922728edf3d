package workload

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"testing"
	"time"
)

// countsPair builds the same Counts twice, once by one-pass aggregation
// over the stream and once by materialize-then-bucket. The tensor is large
// and mostly zero: 4 sites x 24 intervals x 4,000 objects for 3,000
// requests.
func countsPair(t *testing.T) (streamed, bucketed *Counts) {
	t.Helper()
	opts := WebOptions{Nodes: 4, Objects: 4000, Requests: 3000, Duration: 24 * time.Hour, Seed: 5, WriteFraction: 0.1}
	st, err := StreamWeb(opts)
	if err != nil {
		t.Fatal(err)
	}
	if streamed, err = st.Counts(time.Hour); err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateWeb(opts)
	if err != nil {
		t.Fatal(err)
	}
	if bucketed, err = tr.Bucket(time.Hour); err != nil {
		t.Fatal(err)
	}
	return streamed, bucketed
}

// sameCounts compares two Counts field by field and cell by cell. Equal
// would not do as an oracle here: it encodes both sides, so it would miss
// an encoder that drops or repeats a tensor.
func sameCounts(a, b *Counts) bool {
	return a.Nodes == b.Nodes && a.Intervals == b.Intervals && a.Objects == b.Objects && a.Delta == b.Delta &&
		reflect.DeepEqual(a.Reads, b.Reads) && reflect.DeepEqual(a.Writes, b.Writes)
}

// TestCountsNNZ: NNZ counts the non-zero cells of each tensor.
func TestCountsNNZ(t *testing.T) {
	c := &Counts{
		Reads: alloc3(2, 3, 4), Writes: alloc3(2, 3, 4),
		Nodes: 2, Intervals: 3, Objects: 4, Delta: time.Hour,
	}
	c.Reads[0][0][0], c.Reads[1][2][3], c.Reads[0][1][2] = 1, 7, 3
	c.Writes[1][0][1] = 2
	if r, w := c.NNZ(); r != 3 || w != 1 {
		t.Errorf("NNZ = (%d, %d), want (3, 1)", r, w)
	}
}

// TestCountsJSONMatchesExportedFields: streamed counts marshal to exactly
// the default encoding of the six exported fields of the bucketed counts
// of the same trace, and unmarshal back to the same cells.
func TestCountsJSONMatchesExportedFields(t *testing.T) {
	streamed, bucketed := countsPair(t)
	got, err := json.Marshal(streamed)
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := json.Marshal(struct {
		Reads     [][][]int
		Writes    [][][]int
		Nodes     int
		Intervals int
		Objects   int
		Delta     time.Duration
	}{bucketed.Reads, bucketed.Writes, bucketed.Nodes, bucketed.Intervals, bucketed.Objects, bucketed.Delta})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("JSON differs from the encoding of the six exported fields")
	}
	var back Counts
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !sameCounts(&back, bucketed) {
		t.Fatal("JSON round trip changed the counts")
	}
}

// decodeCounts reads a canonical binary Counts encoding (EncodeBinary). It
// is the test oracle that shows the encoding every streamed fingerprint
// hashes keeps every cell value.
func decodeCounts(r io.Reader) (*Counts, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < len(countsMagic)+4 {
		return nil, errors.New("workload: counts encoding truncated")
	}
	if string(data[:len(countsMagic)]) != countsMagic {
		return nil, errors.New("workload: bad counts magic")
	}
	body, sum := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(sum) {
		return nil, errors.New("workload: counts checksum mismatch")
	}
	buf := bytes.NewReader(body[len(countsMagic):])
	dims := make([]uint64, 4)
	for i := range dims {
		if dims[i], err = binary.ReadUvarint(buf); err != nil {
			return nil, fmt.Errorf("workload: counts header: %w", err)
		}
	}
	nodes, intervals, objects := int(dims[0]), int(dims[1]), int(dims[2])
	const maxDim = 1 << 30
	if nodes <= 0 || intervals <= 0 || objects <= 0 ||
		nodes > maxDim || intervals > maxDim || objects > maxDim ||
		nodes*intervals > maxDim || nodes*intervals*objects > maxDim {
		return nil, fmt.Errorf("workload: counts dimensions %dx%dx%d out of range", nodes, intervals, objects)
	}
	delta := time.Duration(dims[3])
	if delta <= 0 {
		return nil, errors.New("workload: counts delta must be positive")
	}
	reads, err := decodeTensor(buf, nodes, intervals, objects)
	if err != nil {
		return nil, err
	}
	writes, err := decodeTensor(buf, nodes, intervals, objects)
	if err != nil {
		return nil, err
	}
	if buf.Len() != 0 {
		return nil, errors.New("workload: trailing data in counts encoding")
	}
	return &Counts{
		Reads: reads, Writes: writes,
		Nodes: nodes, Intervals: intervals, Objects: objects, Delta: delta,
	}, nil
}

func decodeTensor(r *bytes.Reader, nodes, intervals, objects int) ([][][]int, error) {
	out := alloc3(nodes, intervals, objects)
	for n := 0; n < nodes; n++ {
		for i := 0; i < intervals; i++ {
			nnz, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, fmt.Errorf("workload: counts row (%d,%d): %w", n, i, err)
			}
			if nnz > uint64(objects) {
				return nil, fmt.Errorf("workload: counts row (%d,%d) claims %d cells of %d", n, i, nnz, objects)
			}
			col := 0
			for j := uint64(0); j < nnz; j++ {
				dk, err := binary.ReadUvarint(r)
				if err != nil {
					return nil, fmt.Errorf("workload: counts cell: %w", err)
				}
				v, err := binary.ReadUvarint(r)
				if err != nil {
					return nil, fmt.Errorf("workload: counts cell: %w", err)
				}
				if j > 0 && dk == 0 {
					return nil, errors.New("workload: counts columns not ascending")
				}
				if dk > uint64(objects) {
					return nil, fmt.Errorf("workload: counts column delta %d out of range", dk)
				}
				col += int(dk)
				if col >= objects {
					return nil, fmt.Errorf("workload: counts column %d out of range", col)
				}
				if v == 0 || v > math.MaxInt32 {
					return nil, fmt.Errorf("workload: counts value %d out of range", v)
				}
				out[n][i][col] = int(v)
			}
		}
	}
	return out, nil
}

// TestCountsBinaryRoundTrip: streamed and bucketed counts of one trace
// encode to the same bytes, and decodeCounts restores every cell.
func TestCountsBinaryRoundTrip(t *testing.T) {
	streamed, bucketed := countsPair(t)
	var a, b bytes.Buffer
	if err := streamed.EncodeBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := bucketed.EncodeBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("streamed and bucketed counts encode to different bytes")
	}
	back, err := decodeCounts(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !sameCounts(back, bucketed) || !sameCounts(back, streamed) {
		t.Fatal("binary round trip changed the counts")
	}
}

// TestDecodeCountsRejectsCorrupt: every corruption mode is refused, on the
// encodings of both streamed and bucketed counts.
func TestDecodeCountsRejectsCorrupt(t *testing.T) {
	streamed, bucketed := countsPair(t)
	for name, c := range map[string]*Counts{"streamed": streamed, "bucketed": bucketed} {
		var buf bytes.Buffer
		if err := c.EncodeBinary(&buf); err != nil {
			t.Fatal(err)
		}
		valid := buf.Bytes()
		if _, err := decodeCounts(bytes.NewReader(valid)); err != nil {
			t.Fatalf("%s: valid encoding refused: %v", name, err)
		}
		mutate := func(mode string, f func(b []byte) []byte) {
			b := append([]byte(nil), valid...)
			if _, err := decodeCounts(bytes.NewReader(f(b))); err == nil {
				t.Errorf("%s, %s: corrupt encoding accepted", name, mode)
			}
		}
		mutate("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
		mutate("flipped body byte", func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b })
		mutate("truncated", func(b []byte) []byte { return b[:len(b)-5] })
		mutate("empty", func(b []byte) []byte { return nil })
		mutate("appended byte", func(b []byte) []byte { return append(b, 0) })
		mutate("trailing data", func(b []byte) []byte {
			// Insert a byte before the checksum and re-sum, so only the
			// trailing-data check can object.
			body := append(b[:len(b)-4:len(b)-4], 0)
			sum := crc32.ChecksumIEEE(body)
			return binary.LittleEndian.AppendUint32(body, sum)
		})
	}
}
