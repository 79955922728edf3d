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

// sparsePair builds the same Counts twice: once CSR-backed via the
// streaming path (the tensor is large and mostly zero, so packCounts
// converts) and once dense via materialize-then-bucket.
func sparsePair(t *testing.T) (sparse, dense *Counts) {
	t.Helper()
	opts := WebOptions{Nodes: 4, Objects: 4000, Requests: 3000, Duration: 24 * time.Hour, Seed: 5, WriteFraction: 0.1}
	st, err := StreamWeb(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sparse, err = st.Counts(time.Hour); err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateWeb(opts)
	if err != nil {
		t.Fatal(err)
	}
	if dense, err = tr.Bucket(time.Hour); err != nil {
		t.Fatal(err)
	}
	if !sparse.IsSparse() {
		t.Fatal("large mostly-zero tensor not packed sparse")
	}
	if dense.IsSparse() {
		t.Fatal("Bucket output unexpectedly sparse")
	}
	return sparse, dense
}

// TestSparseAccessorsAgreeWithDense: every representation-independent
// accessor must report identical numbers for both forms.
func TestSparseAccessorsAgreeWithDense(t *testing.T) {
	sp, de := sparsePair(t)
	if sp.Nodes != de.Nodes || sp.Intervals != de.Intervals || sp.Objects != de.Objects || sp.Delta != de.Delta {
		t.Fatal("dimension mismatch")
	}
	snr, snw := sp.NNZ()
	dnr, dnw := de.NNZ()
	if snr != dnr || snw != dnw {
		t.Errorf("NNZ (%d, %d) sparse vs (%d, %d) dense", snr, snw, dnr, dnw)
	}
	for n := 0; n < sp.Nodes; n++ {
		for i := 0; i < sp.Intervals; i++ {
			for k := 0; k < sp.Objects; k++ {
				if sp.ReadCount(n, i, k) != de.Reads[n][i][k] {
					t.Fatalf("ReadCount(%d,%d,%d) = %d, want %d", n, i, k, sp.ReadCount(n, i, k), de.Reads[n][i][k])
				}
				if sp.WriteCount(n, i, k) != de.Writes[n][i][k] {
					t.Fatalf("WriteCount(%d,%d,%d) = %d, want %d", n, i, k, sp.WriteCount(n, i, k), de.Writes[n][i][k])
				}
			}
		}
	}
	spTot, deTot := sp.TotalReads(), de.TotalReads()
	for n := range spTot {
		if spTot[n] != deTot[n] {
			t.Errorf("TotalReads[%d] %d sparse vs %d dense", n, spTot[n], deTot[n])
		}
	}
	spObj, deObj := sp.ObjectReads(), de.ObjectReads()
	for k := range spObj {
		if spObj[k] != deObj[k] {
			t.Errorf("ObjectReads[%d] %d sparse vs %d dense", k, spObj[k], deObj[k])
		}
	}
	for i := 0; i < sp.Intervals; i++ {
		spIR, err := sp.IntervalReads(i)
		if err != nil {
			t.Fatal(err)
		}
		deIR, err := de.IntervalReads(i)
		if err != nil {
			t.Fatal(err)
		}
		for n := range spIR {
			for k := range spIR[n] {
				if spIR[n][k] != deIR[n][k] {
					t.Fatalf("IntervalReads(%d)[%d][%d] = %d, want %d", i, n, k, spIR[n][k], deIR[n][k])
				}
			}
		}
	}
}

// TestSparseDenseRoundTrip: Dense() must materialize the exact tensors and
// drop the CSR backing.
func TestSparseDenseRoundTrip(t *testing.T) {
	sp, de := sparsePair(t)
	if !sp.Equal(de) {
		t.Fatal("sparse and dense Counts not Equal before densify")
	}
	got := sp.Dense()
	if got != sp {
		t.Error("Dense must return the receiver")
	}
	if sp.IsSparse() {
		t.Error("still sparse after Dense")
	}
	if sp.Reads == nil || sp.Writes == nil {
		t.Fatal("Dense left tensors nil")
	}
	for n := range de.Reads {
		for i := range de.Reads[n] {
			for k := range de.Reads[n][i] {
				if sp.Reads[n][i][k] != de.Reads[n][i][k] || sp.Writes[n][i][k] != de.Writes[n][i][k] {
					t.Fatalf("densified cell (%d,%d,%d) differs", n, i, k)
				}
			}
		}
	}
	if !sp.Equal(de) {
		t.Error("Equal broken after densify")
	}
}

// TestSparseJSONCompat: a CSR-backed Counts must marshal byte-identically
// to its dense equivalent, and to the pre-sparse reflection encoding of the
// same exported fields — and round-trip through UnmarshalJSON.
func TestSparseJSONCompat(t *testing.T) {
	sp, de := sparsePair(t)
	got, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(de)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sparse JSON differs from dense JSON")
	}
	legacy, err := json.Marshal(countsJSON{
		Reads: de.Reads, Writes: de.Writes,
		Nodes: de.Nodes, Intervals: de.Intervals, Objects: de.Objects, Delta: de.Delta,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, legacy) {
		t.Fatal("JSON differs from the pre-sparse reflection encoding")
	}
	var back Counts
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(de) {
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
	return packCounts(nodes, intervals, objects, delta, reads, writes), nil
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

// TestCountsBinaryRoundTrip: EncodeBinary is representation-independent and
// decodeCounts restores the logical values exactly.
func TestCountsBinaryRoundTrip(t *testing.T) {
	sp, de := sparsePair(t)
	var a, b bytes.Buffer
	if err := sp.EncodeBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := de.EncodeBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("sparse and dense encode to different bytes")
	}
	back, err := decodeCounts(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Compare cells, not Equal: Equal encodes both sides, so it would miss
	// an encoder that drops or repeats a tensor.
	back.Dense()
	if back.Nodes != de.Nodes || back.Intervals != de.Intervals || back.Objects != de.Objects || back.Delta != de.Delta ||
		!reflect.DeepEqual(back.Reads, de.Reads) || !reflect.DeepEqual(back.Writes, de.Writes) {
		t.Fatal("binary round trip changed the counts")
	}
}

// TestDecodeCountsRejectsCorrupt: every corruption mode is refused.
func TestDecodeCountsRejectsCorrupt(t *testing.T) {
	_, de := sparsePair(t)
	var buf bytes.Buffer
	if err := de.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	mutate := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), valid...)
		if _, err := decodeCounts(bytes.NewReader(f(b))); err == nil {
			t.Errorf("%s: corrupt encoding accepted", name)
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

// TestPackCountsStaysDenseWhenSmallOrFull: tiny tensors and mostly-full
// tensors keep the dense representation.
func TestPackCountsStaysDenseWhenSmallOrFull(t *testing.T) {
	small := packCounts(2, 3, 4, time.Hour, alloc3(2, 3, 4), alloc3(2, 3, 4))
	if small.IsSparse() {
		t.Error("tiny tensor packed sparse")
	}
	// Large and saturated: with every read and write cell non-zero the
	// combined occupancy is 100%, past the 50% cutoff — stays dense.
	nodes, intervals, objects := 4, 32, 600 // 76800 cells > sparseMinCells
	reads := alloc3(nodes, intervals, objects)
	writes := alloc3(nodes, intervals, objects)
	for n := range reads {
		for i := range reads[n] {
			for k := range reads[n][i] {
				reads[n][i][k] = 1
				writes[n][i][k] = 2
			}
		}
	}
	full := packCounts(nodes, intervals, objects, time.Hour, reads, writes)
	if full.IsSparse() {
		t.Error("saturated tensor packed sparse")
	}
	// Same shape, nearly empty: must go sparse.
	empty := alloc3(nodes, intervals, objects)
	empty[0][0][0] = 7
	sp := packCounts(nodes, intervals, objects, time.Hour, empty, alloc3(nodes, intervals, objects))
	if !sp.IsSparse() {
		t.Error("nearly-empty tensor stayed dense")
	}
	if sp.ReadCount(0, 0, 0) != 7 {
		t.Errorf("ReadCount(0,0,0) = %d, want 7", sp.ReadCount(0, 0, 0))
	}
}
