package workload

// Sparse storage for Counts. The WEB family's Zipf tail leaves most
// (node, interval, object) cells at zero once the object count grows, so
// the streaming aggregator stores the read/write tensors in CSR form —
// one row per (node, interval), ascending column indices — whenever
// non-zeros occupy at most half the cells (sparseFraction). The dense
// [][][]int fields stay authoritative for dense Counts, so every existing
// consumer (core, sim, controller) compiles unchanged; solvers that index
// the tensors directly densify first via Dense().

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"time"
)

const (
	// sparseMinCells keeps tiny tensors dense: below this size CSR saves
	// nothing and dense indexing is simpler for every consumer.
	sparseMinCells = 1 << 16
	// sparseFraction is the occupancy cutoff: CSR is chosen when
	// nnz * sparseFraction <= cells (zeros dominate).
	sparseFraction = 2
)

// sparseTensor is a CSR matrix over rows = nodes x intervals and cols =
// objects. Column indices are strictly ascending within a row.
type sparseTensor struct {
	nCols  int
	rowPtr []int   // len rows+1
	cols   []int32 // len nnz
	vals   []int32 // len nnz, all > 0
}

func (t *sparseTensor) rows() int { return len(t.rowPtr) - 1 }

func (t *sparseTensor) nnz() int { return len(t.cols) }

func (t *sparseTensor) row(r int) ([]int32, []int32) {
	lo, hi := t.rowPtr[r], t.rowPtr[r+1]
	return t.cols[lo:hi], t.vals[lo:hi]
}

func (t *sparseTensor) rowVals(r int) []int32 {
	return t.vals[t.rowPtr[r]:t.rowPtr[r+1]]
}

// at returns the value at (row, col), zero when absent.
func (t *sparseTensor) at(r, col int) int {
	cols, vals := t.row(r)
	j := sort.Search(len(cols), func(i int) bool { return int(cols[i]) >= col })
	if j < len(cols) && int(cols[j]) == col {
		return int(vals[j])
	}
	return 0
}

// addRowInto adds row r into dst (len nCols).
func (t *sparseTensor) addRowInto(r int, dst []int) {
	cols, vals := t.row(r)
	for j, k := range cols {
		dst[k] += int(vals[j])
	}
}

// denseTensor materializes the CSR matrix back into an [n][i][k] tensor.
func (t *sparseTensor) denseTensor(nodes, intervals int) [][][]int {
	out := alloc3(nodes, intervals, t.nCols)
	for n := 0; n < nodes; n++ {
		for i := 0; i < intervals; i++ {
			cols, vals := t.row(n*intervals + i)
			row := out[n][i]
			for j, k := range cols {
				row[k] = int(vals[j])
			}
		}
	}
	return out
}

// tensorNNZ counts non-zero cells and reports whether every value fits the
// CSR's int32 payload (a value that does not keeps the tensor dense).
func tensorNNZ(t [][][]int) (nnz int, ok bool) {
	for n := range t {
		for i := range t[n] {
			for _, v := range t[n][i] {
				if v != 0 {
					nnz++
					if v < 0 || v > math.MaxInt32 {
						return 0, false
					}
				}
			}
		}
	}
	return nnz, true
}

// csrFromDense converts an [n][i][k] tensor into CSR form.
func csrFromDense(t [][][]int, nodes, intervals, objects, nnz int) *sparseTensor {
	st := &sparseTensor{
		nCols:  objects,
		rowPtr: make([]int, nodes*intervals+1),
		cols:   make([]int32, 0, nnz),
		vals:   make([]int32, 0, nnz),
	}
	row := 0
	for n := 0; n < nodes; n++ {
		for i := 0; i < intervals; i++ {
			for k, v := range t[n][i] {
				if v != 0 {
					st.cols = append(st.cols, int32(k))
					st.vals = append(st.vals, int32(v))
				}
			}
			row++
			st.rowPtr[row] = len(st.cols)
		}
	}
	return st
}

// packCounts wraps freshly aggregated dense tensors into a Counts,
// converting to CSR automatically when zeros dominate. The transient dense
// tensors are released in that case, so what the caller retains is the
// compact form.
func packCounts(nodes, intervals, objects int, delta time.Duration, reads, writes [][][]int) *Counts {
	c := &Counts{
		Reads: reads, Writes: writes,
		Nodes: nodes, Intervals: intervals, Objects: objects, Delta: delta,
	}
	cells := nodes * intervals * objects
	if cells < sparseMinCells {
		return c
	}
	nr, okR := tensorNNZ(reads)
	nw, okW := tensorNNZ(writes)
	if !okR || !okW || (nr+nw)*sparseFraction > 2*cells {
		return c
	}
	c.sparseReads = csrFromDense(reads, nodes, intervals, objects, nr)
	c.sparseWrites = csrFromDense(writes, nodes, intervals, objects, nw)
	c.Reads, c.Writes = nil, nil
	return c
}

// IsSparse reports whether the tensors are currently CSR-backed.
func (c *Counts) IsSparse() bool { return c.sparseReads != nil }

// NNZ returns the number of non-zero read and write cells.
func (c *Counts) NNZ() (reads, writes int) {
	if c.sparseReads != nil {
		return c.sparseReads.nnz(), c.sparseWrites.nnz()
	}
	reads, _ = tensorNNZ(c.Reads)
	writes, _ = tensorNNZ(c.Writes)
	return reads, writes
}

// ReadCount returns Reads[n][i][k] regardless of representation.
func (c *Counts) ReadCount(n, i, k int) int {
	if c.sparseReads != nil {
		return c.sparseReads.at(n*c.Intervals+i, k)
	}
	return c.Reads[n][i][k]
}

// WriteCount returns Writes[n][i][k] regardless of representation.
func (c *Counts) WriteCount(n, i, k int) int {
	if c.sparseWrites != nil {
		return c.sparseWrites.at(n*c.Intervals+i, k)
	}
	return c.Writes[n][i][k]
}

// Dense materializes the exported tensors when the Counts is CSR-backed
// and returns the receiver, so consumers that index Reads/Writes directly
// (the LP builders) can adapt with c.Dense(). Not safe for concurrent use
// with other accessors.
func (c *Counts) Dense() *Counts {
	if c.sparseReads != nil {
		c.Reads = c.sparseReads.denseTensor(c.Nodes, c.Intervals)
		c.sparseReads = nil
	}
	if c.sparseWrites != nil {
		c.Writes = c.sparseWrites.denseTensor(c.Nodes, c.Intervals)
		c.sparseWrites = nil
	}
	return c
}

// Equal reports logical equality of two Counts — same dimensions, delta
// and cell values — regardless of representation.
func (c *Counts) Equal(o *Counts) bool {
	if c.Nodes != o.Nodes || c.Intervals != o.Intervals || c.Objects != o.Objects || c.Delta != o.Delta {
		return false
	}
	var a, b bytes.Buffer
	if err := c.EncodeBinary(&a); err != nil {
		return false
	}
	if err := o.EncodeBinary(&b); err != nil {
		return false
	}
	return bytes.Equal(a.Bytes(), b.Bytes())
}

// countsJSON mirrors the exported fields of Counts so the custom marshaler
// emits exactly the bytes the default reflection-based encoding produced
// before sparse storage existed.
type countsJSON struct {
	Reads     [][][]int
	Writes    [][][]int
	Nodes     int
	Intervals int
	Objects   int
	Delta     time.Duration
}

// MarshalJSON always emits the dense logical form, so a CSR-backed Counts
// serializes byte-identically to its dense equivalent and pre-existing
// JSON consumers (fingerprints, the service API) see no change.
func (c *Counts) MarshalJSON() ([]byte, error) {
	doc := countsJSON{
		Reads: c.Reads, Writes: c.Writes,
		Nodes: c.Nodes, Intervals: c.Intervals, Objects: c.Objects, Delta: c.Delta,
	}
	if c.sparseReads != nil {
		doc.Reads = c.sparseReads.denseTensor(c.Nodes, c.Intervals)
	}
	if c.sparseWrites != nil {
		doc.Writes = c.sparseWrites.denseTensor(c.Nodes, c.Intervals)
	}
	return json.Marshal(doc)
}

// UnmarshalJSON decodes the dense logical form (the only wire form).
func (c *Counts) UnmarshalJSON(data []byte) error {
	var doc countsJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	*c = Counts{
		Reads: doc.Reads, Writes: doc.Writes,
		Nodes: doc.Nodes, Intervals: doc.Intervals, Objects: doc.Objects, Delta: doc.Delta,
	}
	return nil
}

// countsMagic opens the canonical binary Counts encoding.
const countsMagic = "WPC1"

// EncodeBinary writes the canonical binary form of the Counts: magic,
// uvarint dimensions and delta, then per row (ascending (node, interval))
// the non-zero cells as uvarint (column-delta, value) pairs — reads tensor
// first, writes second — and a trailing CRC-32. The encoding depends only
// on the logical cell values, never on the storage representation, which
// is what makes "streaming equals materialized" checkable byte for byte.
func (c *Counts) EncodeBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)
	if _, err := io.WriteString(out, countsMagic); err != nil {
		return err
	}
	if err := writeUvarints(out, uint64(c.Nodes), uint64(c.Intervals), uint64(c.Objects), uint64(c.Delta)); err != nil {
		return err
	}
	if err := c.encodeTensor(out, c.Reads, c.sparseReads); err != nil {
		return err
	}
	if err := c.encodeTensor(out, c.Writes, c.sparseWrites); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := bw.Write(sum[:]); err != nil {
		return err
	}
	return bw.Flush()
}

func (c *Counts) encodeTensor(w io.Writer, dense [][][]int, sparse *sparseTensor) error {
	for n := 0; n < c.Nodes; n++ {
		for i := 0; i < c.Intervals; i++ {
			if sparse != nil {
				cols, vals := sparse.row(n*c.Intervals + i)
				if err := writeUvarints(w, uint64(len(cols))); err != nil {
					return err
				}
				prev := int32(0)
				for j, k := range cols {
					if err := writeUvarints(w, uint64(k-prev), uint64(vals[j])); err != nil {
						return err
					}
					prev = k
				}
				continue
			}
			row := dense[n][i]
			nnz := 0
			for _, v := range row {
				if v != 0 {
					nnz++
				}
			}
			if err := writeUvarints(w, uint64(nnz)); err != nil {
				return err
			}
			prev := 0
			for k, v := range row {
				if v == 0 {
					continue
				}
				if v < 0 {
					return fmt.Errorf("workload: negative count %d at (%d,%d,%d)", v, n, i, k)
				}
				if err := writeUvarints(w, uint64(k-prev), uint64(v)); err != nil {
					return err
				}
				prev = k
			}
		}
	}
	return nil
}

func writeUvarints(w io.Writer, vs ...uint64) error {
	var buf [binary.MaxVarintLen64]byte
	for _, v := range vs {
		n := binary.PutUvarint(buf[:], v)
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
	}
	return nil
}
