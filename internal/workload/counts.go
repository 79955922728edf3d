package workload

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// NNZ returns the number of non-zero read and write cells.
func (c *Counts) NNZ() (reads, writes int) {
	return tensorNNZ(c.Reads), tensorNNZ(c.Writes)
}

func tensorNNZ(t [][][]int) int {
	nnz := 0
	for n := range t {
		for i := range t[n] {
			for _, v := range t[n][i] {
				if v != 0 {
					nnz++
				}
			}
		}
	}
	return nnz
}

// Equal reports logical equality of two Counts: same dimensions, delta
// and cell values.
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

// countsMagic opens the canonical binary Counts encoding.
const countsMagic = "WPC1"

// EncodeBinary writes the canonical binary form of the Counts: magic,
// uvarint dimensions and delta, then per row (ascending (node, interval))
// the non-zero cells as uvarint (column-delta, value) pairs — reads tensor
// first, writes second — and a trailing CRC-32. The encoding depends only
// on the cell values, which is what makes "streaming equals materialized"
// checkable byte for byte, and it is what streamed fingerprints hash.
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
	if err := c.encodeTensor(out, c.Reads); err != nil {
		return err
	}
	if err := c.encodeTensor(out, c.Writes); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := bw.Write(sum[:]); err != nil {
		return err
	}
	return bw.Flush()
}

func (c *Counts) encodeTensor(w io.Writer, t [][][]int) error {
	for n := 0; n < c.Nodes; n++ {
		for i := 0; i < c.Intervals; i++ {
			row := t[n][i]
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
