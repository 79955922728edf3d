package lp

// CSC is a sparse matrix in compressed-sparse-column form.
type CSC struct {
	Rows, Cols int
	ColPtr     []int     // len Cols+1
	RowIdx     []int     // len nnz, row index of each entry
	Val        []float64 // len nnz
}

// NNZ reports the number of stored entries.
func (c *CSC) NNZ() int { return len(c.Val) }

// Col returns the row indices and values of column j (shared slices; do not
// modify).
func (c *CSC) Col(j int) ([]int, []float64) {
	s, e := c.ColPtr[j], c.ColPtr[j+1]
	return c.RowIdx[s:e], c.Val[s:e]
}

// TripletBuilder accumulates (row, col, value) entries and converts them to
// CSC form. Duplicate entries are summed.
type TripletBuilder struct {
	rows, cols int
	ri, ci     []int
	v          []float64
}

// NewTripletBuilder returns a builder for a rows x cols matrix.
func NewTripletBuilder(rows, cols int) *TripletBuilder {
	return &TripletBuilder{rows: rows, cols: cols}
}

// Add records entry (r, c) += v.
func (t *TripletBuilder) Add(r, c int, v float64) {
	t.ri = append(t.ri, r)
	t.ci = append(t.ci, c)
	t.v = append(t.v, v)
}

// ToCSC converts the accumulated triplets to compressed-sparse-column form,
// summing duplicates and dropping exact zeros that result.
func (t *TripletBuilder) ToCSC() *CSC {
	nnz := len(t.v)
	count := make([]int, t.cols+1)
	for _, c := range t.ci {
		count[c+1]++
	}
	for j := 0; j < t.cols; j++ {
		count[j+1] += count[j]
	}
	colPtr := make([]int, t.cols+1)
	copy(colPtr, count)
	rowIdx := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, t.cols)
	copy(next, colPtr[:t.cols])
	for k := 0; k < nnz; k++ {
		c := t.ci[k]
		p := next[c]
		rowIdx[p] = t.ri[k]
		val[p] = t.v[k]
		next[c]++
	}
	// Sort each column by row and merge duplicates.
	out := &CSC{Rows: t.rows, Cols: t.cols,
		ColPtr: make([]int, t.cols+1),
		RowIdx: make([]int, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for j := 0; j < t.cols; j++ {
		s, e := colPtr[j], colPtr[j+1]
		insertionSortPairs(rowIdx[s:e], val[s:e])
		out.ColPtr[j] = len(out.Val)
		for k := s; k < e; {
			r := rowIdx[k]
			sum := 0.0
			for k < e && rowIdx[k] == r {
				sum += val[k]
				k++
			}
			if sum != 0 {
				out.RowIdx = append(out.RowIdx, r)
				out.Val = append(out.Val, sum)
			}
		}
	}
	out.ColPtr[t.cols] = len(out.Val)
	return out
}

// insertionSortPairs sorts idx ascending, permuting val in lockstep. Columns
// are short in our matrices, so insertion sort is adequate and allocation
// free.
func insertionSortPairs(idx []int, val []float64) {
	for i := 1; i < len(idx); i++ {
		ki, kv := idx[i], val[i]
		j := i - 1
		for j >= 0 && idx[j] > ki {
			idx[j+1], val[j+1] = idx[j], val[j]
			j--
		}
		idx[j+1], val[j+1] = ki, kv
	}
}
