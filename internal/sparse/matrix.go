// Package sparse implements the sparse linear algebra substrate used by the
// HeteSim engine: immutable CSR (compressed sparse row) matrices, sparse
// vectors, sparse-sparse products (SpGEMM), matrix-vector products, and the
// row/column stochastic normalizations that turn adjacency matrices into the
// transition probability matrices of Definition 8 in the paper.
//
// All matrices are immutable after construction; every operation returns a
// new matrix. This keeps concurrent readers safe without locks, which the
// HeteSim engine relies on when evaluating independent queries in parallel.
package sparse

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Matrix is an immutable sparse matrix in CSR form. The zero value is an
// empty 0x0 matrix. Entries within a row are stored in strictly increasing
// column order with no explicit zeros and no duplicate coordinates.
type Matrix struct {
	rows, cols int
	rowPtr     []int // len rows+1
	colIdx     []int // len nnz
	val        []float64
}

// Triplet is a single (row, col, value) coordinate entry used when building
// matrices. Duplicate coordinates are summed during construction.
type Triplet struct {
	Row, Col int
	Val      float64
}

// New builds a CSR matrix of the given shape from coordinate triplets.
// Duplicate coordinates are summed; resulting exact zeros are dropped.
// It panics if the shape is negative or any coordinate is out of range,
// since those are programming errors rather than data errors.
func New(rows, cols int, entries []Triplet) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimensions %dx%d", rows, cols))
	}
	for _, t := range entries {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) out of range for %dx%d matrix",
				t.Row, t.Col, rows, cols))
		}
	}
	// Sort by (row, col) and merge duplicates.
	ts := make([]Triplet, len(entries))
	copy(ts, entries)
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Row != ts[j].Row {
			return ts[i].Row < ts[j].Row
		}
		return ts[i].Col < ts[j].Col
	})
	m := &Matrix{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	var lastRow, lastCol = -1, -1
	for _, t := range ts {
		if t.Row == lastRow && t.Col == lastCol {
			m.val[len(m.val)-1] += t.Val
			continue
		}
		m.colIdx = append(m.colIdx, t.Col)
		m.val = append(m.val, t.Val)
		for r := lastRow + 1; r <= t.Row; r++ {
			m.rowPtr[r] = len(m.val) - 1
		}
		lastRow, lastCol = t.Row, t.Col
	}
	for r := lastRow + 1; r <= rows; r++ {
		m.rowPtr[r] = len(m.val)
	}
	return m.dropZeros()
}

// dropZeros removes explicit zeros left behind by cancellation in duplicate
// merging or arithmetic. It compacts in place and returns the receiver.
func (m *Matrix) dropZeros() *Matrix {
	n := 0
	for r := 0; r < m.rows; r++ {
		k := m.rowPtr[r]
		m.rowPtr[r] = n
		for ; k < m.rowPtr[r+1]; k++ {
			if m.val[k] == 0 {
				continue
			}
			if n != k { // nothing dropped yet: the entry is already in place
				m.colIdx[n], m.val[n] = m.colIdx[k], m.val[k]
			}
			n++
		}
	}
	m.rowPtr[m.rows] = n
	m.colIdx, m.val = m.colIdx[:n], m.val[:n]
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := &Matrix{rows: n, cols: n, rowPtr: make([]int, n+1),
		colIdx: make([]int, n), val: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.rowPtr[i] = i
		m.colIdx[i] = i
		m.val[i] = 1
	}
	m.rowPtr[n] = n
	return m
}

// Zeros returns an all-zero matrix of the given shape.
func Zeros(rows, cols int) *Matrix {
	return &Matrix{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
}

// FromDense builds a sparse matrix from a dense row-major [][]float64,
// dropping exact zeros. All rows must have equal length.
func FromDense(d [][]float64) *Matrix {
	rows := len(d)
	cols := 0
	if rows > 0 {
		cols = len(d[0])
	}
	var ts []Triplet
	for i, row := range d {
		if len(row) != cols {
			panic("sparse: ragged dense input")
		}
		for j, v := range row {
			if v != 0 {
				ts = append(ts, Triplet{i, j, v})
			}
		}
	}
	return New(rows, cols, ts)
}

// Dims returns the (rows, cols) shape.
func (m *Matrix) Dims() (int, int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of stored (non-zero) entries.
func (m *Matrix) NNZ() int { return len(m.val) }

// At returns the entry at (i, j), using binary search within row i.
func (m *Matrix) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: At(%d,%d) out of range for %dx%d", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.val[k]
	}
	return 0
}

// Row returns row i as a sparse Vector: a view over m's storage, not a copy.
// That is safe because both types are immutable — no Vector method writes its
// receiver or an argument (Scale, Add and MulMat return new vectors), and no
// Matrix method writes a matrix once its constructor has returned it. Code
// added to this package must keep that contract; TestRowViewIsNeverWritten
// holds every exported Vector method to it.
func (m *Matrix) Row(i int) *Vector {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("sparse: Row(%d) out of range for %d rows", i, m.rows))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return &Vector{n: m.cols, idx: m.colIdx[lo:hi:hi], val: m.val[lo:hi:hi]}
}

// RowEntries returns row i's column indices and values, ascending by column:
// views over m's storage, capacity-capped like Row's, without the Vector
// header Row allocates. Callers must not write them.
func (m *Matrix) RowEntries(i int) ([]int, []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi:hi], m.val[lo:hi:hi]
}

// RowNNZ returns the number of stored entries in row i.
func (m *Matrix) RowNNZ(i int) int { return m.rowPtr[i+1] - m.rowPtr[i] }

// RowDense writes row i into dst (which must have length Cols) and returns
// it; if dst is nil a new slice is allocated.
func (m *Matrix) RowDense(i int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.cols)
	} else {
		if len(dst) != m.cols {
			panic("sparse: RowDense dst length mismatch")
		}
		for k := range dst {
			dst[k] = 0
		}
	}
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		dst[m.colIdx[k]] = m.val[k]
	}
	return dst
}

// Transpose returns the transposed matrix.
func (m *Matrix) Transpose() *Matrix {
	t := &Matrix{rows: m.cols, cols: m.rows,
		rowPtr: make([]int, m.cols+1),
		colIdx: make([]int, len(m.colIdx)),
		val:    make([]float64, len(m.val))}
	// Count entries per column of m (= per row of t).
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for i := 0; i < m.cols; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	next := make([]int, m.cols)
	copy(next, t.rowPtr[:m.cols])
	for r := 0; r < m.rows; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			c := m.colIdx[k]
			p := next[c]
			t.colIdx[p] = r
			t.val[p] = m.val[k]
			next[c]++
		}
	}
	return t
}

// TransposeRows returns rows cols[i] of m's transpose — column cols[i] of m
// as row i — bit for bit those rows of Transpose(), in one scan of m and
// without building the others. cols may not repeat.
func (m *Matrix) TransposeRows(cols []int) *Matrix {
	at := make([]int, m.cols) // at[c] = 1 + the output row of column c, or 0
	for i, c := range cols {
		if c < 0 || c >= m.cols {
			panic(fmt.Sprintf("sparse: TransposeRows column %d out of range for %d columns", c, m.cols))
		}
		if at[c] != 0 {
			panic(fmt.Sprintf("sparse: TransposeRows column %d repeated", c))
		}
		at[c] = i + 1
	}
	t := &Matrix{rows: len(cols), cols: m.rows, rowPtr: make([]int, len(cols)+1)}
	for _, c := range m.colIdx {
		if i := at[c]; i != 0 {
			t.rowPtr[i]++
		}
	}
	for i := 0; i < len(cols); i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	t.colIdx, t.val = make([]int, t.rowPtr[len(cols)]), make([]float64, t.rowPtr[len(cols)])
	next := append([]int(nil), t.rowPtr[:len(cols)]...)
	for r := 0; r < m.rows; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			if i := at[m.colIdx[k]]; i != 0 {
				t.colIdx[next[i-1]], t.val[next[i-1]] = r, m.val[k]
				next[i-1]++
			}
		}
	}
	return t
}

// MulVec returns m * x as a dense vector (length Rows). x must have length
// Cols.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic("sparse: MulVec length mismatch")
	}
	y := make([]float64, m.rows)
	for r := 0; r < m.rows; r++ {
		var s float64
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			s += m.val[k] * x[m.colIdx[k]]
		}
		y[r] = s
	}
	return y
}

// VecMul returns x' * m as a dense vector (length Cols). x must have length
// Rows. This is the workhorse of single-source reachable probability
// propagation: a distribution over the current type times the transition
// matrix of the next relation.
func (m *Matrix) VecMul(x []float64) []float64 {
	if len(x) != m.rows {
		panic("sparse: VecMul length mismatch")
	}
	y := make([]float64, m.cols)
	for r := 0; r < m.rows; r++ {
		xv := x[r]
		if xv == 0 {
			continue
		}
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			y[m.colIdx[k]] += xv * m.val[k]
		}
	}
	return y
}

// Scale returns m with every entry multiplied by a. Scaling by zero returns
// an empty matrix of the same shape.
func (m *Matrix) Scale(a float64) *Matrix {
	if a == 0 {
		return Zeros(m.rows, m.cols)
	}
	out := m.clone()
	for i := range out.val {
		out.val[i] *= a
	}
	return out
}

// Add returns m + b. Panics on shape mismatch.
func (m *Matrix) Add(b *Matrix) *Matrix {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("sparse: Add shape mismatch %dx%d + %dx%d",
			m.rows, m.cols, b.rows, b.cols))
	}
	out := &Matrix{rows: m.rows, cols: m.cols, rowPtr: make([]int, m.rows+1)}
	for r := 0; r < m.rows; r++ {
		ka, ea := m.rowPtr[r], m.rowPtr[r+1]
		kb, eb := b.rowPtr[r], b.rowPtr[r+1]
		for ka < ea || kb < eb {
			switch {
			case kb >= eb || (ka < ea && m.colIdx[ka] < b.colIdx[kb]):
				out.colIdx = append(out.colIdx, m.colIdx[ka])
				out.val = append(out.val, m.val[ka])
				ka++
			case ka >= ea || b.colIdx[kb] < m.colIdx[ka]:
				out.colIdx = append(out.colIdx, b.colIdx[kb])
				out.val = append(out.val, b.val[kb])
				kb++
			default:
				s := m.val[ka] + b.val[kb]
				if s != 0 {
					out.colIdx = append(out.colIdx, m.colIdx[ka])
					out.val = append(out.val, s)
				}
				ka++
				kb++
			}
		}
		out.rowPtr[r+1] = len(out.val)
	}
	return out
}

// RowSums returns the vector of per-row sums.
func (m *Matrix) RowSums() []float64 {
	s := make([]float64, m.rows)
	for r := 0; r < m.rows; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			s[r] += m.val[k]
		}
	}
	return s
}

// ColSums returns the vector of per-column sums.
func (m *Matrix) ColSums() []float64 {
	s := make([]float64, m.cols)
	for r := 0; r < m.rows; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			s[m.colIdx[k]] += m.val[k]
		}
	}
	return s
}

// RowNormalize returns the row-stochastic matrix U obtained by dividing each
// row by its sum (Definition 8: the transition probability matrix of A→B).
// Rows that sum to zero are left zero, matching the paper's convention that
// objects without out-neighbors contribute zero relatedness.
func (m *Matrix) RowNormalize() *Matrix {
	out := m.clone()
	for r := 0; r < out.rows; r++ {
		var s float64
		for k := out.rowPtr[r]; k < out.rowPtr[r+1]; k++ {
			s += out.val[k]
		}
		if s == 0 {
			continue
		}
		inv := 1 / s
		for k := out.rowPtr[r]; k < out.rowPtr[r+1]; k++ {
			out.val[k] *= inv
		}
	}
	return out
}

// ColNormalize returns the column-stochastic matrix V obtained by dividing
// each column by its sum (Definition 8: the transition probability matrix of
// B→A based on the inverse relation). Columns summing to zero are left zero.
func (m *Matrix) ColNormalize() *Matrix {
	sums := m.ColSums()
	out := m.clone()
	for r := 0; r < out.rows; r++ {
		for k := out.rowPtr[r]; k < out.rowPtr[r+1]; k++ {
			if s := sums[out.colIdx[k]]; s != 0 {
				out.val[k] /= s
			}
		}
	}
	return out
}

// RowNorms returns the per-row Euclidean (L2) norms, used to normalize
// HeteSim into its cosine form (Definition 10).
func (m *Matrix) RowNorms() []float64 {
	s := m.RowSquares()
	for r, q := range s {
		s[r] = math.Sqrt(q)
	}
	return s
}

// RowSquares returns every row's sum of squared entries, added in ascending
// column order: the squares of RowNorms before the square root.
func (m *Matrix) RowSquares() []float64 {
	s := make([]float64, m.rows)
	for r := range s {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			s[r] += m.val[k] * m.val[k]
		}
	}
	return s
}

// WeightedRowNorms returns every row's WeightedNorm by d (one weight per
// column), bit for bit what Row(i).WeightedNorm(d) returns; with d nil, bit
// for bit RowNorms().
func (m *Matrix) WeightedRowNorms(d []float64) []float64 {
	s := make([]float64, m.rows)
	for r := range s {
		idx, val := m.RowEntries(r)
		s[r] = weightedNorm(idx, val, d)
	}
	return s
}

// ScaleRows returns a copy of m with row i multiplied by d[i].
func (m *Matrix) ScaleRows(d []float64) *Matrix {
	if len(d) != m.rows {
		panic("sparse: ScaleRows length mismatch")
	}
	out := m.clone()
	for r := 0; r < out.rows; r++ {
		for k := out.rowPtr[r]; k < out.rowPtr[r+1]; k++ {
			out.val[k] *= d[r]
		}
	}
	return out.dropZeros()
}

// ScaleCols returns a copy of m with column j multiplied by d[j].
func (m *Matrix) ScaleCols(d []float64) *Matrix {
	if len(d) != m.cols {
		panic("sparse: ScaleCols length mismatch")
	}
	out := m.clone()
	for r := 0; r < out.rows; r++ {
		for k := out.rowPtr[r]; k < out.rowPtr[r+1]; k++ {
			out.val[k] *= d[out.colIdx[k]]
		}
	}
	return out.dropZeros()
}

// Prune returns a copy of m with all entries of absolute value below eps
// removed. It implements the truncation speedup discussed in Section 4.6 of
// the paper: small reachable probabilities are dropped with bounded error.
func (m *Matrix) Prune(eps float64) *Matrix {
	out := &Matrix{rows: m.rows, cols: m.cols, rowPtr: make([]int, m.rows+1)}
	for r := 0; r < m.rows; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			if math.Abs(m.val[k]) >= eps {
				out.colIdx = append(out.colIdx, m.colIdx[k])
				out.val = append(out.val, m.val[k])
			}
		}
		out.rowPtr[r+1] = len(out.val)
	}
	return out
}

// SelectRows returns the submatrix formed by the given rows, in the given
// order (rows may repeat). Column count is unchanged.
func (m *Matrix) SelectRows(rows []int) *Matrix {
	nnz := 0
	for _, r := range rows {
		if r < 0 || r >= m.rows {
			panic(fmt.Sprintf("sparse: SelectRows row %d out of range for %d rows", r, m.rows))
		}
		nnz += m.RowNNZ(r)
	}
	out := newSized(len(rows), m.cols, nnz)
	for p := 0; p < len(rows); {
		q := p + 1 // rows[p:q] is a run of consecutive rows: one block copy
		for q < len(rows) && rows[q] == rows[q-1]+1 {
			q++
		}
		out.appendRows(m, rows[p], rows[p]+q-p)
		p = q
	}
	return out
}

// newSized returns an empty matrix of the given shape whose rows the
// append methods fill, with room for nnz entries.
func newSized(rows, cols, nnz int) *Matrix {
	return &Matrix{rows: rows, cols: cols, rowPtr: make([]int, 1, rows+1),
		colIdx: make([]int, 0, nnz), val: make([]float64, 0, nnz)}
}

// appendRows appends rows [lo, hi) of src as out's next rows, one block
// copy; rows at or past src's last are empty.
func (out *Matrix) appendRows(src *Matrix, lo, hi int) {
	n := len(out.val)
	top := min(hi, src.rows)
	if lo < top {
		a, b := src.rowPtr[lo], src.rowPtr[top]
		out.colIdx = append(out.colIdx, src.colIdx[a:b]...)
		out.val = append(out.val, src.val[a:b]...)
		for r := lo + 1; r <= top; r++ {
			out.rowPtr = append(out.rowPtr, n+src.rowPtr[r]-a)
		}
	}
	for r := max(lo, top); r < hi; r++ {
		out.rowPtr = append(out.rowPtr, len(out.val))
	}
}

// Resize returns the matrix padded to the given (never smaller) dimensions.
// Existing entries keep their positions and values bit for bit (the entry
// arrays are shared: matrices are immutable); the new rows and columns are
// empty — exactly what a freshly materialized chain over a graph that only
// gained (edge-less) nodes would contain, which is why incremental
// maintenance can pad a cached chain instead of rebuilding it.
func (m *Matrix) Resize(rows, cols int) *Matrix {
	if rows < m.rows || cols < m.cols {
		panic(fmt.Sprintf("sparse: Resize to %dx%d would shrink a %dx%d matrix",
			rows, cols, m.rows, m.cols))
	}
	if rows == m.rows && cols == m.cols {
		return m
	}
	out := &Matrix{rows: rows, cols: cols, rowPtr: make([]int, rows+1), colIdx: m.colIdx, val: m.val}
	copy(out.rowPtr, m.rowPtr)
	for r := m.rows + 1; r <= rows; r++ {
		out.rowPtr[r] = len(m.val)
	}
	return out
}

// ReplaceRows returns a copy of the matrix with row rows[i] replaced by row
// i of src, all other rows kept bit for bit. src must have the same column
// count; row indices may not repeat. This is the row-masked update of
// incremental chain maintenance: recompute only the dirty rows, splice them
// into the cached matrix. The rows between two replaced ones are one block
// copy each.
func (m *Matrix) ReplaceRows(rows []int, src *Matrix) *Matrix {
	if src.cols != m.cols {
		panic(fmt.Sprintf("sparse: ReplaceRows column mismatch %d vs %d", src.cols, m.cols))
	}
	if len(rows) != src.rows {
		panic(fmt.Sprintf("sparse: ReplaceRows got %d row indices for %d source rows", len(rows), src.rows))
	}
	order := make([]int, len(rows)) // positions in rows, ascending by row
	for i := range order {
		order[i] = i
	}
	if !sort.SliceIsSorted(order, func(a, b int) bool { return rows[order[a]] < rows[order[b]] }) {
		sort.Slice(order, func(a, b int) bool { return rows[order[a]] < rows[order[b]] })
	}
	nnz := len(m.val) + len(src.val)
	for k, i := range order {
		r := rows[i]
		if r < 0 || r >= m.rows {
			panic(fmt.Sprintf("sparse: ReplaceRows row %d out of range for %d rows", r, m.rows))
		}
		if k > 0 && rows[order[k-1]] == r {
			panic(fmt.Sprintf("sparse: ReplaceRows row %d repeated", r))
		}
		nnz -= m.RowNNZ(r)
	}
	out := newSized(m.rows, m.cols, nnz)
	next := 0
	for _, i := range order {
		out.appendRows(m, next, rows[i])
		out.appendRows(src, i, i+1)
		next = rows[i] + 1
	}
	out.appendRows(m, next, m.rows)
	return out
}

// SetCells returns the matrix grown to rows x cols (never smaller) with the
// given cells set: each cell's value replaces the entry at its coordinate,
// and a zero value removes it. cells must be sorted by (row, col) with no
// coordinate repeated. Rows no cell names are block-copied and each named
// row is a sorted merge of its old entries and its cells, so the cost is
// the copy plus the cells, and the result is bit for bit what New builds
// from the same final entries.
func (m *Matrix) SetCells(rows, cols int, cells []Triplet) *Matrix {
	if rows < m.rows || cols < m.cols {
		panic(fmt.Sprintf("sparse: SetCells to %dx%d would shrink a %dx%d matrix",
			rows, cols, m.rows, m.cols))
	}
	for i, t := range cells {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			panic(fmt.Sprintf("sparse: cell (%d,%d) out of range for %dx%d matrix", t.Row, t.Col, rows, cols))
		}
		if i > 0 && (t.Row < cells[i-1].Row || t.Row == cells[i-1].Row && t.Col <= cells[i-1].Col) {
			panic(fmt.Sprintf("sparse: SetCells cells not sorted and distinct at (%d,%d)", t.Row, t.Col))
		}
	}
	out := newSized(rows, cols, len(m.val)+len(cells))
	next := 0
	for i := 0; i < len(cells); {
		r := cells[i].Row
		j := i + 1
		for j < len(cells) && cells[j].Row == r {
			j++
		}
		out.appendRows(m, next, r)
		var idx []int
		var val []float64
		if r < m.rows {
			idx, val = m.RowEntries(r)
		}
		k := 0
		for _, c := range cells[i:j] {
			for ; k < len(idx) && idx[k] < c.Col; k++ {
				out.colIdx, out.val = append(out.colIdx, idx[k]), append(out.val, val[k])
			}
			if k < len(idx) && idx[k] == c.Col {
				k++
			}
			if c.Val != 0 {
				out.colIdx, out.val = append(out.colIdx, c.Col), append(out.val, c.Val)
			}
		}
		out.colIdx, out.val = append(out.colIdx, idx[k:]...), append(out.val, val[k:]...)
		out.rowPtr = append(out.rowPtr, len(out.val))
		next, i = r+1, j
	}
	out.appendRows(m, next, rows)
	return out
}

// Dense returns the matrix as a freshly allocated dense [][]float64.
func (m *Matrix) Dense() [][]float64 {
	d := make([][]float64, m.rows)
	for r := 0; r < m.rows; r++ {
		d[r] = make([]float64, m.cols)
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			d[r][m.colIdx[k]] = m.val[k]
		}
	}
	return d
}

// Equal reports whether m and b have identical shape and entries.
func (m *Matrix) Equal(b *Matrix) bool { return m.ApproxEqual(b, 0) }

// ApproxEqual reports whether m and b have identical shape and entries equal
// within absolute tolerance tol.
func (m *Matrix) ApproxEqual(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for r := 0; r < m.rows; r++ {
		ka, ea := m.rowPtr[r], m.rowPtr[r+1]
		kb, eb := b.rowPtr[r], b.rowPtr[r+1]
		for ka < ea || kb < eb {
			switch {
			case kb >= eb || (ka < ea && m.colIdx[ka] < b.colIdx[kb]):
				if math.Abs(m.val[ka]) > tol {
					return false
				}
				ka++
			case ka >= ea || b.colIdx[kb] < m.colIdx[ka]:
				if math.Abs(b.val[kb]) > tol {
					return false
				}
				kb++
			default:
				if math.Abs(m.val[ka]-b.val[kb]) > tol {
					return false
				}
				ka++
				kb++
			}
		}
	}
	return true
}

// Sum returns the sum of all entries.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.val {
		s += v
	}
	return s
}

func (m *Matrix) clone() *Matrix {
	out := &Matrix{rows: m.rows, cols: m.cols,
		rowPtr: make([]int, len(m.rowPtr)),
		colIdx: make([]int, len(m.colIdx)),
		val:    make([]float64, len(m.val))}
	copy(out.rowPtr, m.rowPtr)
	copy(out.colIdx, m.colIdx)
	copy(out.val, m.val)
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix { return m.clone() }

// Triplets returns the stored entries in row-major order.
func (m *Matrix) Triplets() []Triplet {
	ts := make([]Triplet, 0, len(m.val))
	for r := 0; r < m.rows; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			ts = append(ts, Triplet{r, m.colIdx[k], m.val[k]})
		}
	}
	return ts
}

// String renders small matrices densely and large ones as a summary.
func (m *Matrix) String() string {
	if m.rows*m.cols > 400 {
		return fmt.Sprintf("sparse.Matrix(%dx%d, nnz=%d)", m.rows, m.cols, len(m.val))
	}
	var b strings.Builder
	d := m.Dense()
	for _, row := range d {
		for j, v := range row {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%6.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
