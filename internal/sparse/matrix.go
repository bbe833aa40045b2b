// Package sparse implements the sparse linear algebra substrate used by the
// HeteSim engine: immutable CSR (compressed sparse row) matrices, sparse
// vectors, sparse-sparse products (SpGEMM), matrix-vector products, and the
// row/column stochastic normalizations that turn adjacency matrices into the
// transition probability matrices of Definition 8 in the paper.
//
// All matrices are immutable after construction; every operation returns a
// new matrix. This keeps concurrent readers safe without locks, which the
// HeteSim engine relies on when evaluating independent queries in parallel.
//
// The CSR is paged (page.go): rows are grouped into fixed pages of 256, each
// a window onto the arrays that built it, and every reader goes through one
// row accessor. A matrix built whole — New, a product, a transpose, a
// decoded one — is one contiguous allocation cut into windows; ReplaceRows,
// SetCells and Resize allocate only the pages that hold a changed row and
// share the rest with their source, so a write's splice costs its dirty
// pages rather than the matrix.
package sparse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Matrix is an immutable sparse matrix in paged CSR form. The zero value
// is an empty 0x0 matrix. Entries within a row are stored in strictly
// increasing column order with no explicit zeros and no duplicate
// coordinates.
type Matrix struct {
	rows, cols int
	nnz        int
	pages      []page // ceil(rows/pageRows) of them
}

// Triplet is a single (row, col, value) coordinate entry used when building
// matrices. Duplicate coordinates are summed during construction.
type Triplet struct {
	Row, Col int
	Val      float64
}

// New builds a CSR matrix of the given shape from coordinate triplets.
// Duplicate coordinates are summed in the order they appear in entries;
// resulting exact zeros are dropped. Entries are placed by a counting pass
// over rows, and a row is sorted by column only when its entries arrive out
// of order, so input already in (row, column) order is never sorted. It
// panics if the shape is negative or any coordinate is out of range, since
// those are programming errors rather than data errors.
func New(rows, cols int, entries []Triplet) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimensions %dx%d", rows, cols))
	}
	m := &csr{rows: rows, cols: cols, page: page{rowPtr: make([]int, rows+1),
		colIdx: make([]int, len(entries)), val: make([]float64, len(entries))}}
	for _, t := range entries {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) out of range for %dx%d matrix",
				t.Row, t.Col, rows, cols))
		}
		m.rowPtr[t.Row+1]++
	}
	for r := 0; r < rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	// Place each entry at its row's next free slot: rowPtr[r] walks from
	// row r's start to row r+1's, then every pointer shifts back one row.
	for _, t := range entries {
		p := m.rowPtr[t.Row]
		m.colIdx[p], m.val[p] = t.Col, t.Val
		m.rowPtr[t.Row]++
	}
	copy(m.rowPtr[1:], m.rowPtr[:rows])
	m.rowPtr[0] = 0
	// Order each row by column and merge its duplicates, compacting in place.
	var buf []Triplet
	n := 0
	for r := 0; r < rows; r++ {
		lo, hi := m.rowPtr[r], m.rowPtr[r+1]
		idx, val := m.colIdx[lo:hi], m.val[lo:hi]
		if !slices.IsSorted(idx) {
			buf = sortRow(idx, val, buf)
		}
		m.rowPtr[r] = n
		for k, c := range idx {
			if n > m.rowPtr[r] && m.colIdx[n-1] == c {
				m.val[n-1] += val[k]
				continue
			}
			m.colIdx[n], m.val[n] = c, val[k]
			n++
		}
	}
	m.rowPtr[rows] = n
	m.colIdx, m.val = m.colIdx[:n], m.val[:n]
	return m.dropZeros().matrix()
}

// sortRow orders one row's entries by column, stably: duplicates keep the
// order they were given in, because each entry carries its position in Row
// as the tie-break. buf is scratch space, returned for reuse.
func sortRow(idx []int, val []float64, buf []Triplet) []Triplet {
	buf = buf[:0]
	for k, c := range idx {
		buf = append(buf, Triplet{Row: k, Col: c, Val: val[k]})
	}
	slices.SortFunc(buf, func(a, b Triplet) int {
		return cmp.Or(cmp.Compare(a.Col, b.Col), cmp.Compare(a.Row, b.Row))
	})
	for k, t := range buf {
		idx[k], val[k] = t.Col, t.Val
	}
	return buf
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := &csr{rows: n, cols: n, page: page{rowPtr: make([]int, n+1),
		colIdx: make([]int, n), val: make([]float64, n)}}
	for i := 0; i < n; i++ {
		m.rowPtr[i] = i
		m.colIdx[i] = i
		m.val[i] = 1
	}
	m.rowPtr[n] = n
	return m.matrix()
}

// Zeros returns an all-zero matrix of the given shape: pages of no entries,
// sharing one row pointer array.
func Zeros(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimensions %dx%d", rows, cols))
	}
	return new(Matrix).grown(rows, cols)
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
func (m *Matrix) NNZ() int { return m.nnz }

// At returns the entry at (i, j), using binary search within row i.
func (m *Matrix) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: At(%d,%d) out of range for %dx%d", i, j, m.rows, m.cols))
	}
	idx, val := m.row(i)
	if k := sort.SearchInts(idx, j); k < len(idx) && idx[k] == j {
		return val[k]
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
	idx, val := m.row(i)
	return &Vector{n: m.cols, idx: idx, val: val}
}

// RowEntries returns row i's column indices and values, ascending by column:
// views over m's storage, capacity-capped like Row's, without the Vector
// header Row allocates. Callers must not write them.
func (m *Matrix) RowEntries(i int) ([]int, []float64) { return m.row(i) }

// RowNNZ returns the number of stored entries in row i.
func (m *Matrix) RowNNZ(i int) int {
	p := &m.pages[i>>pageShift]
	k := i & (pageRows - 1)
	return p.rowPtr[k+1] - p.rowPtr[k]
}

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
	idx, val := m.row(i)
	for k, c := range idx {
		dst[c] = val[k]
	}
	return dst
}

// Transpose returns the transposed matrix.
func (m *Matrix) Transpose() *Matrix {
	t := &csr{rows: m.cols, cols: m.rows, page: page{
		rowPtr: make([]int, m.cols+1),
		colIdx: make([]int, m.nnz),
		val:    make([]float64, m.nnz)}}
	// Count entries per column of m (= per row of t).
	for p := range m.pages {
		idx, _ := m.pages[p].entries()
		for _, c := range idx {
			t.rowPtr[c+1]++
		}
	}
	for i := 0; i < m.cols; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	next := make([]int, m.cols)
	copy(next, t.rowPtr[:m.cols])
	for r := 0; r < m.rows; r++ {
		idx, val := m.row(r)
		val = val[:len(idx)]
		for k, c := range idx {
			p := next[c]
			t.colIdx[p] = r
			t.val[p] = val[k]
			next[c]++
		}
	}
	return t.matrix()
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
		idx, val := m.row(r)
		for k, c := range idx {
			s += val[k] * x[c]
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
		idx, val := m.row(r)
		for k, c := range idx {
			y[c] += xv * val[k]
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
	out := m.flat()
	for i := range out.val {
		out.val[i] *= a
	}
	return out.matrix()
}

// Add returns m + b. Panics on shape mismatch.
func (m *Matrix) Add(b *Matrix) *Matrix {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("sparse: Add shape mismatch %dx%d + %dx%d",
			m.rows, m.cols, b.rows, b.cols))
	}
	out := &csr{rows: m.rows, cols: m.cols, page: page{rowPtr: make([]int, m.rows+1)}}
	for r := 0; r < m.rows; r++ {
		ai, av := m.row(r)
		bi, bv := b.row(r)
		ka, kb := 0, 0
		for ka < len(ai) || kb < len(bi) {
			switch {
			case kb >= len(bi) || (ka < len(ai) && ai[ka] < bi[kb]):
				out.colIdx = append(out.colIdx, ai[ka])
				out.val = append(out.val, av[ka])
				ka++
			case ka >= len(ai) || bi[kb] < ai[ka]:
				out.colIdx = append(out.colIdx, bi[kb])
				out.val = append(out.val, bv[kb])
				kb++
			default:
				s := av[ka] + bv[kb]
				if s != 0 {
					out.colIdx = append(out.colIdx, ai[ka])
					out.val = append(out.val, s)
				}
				ka++
				kb++
			}
		}
		out.rowPtr[r+1] = len(out.val)
	}
	return out.matrix()
}

// RowSums returns the vector of per-row sums.
func (m *Matrix) RowSums() []float64 {
	s := make([]float64, m.rows)
	for r := 0; r < m.rows; r++ {
		_, val := m.row(r)
		for _, v := range val {
			s[r] += v
		}
	}
	return s
}

// ColSums returns the vector of per-column sums.
func (m *Matrix) ColSums() []float64 {
	s := make([]float64, m.cols)
	for r := 0; r < m.rows; r++ {
		idx, val := m.row(r)
		for k, c := range idx {
			s[c] += val[k]
		}
	}
	return s
}

// RowNormalize returns the row-stochastic matrix U obtained by dividing each
// row by its sum (Definition 8: the transition probability matrix of A→B).
// Rows that sum to zero are left zero, matching the paper's convention that
// objects without out-neighbors contribute zero relatedness.
func (m *Matrix) RowNormalize() *Matrix {
	out := m.flat()
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
	return out.matrix()
}

// ColNormalize returns the column-stochastic matrix V obtained by dividing
// each column by its sum (Definition 8: the transition probability matrix of
// B→A based on the inverse relation). Columns summing to zero are left zero.
func (m *Matrix) ColNormalize() *Matrix {
	sums := m.ColSums()
	out := m.flat()
	for k, c := range out.colIdx {
		if s := sums[c]; s != 0 {
			out.val[k] /= s
		}
	}
	return out.matrix()
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
// column order: the squares of RowNorms before the square root, and bit for
// bit what Row(r).Squares() returns.
func (m *Matrix) RowSquares() []float64 {
	s := make([]float64, m.rows)
	for r := range s {
		_, val := m.row(r)
		s[r] = squares(val)
	}
	return s
}

// squares is Σ x² over val, added in order — for ascending indices, the
// terms and order in which Dot adds v·v.
func squares(val []float64) float64 {
	var s float64
	for _, v := range val {
		s += v * v
	}
	return s
}

// WeightedRowNorms returns every row's WeightedNorm by d (one weight per
// column), bit for bit what Row(i).WeightedNorm(d) returns; with d nil, bit
// for bit RowNorms().
func (m *Matrix) WeightedRowNorms(d []float64) []float64 {
	s := make([]float64, m.rows)
	for r := range s {
		idx, val := m.row(r)
		s[r] = weightedNorm(idx, val, d)
	}
	return s
}

// ScaleRows returns a copy of m with row i multiplied by d[i].
func (m *Matrix) ScaleRows(d []float64) *Matrix {
	if len(d) != m.rows {
		panic("sparse: ScaleRows length mismatch")
	}
	out := m.flat()
	for r := 0; r < out.rows; r++ {
		for k := out.rowPtr[r]; k < out.rowPtr[r+1]; k++ {
			out.val[k] *= d[r]
		}
	}
	return out.dropZeros().matrix()
}

// ScaleCols returns a copy of m with column j multiplied by d[j].
func (m *Matrix) ScaleCols(d []float64) *Matrix {
	if len(d) != m.cols {
		panic("sparse: ScaleCols length mismatch")
	}
	out := m.flat()
	for k, c := range out.colIdx {
		out.val[k] *= d[c]
	}
	return out.dropZeros().matrix()
}

// Prune returns a copy of m with all entries of absolute value below eps
// removed. It implements the truncation speedup discussed in Section 4.6 of
// the paper: small reachable probabilities are dropped with bounded error.
func (m *Matrix) Prune(eps float64) *Matrix {
	out := &csr{rows: m.rows, cols: m.cols, page: page{rowPtr: make([]int, m.rows+1)}}
	for r := 0; r < m.rows; r++ {
		idx, val := m.row(r)
		for k, v := range val {
			if math.Abs(v) >= eps {
				out.colIdx = append(out.colIdx, idx[k])
				out.val = append(out.val, v)
			}
		}
		out.rowPtr[r+1] = len(out.val)
	}
	return out.matrix()
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
	out := &csr{rows: len(rows), cols: m.cols, page: newPage(len(rows), nnz)}
	for _, r := range rows {
		out.appendRow(m.row(r))
	}
	return out.matrix()
}

// Dense returns the matrix as a freshly allocated dense [][]float64.
func (m *Matrix) Dense() [][]float64 {
	d := make([][]float64, m.rows)
	for r := 0; r < m.rows; r++ {
		d[r] = m.RowDense(r, nil)
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
		ai, av := m.row(r)
		bi, bv := b.row(r)
		ka, kb := 0, 0
		for ka < len(ai) || kb < len(bi) {
			switch {
			case kb >= len(bi) || (ka < len(ai) && ai[ka] < bi[kb]):
				if math.Abs(av[ka]) > tol {
					return false
				}
				ka++
			case ka >= len(ai) || bi[kb] < ai[ka]:
				if math.Abs(bv[kb]) > tol {
					return false
				}
				kb++
			default:
				if math.Abs(av[ka]-bv[kb]) > tol {
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
	for r := 0; r < m.rows; r++ {
		_, val := m.row(r)
		for _, v := range val {
			s += v
		}
	}
	return s
}

// Clone returns a deep copy of m, contiguous.
func (m *Matrix) Clone() *Matrix { return m.flat().matrix() }

// Triplets returns the stored entries in row-major order.
func (m *Matrix) Triplets() []Triplet {
	ts := make([]Triplet, 0, m.nnz)
	for r := 0; r < m.rows; r++ {
		idx, val := m.row(r)
		for k, c := range idx {
			ts = append(ts, Triplet{r, c, val[k]})
		}
	}
	return ts
}

// String renders small matrices densely and large ones as a summary.
func (m *Matrix) String() string {
	if m.rows*m.cols > 400 {
		return fmt.Sprintf("sparse.Matrix(%dx%d, nnz=%d)", m.rows, m.cols, m.nnz)
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
