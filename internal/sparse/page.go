package sparse

import (
	"fmt"
	"sort"
)

// The paged CSR layout. A matrix's rows are cut into pages of pageRows
// rows; each page is a window — rowPtr, colIdx, val — onto whatever arrays
// built it. Every constructor except the copy-on-write ones fills one
// contiguous csr and cuts it into windows (matrix), so a product, a
// transpose or a decoded matrix is one allocation as before. ReplaceRows,
// SetCells and Resize allocate only the pages that hold a changed row and
// share every other page with their source: matrices are immutable, so an
// edge delta's few dirty rows cost their pages, not the matrix.

const (
	// pageShift fixes the page size at 256 rows: the fingerprint's 256-row
	// sections (hin), so a dirty row dirties one page and one section, and
	// a page of a paper-scale chain is a few tens of KB — small next to the
	// matrix a splice used to copy, large enough that a product's pages
	// array stays a few KB.
	pageShift = 8
	pageRows  = 1 << pageShift
)

// page is rows [p·pageRows, p·pageRows+len(rowPtr)-1) of a matrix: row k of
// the page holds entries rowPtr[k]..rowPtr[k+1] of colIdx and val. rowPtr
// has exactly one more element than the page has rows.
type page struct {
	rowPtr []int
	colIdx []int
	val    []float64
}

// emptyRowPtr is the row pointer array of every all-empty page.
var emptyRowPtr [pageRows + 1]int

// newPage returns a page with room for n rows and nnz entries, which
// appendRow fills.
func newPage(n, nnz int) page {
	return page{rowPtr: make([]int, 1, n+1), colIdx: make([]int, 0, nnz), val: make([]float64, 0, nnz)}
}

func (p *page) appendRow(idx []int, val []float64) {
	p.colIdx = append(p.colIdx, idx...)
	p.val = append(p.val, val...)
	p.rowPtr = append(p.rowPtr, len(p.val))
}

// nnz returns the number of entries the page holds.
func (p *page) nnz() int { return p.rowPtr[len(p.rowPtr)-1] - p.rowPtr[0] }

// entries returns every entry the page holds, row after row, as one block:
// for the readers that need no row index.
func (p *page) entries() ([]int, []float64) {
	lo, hi := p.rowPtr[0], p.rowPtr[len(p.rowPtr)-1]
	return p.colIdx[lo:hi], p.val[lo:hi]
}

// row is the way into a matrix's storage: row i's column indices and
// values, ascending by column, as views capped at the row's end. Only the
// page layer itself (flat, grown) and the column counts of a transpose,
// which need no row index, read a page's entries whole (entries).
func (m *Matrix) row(i int) ([]int, []float64) {
	p := &m.pages[i>>pageShift]
	k := i & (pageRows - 1)
	lo, hi := p.rowPtr[k], p.rowPtr[k+1]
	return p.colIdx[lo:hi:hi], p.val[lo:hi:hi]
}

// csr is one contiguous CSR build — a page as long as the matrix — that a
// constructor fills before matrix cuts it into page windows.
type csr struct {
	rows, cols int
	page
}

// matrix cuts c into page windows over its arrays, which it takes over.
func (c *csr) matrix() *Matrix {
	m := &Matrix{rows: c.rows, cols: c.cols, nnz: c.nnz(), pages: make([]page, (c.rows+pageRows-1)>>pageShift)}
	for p := range m.pages {
		lo := p << pageShift
		hi := min(lo+pageRows, c.rows)
		m.pages[p] = page{rowPtr: c.rowPtr[lo : hi+1 : hi+1], colIdx: c.colIdx, val: c.val}
	}
	return m
}

// dropZeros removes explicit zeros left behind by cancellation in duplicate
// merging or arithmetic. It compacts in place and returns the receiver.
func (c *csr) dropZeros() *csr {
	n := 0
	for r := 0; r < c.rows; r++ {
		k := c.rowPtr[r]
		c.rowPtr[r] = n
		for ; k < c.rowPtr[r+1]; k++ {
			if c.val[k] == 0 {
				continue
			}
			if n != k { // nothing dropped yet: the entry is already in place
				c.colIdx[n], c.val[n] = c.colIdx[k], c.val[k]
			}
			n++
		}
	}
	c.rowPtr[c.rows] = n
	c.colIdx, c.val = c.colIdx[:n], c.val[:n]
	return c
}

// flat returns a contiguous copy of m's arrays, for the operations that
// rewrite every value in place. Each page's entries are contiguous in its
// arrays, so the copy is one block per page.
func (m *Matrix) flat() *csr {
	c := &csr{rows: m.rows, cols: m.cols, page: page{rowPtr: make([]int, m.rows+1),
		colIdx: make([]int, 0, m.nnz), val: make([]float64, 0, m.nnz)}}
	for p := range m.pages {
		pg := &m.pages[p]
		base, off := p<<pageShift, len(c.val)-pg.rowPtr[0]
		for k := 1; k < len(pg.rowPtr); k++ {
			c.rowPtr[base+k] = pg.rowPtr[k] + off
		}
		idx, val := pg.entries()
		c.colIdx = append(c.colIdx, idx...)
		c.val = append(c.val, val...)
	}
	return c
}

// grown returns m padded to the given shape, which callers have checked
// is never smaller, over a pages array of its own: m's pages are shared, a
// partial last page that gains rows shares its entries under a longer row
// pointer, and the pages past m's are empty.
func (m *Matrix) grown(rows, cols int) *Matrix {
	out := &Matrix{rows: rows, cols: cols, nnz: m.nnz, pages: make([]page, (rows+pageRows-1)>>pageShift)}
	copy(out.pages, m.pages)
	for p := m.rows >> pageShift; p < len(out.pages); p++ {
		n := min(rows-p<<pageShift, pageRows)
		if p >= len(m.pages) {
			out.pages[p] = page{rowPtr: emptyRowPtr[: n+1 : n+1]}
			continue
		}
		old := m.pages[p]
		if have := len(old.rowPtr) - 1; have < n {
			rp := make([]int, n+1)
			copy(rp, old.rowPtr)
			for k := have + 1; k <= n; k++ {
				rp[k] = rp[have]
			}
			out.pages[p] = page{rowPtr: rp, colIdx: old.colIdx, val: old.val}
		}
	}
	return out
}

// Resize returns the matrix padded to the given (never smaller) dimensions.
// Existing entries keep their positions and values bit for bit (every page
// is shared; only a partial last page that gains rows gets a longer row
// pointer); the new rows and columns are empty — exactly what a freshly
// materialized chain over a graph that only gained (edge-less) nodes would
// contain, which is why incremental maintenance can pad a cached chain
// instead of rebuilding it.
func (m *Matrix) Resize(rows, cols int) *Matrix {
	if rows < m.rows || cols < m.cols {
		panic(fmt.Sprintf("sparse: Resize to %dx%d would shrink a %dx%d matrix",
			rows, cols, m.rows, m.cols))
	}
	if rows == m.rows && cols == m.cols {
		return m
	}
	return m.grown(rows, cols)
}

// ReplaceRows returns a copy of the matrix with row rows[i] replaced by row
// i of src, all other rows kept bit for bit. src must have the same column
// count; row indices may not repeat. This is the row-masked update of
// incremental chain maintenance: recompute only the dirty rows, splice them
// into the cached matrix. Only the pages holding a replaced row are
// rebuilt; the result shares every other page with m.
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
	for k, i := range order {
		r := rows[i]
		if r < 0 || r >= m.rows {
			panic(fmt.Sprintf("sparse: ReplaceRows row %d out of range for %d rows", r, m.rows))
		}
		if k > 0 && rows[order[k-1]] == r {
			panic(fmt.Sprintf("sparse: ReplaceRows row %d repeated", r))
		}
	}
	out := m.grown(m.rows, m.cols)
	for k := 0; k < len(order); {
		p := rows[order[k]] >> pageShift
		j := k + 1 // order[k:j] replace rows of page p
		for j < len(order) && rows[order[j]]>>pageShift == p {
			j++
		}
		old := &m.pages[p]
		n, nnz := len(old.rowPtr)-1, old.nnz()
		for _, i := range order[k:j] {
			nnz += src.RowNNZ(i) - m.RowNNZ(rows[i])
		}
		pg := newPage(n, nnz)
		for r := p << pageShift; r < p<<pageShift+n; r++ {
			if k < j && rows[order[k]] == r {
				pg.appendRow(src.row(order[k]))
				k++
			} else {
				pg.appendRow(m.row(r))
			}
		}
		out.nnz += pg.nnz() - old.nnz()
		out.pages[p] = pg
	}
	return out
}

// SetCells returns the matrix grown to rows x cols (never smaller) with the
// given cells set: each cell's value replaces the entry at its coordinate,
// and a zero value removes it. cells must be sorted by (row, col) with no
// coordinate repeated. Only the pages holding a named row are rebuilt —
// each named row a sorted merge of its old entries and its cells — and
// the result shares every other page with m, so the cost is those pages
// plus the cells, and the result holds bit for bit the entries New builds
// from the same final cells.
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
	out := m.grown(rows, cols)
	for i := 0; i < len(cells); {
		p := cells[i].Row >> pageShift
		j := i + 1 // cells[i:j] fall in page p
		for j < len(cells) && cells[j].Row>>pageShift == p {
			j++
		}
		old := out.pages[p] // m's page, padded if it grew
		n := len(old.rowPtr) - 1
		pg := newPage(n, old.nnz()+j-i)
		for r := p << pageShift; r < p<<pageShift+n; r++ {
			idx, val := out.row(r)
			if i == j || cells[i].Row != r {
				pg.appendRow(idx, val)
				continue
			}
			k := 0
			for ; i < j && cells[i].Row == r; i++ {
				c := cells[i]
				for ; k < len(idx) && idx[k] < c.Col; k++ {
					pg.colIdx, pg.val = append(pg.colIdx, idx[k]), append(pg.val, val[k])
				}
				if k < len(idx) && idx[k] == c.Col {
					k++
				}
				if c.Val != 0 {
					pg.colIdx, pg.val = append(pg.colIdx, c.Col), append(pg.val, c.Val)
				}
			}
			pg.appendRow(idx[k:], val[k:])
		}
		out.nnz += pg.nnz() - old.nnz()
		out.pages[p] = pg
	}
	return out
}
