package sparse

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// samePage reports whether a and b are the same page: the same three
// arrays under the same row pointer window, not merely equal contents.
func samePage(a, b page) bool {
	return len(a.rowPtr) == len(b.rowPtr) && unsafe.SliceData(a.rowPtr) == unsafe.SliceData(b.rowPtr) &&
		unsafe.SliceData(a.colIdx) == unsafe.SliceData(b.colIdx) && unsafe.SliceData(a.val) == unsafe.SliceData(b.val)
}

// cellMap is a matrix's entries by coordinate: the truth every paged
// result is held to through New.
type cellMap map[[2]int]float64

func cellsOf(m *Matrix) cellMap {
	c := cellMap{}
	for _, t := range m.Triplets() {
		c[[2]int{t.Row, t.Col}] = t.Val
	}
	return c
}

func (c cellMap) matrix(rows, cols int) *Matrix {
	var ts []Triplet
	for k, v := range c {
		if v != 0 {
			ts = append(ts, Triplet{k[0], k[1], v})
		}
	}
	return New(rows, cols, ts)
}

// pagedFixture is 700 x 40: a full page 0, an empty page 1 (rows 256..511)
// and a partial last page 2 (rows 512..699).
func pagedFixture(rng *rand.Rand) *Matrix {
	var ts []Triplet
	for r := 0; r < 700; r++ {
		if r>>pageShift == 1 {
			continue
		}
		for c := 0; c < 40; c++ {
			if rng.Float64() < 0.2 {
				ts = append(ts, Triplet{r, c, rng.NormFloat64()})
			}
		}
	}
	return New(700, 40, ts)
}

// checkPaged holds got to New over want's cells — row for row, bit for bit,
// and byte for byte once serialized — every page of got that holds no row
// in touched and kept its row count to src's page itself, and every page
// that holds one to a page of its own.
func checkPaged(t *testing.T, what string, src, got *Matrix, want cellMap, touched []int) {
	t.Helper()
	ref := want.matrix(got.rows, got.cols)
	if !sameArrays(got, ref) {
		t.Fatalf("%s: rows differ from New over the same cells", what)
	}
	var gb, rb bytes.Buffer
	if err := WriteMatrix(&gb, got); err != nil {
		t.Fatal(err)
	}
	if err := WriteMatrix(&rb, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), rb.Bytes()) {
		t.Fatalf("%s: serialized bytes differ from New's", what)
	}
	if len(got.pages) != (got.rows+pageRows-1)/pageRows {
		t.Fatalf("%s: %d pages for %d rows", what, len(got.pages), got.rows)
	}
	for p := range got.pages {
		if want := min(got.rows-p*pageRows, pageRows) + 1; len(got.pages[p].rowPtr) != want {
			t.Fatalf("%s: page %d has %d row pointers, want %d", what, p, len(got.pages[p].rowPtr), want)
		}
		hit := slices.ContainsFunc(touched, func(r int) bool { return r>>pageShift == p })
		kept := p < len(src.pages) && len(src.pages[p].rowPtr) == len(got.pages[p].rowPtr)
		if shared := kept && samePage(got.pages[p], src.pages[p]); shared == hit && (hit || kept) {
			t.Errorf("%s: page %d shared=%v, but touched=%v", what, p, shared, hit)
		}
	}
}

// TestReplaceRowsPaged replaces rows around page edges, rows of the empty
// page, the partial last page and every row of one page, and holds each
// result to New over the same final cells, with every untouched page
// shared with the source.
func TestReplaceRowsPaged(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := pagedFixture(rng)
	page0 := make([]int, pageRows)
	for i := range page0 {
		page0[i] = i
	}
	for _, rows := range [][]int{
		nil,
		{255, 256, 257},
		{257, 255}, // unsorted
		{300, 400}, // rows of the empty page
		{699},      // the partial last page's last row
		{512, 3},   // the partial last page and page 0
		page0,      // every row of page 0
		{0, 511, 512, 699},
	} {
		sub := randomMatrix(rng, len(rows), m.cols, 0.3)
		want := cellsOf(m)
		for k := range want {
			if slices.Contains(rows, k[0]) {
				delete(want, k)
			}
		}
		for i, r := range rows {
			idx, val := sub.row(i)
			for k, c := range idx {
				want[[2]int{r, c}] = val[k]
			}
		}
		checkPaged(t, "ReplaceRows", m, m.ReplaceRows(rows, sub), want, rows)
	}
	// Emptying every row of one page leaves it empty, still one page.
	empty := m.ReplaceRows(page0, Zeros(pageRows, m.cols))
	if empty.RowNNZ(0) != 0 || empty.pages[0].nnz() != 0 || empty.NNZ() != m.NNZ()-m.pages[0].nnz() {
		t.Errorf("emptied page 0: nnz %d, page nnz %d", empty.NNZ(), empty.pages[0].nnz())
	}
}

// TestSetCellsPaged sets and deletes cells around page edges, in the empty
// page, in rows a partial last page gains and in a page the growth adds,
// and holds each result to New over the same final cells.
func TestSetCellsPaged(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := pagedFixture(rng)
	some := func(r int) int { // a column row r holds, or 0
		if idx, _ := m.row(r); len(idx) > 0 {
			return idx[0]
		}
		return 0
	}
	for _, tc := range []struct {
		rows, cols int
		cells      []Triplet
	}{
		{700, 40, nil},
		{700, 40, []Triplet{{255, 1, 2}, {256, 0, 3}, {257, some(257), 0}, {257, 39, 1}}},
		{700, 40, []Triplet{{0, some(0), 0}, {300, 5, 1.5}, {699, 2, 7}}},
		{710, 45, []Triplet{{699, 44, 1}, {705, 0, 2}}},                  // the partial page grows
		{800, 40, []Triplet{{3, some(3), 0}, {767, 1, 1}, {790, 39, 4}}}, // and a new page follows
		{1024, 40, nil}, // growth to a page boundary
	} {
		want := cellsOf(m)
		var touched []int
		for _, c := range tc.cells {
			want[[2]int{c.Row, c.Col}] = c.Val
			touched = append(touched, c.Row)
		}
		checkPaged(t, "SetCells", m, m.SetCells(tc.rows, tc.cols, tc.cells), want, touched)
		if tc.cells == nil {
			checkPaged(t, "Resize", m, m.Resize(tc.rows, tc.cols), want, nil)
		}
	}
	// A matrix a whole page long grows by one row into a new page.
	full := randomMatrix(rng, pageRows, 6, 0.3)
	checkPaged(t, "Resize", full, full.Resize(pageRows+1, 6), cellsOf(full), nil)
	grown := full.SetCells(pageRows+1, 6, []Triplet{{pageRows, 5, 1}})
	want := cellsOf(full)
	want[[2]int{pageRows, 5}] = 1
	checkPaged(t, "SetCells", full, grown, want, []int{pageRows})
	// A partial last page that grows shares its entries, if not its row
	// pointers.
	r := m.Resize(750, 40)
	if old, p := m.pages[2], r.pages[2]; samePage(old, p) || unsafe.SliceData(old.colIdx) != unsafe.SliceData(p.colIdx) {
		t.Error("the grown partial page should share its entries under new row pointers")
	}
}

// TestPagedGenerations chains random ReplaceRows, SetCells and Resize calls
// over many generations — pages built by one op are patched by the next —
// and holds every generation to New over its cells.
func TestPagedGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := randomMatrix(rng, 300, 30, 0.1)
	want := cellsOf(m)
	for gen := 0; gen < 60; gen++ {
		var out *Matrix
		var touched []int
		switch rng.Intn(3) {
		case 0:
			rows := rng.Perm(m.rows)[:rng.Intn(6)]
			sub := randomMatrix(rng, len(rows), m.cols, 0.2)
			for k := range want {
				if slices.Contains(rows, k[0]) {
					delete(want, k)
				}
			}
			for i, r := range rows {
				idx, val := sub.row(i)
				for k, c := range idx {
					want[[2]int{r, c}] = val[k]
				}
			}
			out, touched = m.ReplaceRows(rows, sub), rows
		case 1:
			rows, cols := m.rows+rng.Intn(80), m.cols+rng.Intn(2)
			set := cellMap{}
			for k := rng.Intn(8); k > 0; k-- {
				c := [2]int{rng.Intn(rows), rng.Intn(cols)}
				set[c] = float64(rng.Intn(3)) // a third are deletions
			}
			var cells []Triplet
			for c, v := range set {
				cells = append(cells, Triplet{c[0], c[1], v})
				want[c] = v
				touched = append(touched, c[0])
			}
			slices.SortFunc(cells, func(a, b Triplet) int {
				if a.Row != b.Row {
					return a.Row - b.Row
				}
				return a.Col - b.Col
			})
			out = m.SetCells(rows, cols, cells)
		default:
			out = m.Resize(m.rows+rng.Intn(300), m.cols)
		}
		checkPaged(t, "generation", m, out, want, touched)
		m = out
	}
}
