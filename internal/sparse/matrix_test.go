package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func mat(t *testing.T, d [][]float64) *Matrix {
	t.Helper()
	return FromDense(d)
}

func TestNewMergesDuplicatesAndDropsZeros(t *testing.T) {
	m := New(2, 3, []Triplet{
		{0, 1, 2}, {0, 1, 3}, // duplicates sum to 5
		{1, 2, 4}, {1, 2, -4}, // duplicates cancel to 0
		{1, 0, 7},
	})
	if got := m.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %v, want 5", got)
	}
	if got := m.At(1, 2); got != 0 {
		t.Errorf("At(1,2) = %v, want 0", got)
	}
	if got := m.NNZ(); got != 2 {
		t.Errorf("NNZ = %d, want 2 (cancelled entry must be dropped)", got)
	}
}

func TestNewOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range triplet")
		}
	}()
	New(2, 2, []Triplet{{2, 0, 1}})
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if got := m.At(i, j); got != want {
				t.Errorf("I(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	d := [][]float64{{1, 0, 2}, {0, 0, 0}, {3, 4, 0}}
	m := FromDense(d)
	if !reflect.DeepEqual(m.Dense(), d) {
		t.Errorf("Dense round trip mismatch: got %v want %v", m.Dense(), d)
	}
	if m.NNZ() != 4 {
		t.Errorf("NNZ = %d, want 4", m.NNZ())
	}
}

func TestTranspose(t *testing.T) {
	m := mat(t, [][]float64{{1, 2, 0}, {0, 3, 4}})
	mt := m.Transpose()
	r, c := mt.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("Transpose dims = %dx%d, want 3x2", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Errorf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulMatchesDense(t *testing.T) {
	a := mat(t, [][]float64{{1, 2, 0}, {0, 0, 3}})
	b := mat(t, [][]float64{{1, 0}, {0, 1}, {2, 2}})
	got := a.Mul(b).Dense()
	want := [][]float64{{1, 2}, {6, 6}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Zeros(2, 3).Mul(Zeros(2, 3))
}

func randomMatrix(rng *rand.Rand, rows, cols int, density float64) *Matrix {
	var ts []Triplet
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				ts = append(ts, Triplet{i, j, rng.NormFloat64()})
			}
		}
	}
	return New(rows, cols, ts)
}

func denseMul(a, b [][]float64) [][]float64 {
	rows, inner, cols := len(a), len(b), len(b[0])
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
		for k := 0; k < inner; k++ {
			for j := 0; j < cols; j++ {
				out[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return out
}

func TestMulRandomAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		r := 1 + rng.Intn(12)
		k := 1 + rng.Intn(12)
		c := 1 + rng.Intn(12)
		a := randomMatrix(rng, r, k, 0.3)
		b := randomMatrix(rng, k, c, 0.3)
		got := a.Mul(b)
		want := FromDense(denseMul(a.Dense(), b.Dense()))
		if !got.ApproxEqual(want, 1e-12) {
			t.Fatalf("trial %d: sparse Mul disagrees with dense reference", trial)
		}
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	// (AB)C == A(BC) — the identity that lets the HeteSim engine
	// concatenate partially materialized reachable probability matrices.
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 2+rng.Intn(8), 2+rng.Intn(8), 0.4)
		_, ac := a.Dims()
		b := randomMatrix(r, ac, 2+rng.Intn(8), 0.4)
		_, bc := b.Dims()
		c := randomMatrix(r, bc, 2+rng.Intn(8), 0.4)
		return a.Mul(b).Mul(c).ApproxEqual(a.Mul(b.Mul(c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 1+r.Intn(15), 1+r.Intn(15), 0.3)
		return a.Transpose().Transpose().Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMulTransposeProperty(t *testing.T) {
	// (AB)' == B'A' — underlies Property 2 of the paper (U_AB = V_BA').
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 1+r.Intn(10), 1+r.Intn(10), 0.4)
		_, ac := a.Dims()
		b := randomMatrix(r, ac, 1+r.Intn(10), 0.4)
		return a.Mul(b).Transpose().ApproxEqual(b.Transpose().Mul(a.Transpose()), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRowNormalize(t *testing.T) {
	m := mat(t, [][]float64{{1, 1, 2}, {0, 0, 0}, {5, 0, 0}})
	u := m.RowNormalize()
	want := [][]float64{{0.25, 0.25, 0.5}, {0, 0, 0}, {1, 0, 0}}
	if !u.ApproxEqual(FromDense(want), 1e-12) {
		t.Errorf("RowNormalize = %v, want %v", u.Dense(), want)
	}
	// Original must be unchanged (immutability).
	if m.At(0, 0) != 1 {
		t.Error("RowNormalize mutated its receiver")
	}
}

func TestColNormalize(t *testing.T) {
	m := mat(t, [][]float64{{1, 0}, {1, 0}, {2, 0}})
	v := m.ColNormalize()
	want := [][]float64{{0.25, 0}, {0.25, 0}, {0.5, 0}}
	if !v.ApproxEqual(FromDense(want), 1e-12) {
		t.Errorf("ColNormalize = %v, want %v", v.Dense(), want)
	}
}

func TestProperty2UequalsVTranspose(t *testing.T) {
	// Paper Property 2: U_AB = V_BA' and V_AB = U_BA'. With W_BA = W_AB',
	// row-normalizing W_AB must equal transposing the column-normalized
	// W_AB' (and vice versa).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := randomMatrix(r, 1+r.Intn(12), 1+r.Intn(12), 0.4)
		// Use absolute weights: adjacency matrices are non-negative.
		ts := w.Triplets()
		for i := range ts {
			ts[i].Val = math.Abs(ts[i].Val)
		}
		rr, cc := w.Dims()
		w = New(rr, cc, ts)
		u := w.RowNormalize()
		v := w.Transpose().ColNormalize().Transpose()
		return u.ApproxEqual(v, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMulVecAndVecMul(t *testing.T) {
	m := mat(t, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := m.MulVec([]float64{1, 10})
	want := []float64{21, 43, 65}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MulVec = %v, want %v", got, want)
	}
	got = m.VecMul([]float64{1, 0, 2})
	want = []float64{11, 14}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("VecMul = %v, want %v", got, want)
	}
}

func TestAddAndScale(t *testing.T) {
	a := mat(t, [][]float64{{1, 0}, {0, 2}})
	b := mat(t, [][]float64{{0, 3}, {0, -2}})
	sum := a.Add(b)
	want := [][]float64{{1, 3}, {0, 0}}
	if !sum.ApproxEqual(FromDense(want), 0) {
		t.Errorf("Add = %v, want %v", sum.Dense(), want)
	}
	if sum.NNZ() != 2 {
		t.Errorf("Add kept cancelled zero: NNZ = %d, want 2", sum.NNZ())
	}
	if got := a.Scale(2).At(1, 1); got != 4 {
		t.Errorf("Scale: got %v, want 4", got)
	}
	if got := a.Scale(0).NNZ(); got != 0 {
		t.Errorf("Scale(0) NNZ = %d, want 0", got)
	}
}

func TestRowColSumsAndNorms(t *testing.T) {
	m := mat(t, [][]float64{{3, 4}, {0, 0}, {1, 1}})
	if got := m.RowSums(); !reflect.DeepEqual(got, []float64{7, 0, 2}) {
		t.Errorf("RowSums = %v", got)
	}
	if got := m.ColSums(); !reflect.DeepEqual(got, []float64{4, 5}) {
		t.Errorf("ColSums = %v", got)
	}
	norms := m.RowNorms()
	if math.Abs(norms[0]-5) > 1e-12 || norms[1] != 0 {
		t.Errorf("RowNorms = %v", norms)
	}
}

func TestScaleRowsCols(t *testing.T) {
	m := mat(t, [][]float64{{1, 2}, {3, 4}})
	got := m.ScaleRows([]float64{2, 0})
	want := [][]float64{{2, 4}, {0, 0}}
	if !got.ApproxEqual(FromDense(want), 0) {
		t.Errorf("ScaleRows = %v, want %v", got.Dense(), want)
	}
	got = m.ScaleCols([]float64{0, 10})
	want = [][]float64{{0, 20}, {0, 40}}
	if !got.ApproxEqual(FromDense(want), 0) {
		t.Errorf("ScaleCols = %v, want %v", got.Dense(), want)
	}
}

func TestPrune(t *testing.T) {
	m := mat(t, [][]float64{{0.5, 1e-9}, {-1e-9, -0.5}})
	p := m.Prune(1e-6)
	if p.NNZ() != 2 {
		t.Errorf("Prune NNZ = %d, want 2", p.NNZ())
	}
	if p.At(0, 0) != 0.5 || p.At(1, 1) != -0.5 {
		t.Error("Prune dropped a large entry")
	}
}

func TestRowAccessors(t *testing.T) {
	m := mat(t, [][]float64{{0, 7, 0, 8}, {0, 0, 0, 0}})
	r := m.Row(0)
	if r.NNZ() != 2 || r.At(1) != 7 || r.At(3) != 8 {
		t.Errorf("Row(0) wrong: %v", r.Dense())
	}
	if m.RowNNZ(1) != 0 {
		t.Errorf("RowNNZ(1) = %d, want 0", m.RowNNZ(1))
	}
	d := m.RowDense(0, nil)
	if !reflect.DeepEqual(d, []float64{0, 7, 0, 8}) {
		t.Errorf("RowDense = %v", d)
	}
	// Reusing dst must clear stale values.
	d = m.RowDense(1, d)
	if !reflect.DeepEqual(d, []float64{0, 0, 0, 0}) {
		t.Errorf("RowDense with dst = %v, want zeros", d)
	}
}

func TestSelectRows(t *testing.T) {
	m := mat(t, [][]float64{{1, 0}, {0, 2}, {3, 4}})
	got := m.SelectRows([]int{2, 0, 2})
	want := [][]float64{{3, 4}, {1, 0}, {3, 4}}
	if !got.ApproxEqual(FromDense(want), 0) {
		t.Errorf("SelectRows = %v, want %v", got.Dense(), want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range row")
		}
	}()
	m.SelectRows([]int{3})
}

func TestTriplets(t *testing.T) {
	ts := []Triplet{{0, 1, 2}, {1, 0, 3}}
	m := New(2, 2, ts)
	if got := m.Triplets(); !reflect.DeepEqual(got, ts) {
		t.Errorf("Triplets = %v, want %v", got, ts)
	}
}

func TestSum(t *testing.T) {
	m := mat(t, [][]float64{{-3, 1}, {2, 0}})
	if got := m.Sum(); got != 0 {
		t.Errorf("Sum = %v, want 0", got)
	}
}

func TestStochasticChainStaysStochastic(t *testing.T) {
	// Products of row-stochastic matrices remain row-stochastic (when no
	// row is zero) — the invariant behind reachable probability matrices
	// (Definition 9).
	rng := rand.New(rand.NewSource(7))
	dims := []int{8, 5, 9, 4, 6}
	chain := Identity(dims[0])
	for i := 0; i+1 < len(dims); i++ {
		w := randomMatrix(rng, dims[i], dims[i+1], 0.6)
		ts := w.Triplets()
		for k := range ts {
			ts[k].Val = math.Abs(ts[k].Val) + 0.1
		}
		// Ensure no empty rows so stochasticity is exact.
		seen := make(map[int]bool)
		for _, tr := range ts {
			seen[tr.Row] = true
		}
		for r := 0; r < dims[i]; r++ {
			if !seen[r] {
				ts = append(ts, Triplet{r, rng.Intn(dims[i+1]), 1})
			}
		}
		chain = chain.Mul(New(dims[i], dims[i+1], ts).RowNormalize())
	}
	for r, s := range chain.RowSums() {
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("row %d sum = %v, want 1", r, s)
		}
	}
}

func TestStringSummarizesLargeMatrices(t *testing.T) {
	small := Identity(2)
	if s := small.String(); len(s) == 0 {
		t.Error("small String empty")
	}
	big := Zeros(100, 100)
	if s := big.String(); s != "sparse.Matrix(100x100, nnz=0)" {
		t.Errorf("big String = %q", s)
	}
}

func TestResize(t *testing.T) {
	m := New(2, 3, []Triplet{{0, 1, 2}, {1, 2, 3}})
	grown := m.Resize(4, 5)
	if r, c := grown.Dims(); r != 4 || c != 5 {
		t.Fatalf("Resize dims = %dx%d, want 4x5", r, c)
	}
	if grown.At(0, 1) != 2 || grown.At(1, 2) != 3 || grown.NNZ() != 2 {
		t.Fatalf("Resize lost entries: %v", grown)
	}
	for r := 2; r < 4; r++ {
		if grown.RowNNZ(r) != 0 {
			t.Fatalf("padded row %d is not empty", r)
		}
	}
	if same := m.Resize(2, 3); same != m {
		t.Error("no-op Resize should return the receiver")
	}
	defer func() {
		if recover() == nil {
			t.Error("shrinking Resize did not panic")
		}
	}()
	m.Resize(1, 3)
}

func TestReplaceRows(t *testing.T) {
	m := New(3, 3, []Triplet{{0, 0, 1}, {1, 1, 2}, {2, 2, 3}})
	repl := New(2, 3, []Triplet{{0, 2, 9}, {1, 0, 8}, {1, 1, 7}})
	out := m.ReplaceRows([]int{0, 2}, repl)
	want := FromDense([][]float64{{0, 0, 9}, {0, 2, 0}, {8, 7, 0}})
	if !out.Equal(want) {
		t.Fatalf("ReplaceRows = %v, want %v", out, want)
	}
	// Untouched rows must be bit-identical, with entries in the same order.
	if !m.Row(1).ApproxEqual(out.Row(1), 0) {
		t.Fatal("untouched row changed")
	}
	// Replacing every row with the rows of an identical matrix reproduces
	// the original bit for bit.
	all := m.ReplaceRows([]int{0, 1, 2}, m.SelectRows([]int{0, 1, 2}))
	if !all.Equal(m) {
		t.Fatal("identity ReplaceRows diverged")
	}
}

// sameArrays reports whether a and b hold the same CSR rows bit for bit,
// however they are paged (capacity aside).
func sameArrays(a, b *Matrix) bool {
	if a.rows != b.rows || a.cols != b.cols || a.nnz != b.nnz {
		return false
	}
	for r := 0; r < a.rows; r++ {
		ai, av := a.row(r)
		bi, bv := b.row(r)
		if !slices.Equal(ai, bi) || !slices.EqualFunc(av, bv, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) {
			return false
		}
	}
	return true
}

// TestSetCellsMatchesNew sets random cells, zeros (removals) included, on
// random matrices grown or not, and holds the result to New over the same
// final entries, array for array.
func TestSetCellsMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		m := randomMatrix(rng, rng.Intn(9), 1+rng.Intn(9), 0.3)
		rows, cols := m.rows+rng.Intn(3), m.cols+rng.Intn(3)
		final := map[[2]int]float64{}
		for _, tr := range m.Triplets() {
			final[[2]int{tr.Row, tr.Col}] = tr.Val
		}
		set := map[[2]int]float64{}
		for k := rng.Intn(6); k > 0 && rows > 0; k-- {
			c := [2]int{rng.Intn(rows), rng.Intn(cols)}
			if rng.Intn(3) == 0 {
				set[c] = 0
			} else {
				set[c] = float64(1 + rng.Intn(4))
			}
		}
		var cells, ts []Triplet
		for c, v := range set {
			cells = append(cells, Triplet{c[0], c[1], v})
			final[c] = v
		}
		slices.SortFunc(cells, func(a, b Triplet) int {
			if a.Row != b.Row {
				return a.Row - b.Row
			}
			return a.Col - b.Col
		})
		for c, v := range final {
			ts = append(ts, Triplet{c[0], c[1], v})
		}
		if got, want := m.SetCells(rows, cols, cells), New(rows, cols, ts); !sameArrays(got, want) {
			t.Fatalf("trial %d: SetCells(%v) on %v = %v, want %v", trial, cells, m.Triplets(), got.Triplets(), want.Triplets())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unsorted cells did not panic")
		}
	}()
	Identity(3).SetCells(3, 3, []Triplet{{1, 0, 1}, {0, 2, 1}})
}

// TestTransposeRowsMatchesTranspose holds TransposeRows to the selected rows
// of a full transpose, and ReplaceRows under a shuffled row order to the
// sorted one.
func TestTransposeRowsMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		m := randomMatrix(rng, 1+rng.Intn(8), 1+rng.Intn(8), 0.4)
		cols := rng.Perm(m.cols)[:rng.Intn(m.cols+1)]
		if got, want := m.TransposeRows(cols), m.Transpose().SelectRows(cols); !sameArrays(got, want) {
			t.Fatalf("TransposeRows(%v) = %v, want %v", cols, got.Triplets(), want.Triplets())
		}
		rows := rng.Perm(m.rows)[:rng.Intn(m.rows+1)]
		sub := randomMatrix(rng, len(rows), m.cols, 0.5)
		sorted := slices.Clone(rows)
		slices.Sort(sorted)
		perm := make([]int, len(rows)) // sub's rows in sorted order
		for i, r := range sorted {
			perm[i] = slices.Index(rows, r)
		}
		if got, want := m.ReplaceRows(rows, sub), m.ReplaceRows(sorted, sub.SelectRows(perm)); !sameArrays(got, want) {
			t.Fatalf("ReplaceRows(%v) = %v, sorted %v", rows, got.Triplets(), want.Triplets())
		}
	}
}
