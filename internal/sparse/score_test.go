package sparse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// refScores is what the score pass must return: the stored product's rows
// dotted with v by DotEntries and normed by WeightedRowNorms.
func refScores(a, b *Matrix, v *Vector, d []float64) (dots, norms []float64) {
	x, err := a.MulCtx(context.Background(), b)
	if err != nil {
		panic(err)
	}
	dots = make([]float64, x.rows)
	for r := range dots {
		dots[r] = v.DotEntries(x.RowEntries(r))
	}
	return dots, x.WeightedRowNorms(d)
}

// sameBits reports whether two slices hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// scoreCase draws a score-pass input: a with some empty and some one-entry
// rows, b, a vector over b's columns and, half the time, column weights.
func scoreCase(rng *rand.Rand, ar, ac, bc int, density, vDensity float64, ints bool) (a, b *Matrix, v *Vector, d []float64) {
	draw := randomMatrix
	if ints {
		draw = smallIntMatrix
	}
	a, b = draw(rng, ar, ac, density), draw(rng, ac, bc, density)
	var ts []Triplet
	for _, t := range a.Triplets() {
		switch t.Row % 4 {
		case 0: // emptied
		case 1: // kept to its first entry
			if idx, _ := a.row(t.Row); idx[0] == t.Col {
				ts = append(ts, t)
			}
		default:
			ts = append(ts, t)
		}
	}
	a = New(ar, ac, ts)
	v = draw(rng, 1, bc, vDensity).Row(0)
	if rng.Intn(2) == 0 {
		d = make([]float64, bc)
		for i := range d {
			d[i] = 2 * rng.Float64()
		}
	}
	return a, b, v, d
}

// checkScores holds the score pass on a * b to the stored product at
// tolerance 0, with its flop and entry counts.
func checkScores(t *testing.T, what string, a, b *Matrix, v *Vector, d []float64, workers int) RowScores {
	t.Helper()
	got, err := a.mulScore(context.Background(), b, v, d, workers)
	if err != nil {
		t.Fatal(err)
	}
	dots, norms := refScores(a, b, v, d)
	if !sameBits(got.Dots, dots) || !sameBits(got.Norms, norms) {
		t.Fatalf("%s: score pass dots %v norms %v, stored product %v %v", what, got.Dots, got.Norms, dots, norms)
	}
	if flops := a.mulFlops(b); got.Flops != flops || got.Entries != structuralNNZ(a, b) {
		t.Fatalf("%s: %d flops and %d entries, want %d and %d", what, got.Flops, got.Entries, flops, structuralNNZ(a, b))
	}
	return got
}

// mulFlops is the multiply-adds of a * b.
func (m *Matrix) mulFlops(b *Matrix) int {
	n := 0
	for r := 0; r < m.rows; r++ {
		idx, _ := m.row(r)
		for _, j := range idx {
			n += b.RowNNZ(j)
		}
	}
	return n
}

// TestMulScoreDifferential holds the score pass to MulCtx + DotEntries +
// WeightedRowNorms, bit for bit, over random shapes: empty and one-entry
// rows of a, rows that cancel to exact zeros, d nil and not, v far sparser
// and far denser than the product's rows (both of DotEntries' lookups),
// rows on both sides of the sweep crossover, and products past
// parallelFlopThreshold on 1 to 4 ranges. ScoreRows is held to the stored rows it selects the same way.
func TestMulScoreDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	shapes := []struct{ ar, ac, bc int }{
		{1, 1, 1}, {2, 9, 3}, {5, 40, 7}, {40, 30, 64}, {30, 60, 300}, {64, 8, 1000}, {200, 200, 200},
	}
	var sawSweep, sawSort, sawZero, sawShortV, sawLongV, sawParallel, sawWeights bool
	for _, sh := range shapes {
		for _, density := range []float64{0.02, 0.15, 0.6} {
			for _, vDensity := range []float64{0.01, 0.3, 1} {
				for _, ints := range []bool{false, true} {
					if sh.ar == 200 && density > 0.15 {
						continue
					}
					a, b, v, d := scoreCase(rng, sh.ar, sh.ac, sh.bc, density, vDensity, ints)
					x := a.Mul(b)
					for r := 0; r < x.rows; r++ {
						n := x.RowNNZ(r)
						sawSweep = sawSweep || swept(n, x.cols)
						sawSort = sawSort || (n > 1 && !swept(n, x.cols))
						sawShortV = sawShortV || (v.NNZ() > 0 && v.NNZ()*bits.Len(uint(n)) < n)
						sawLongV = sawLongV || (n > 0 && n*bits.Len(uint(v.NNZ())) < v.NNZ())
					}
					sawZero = sawZero || x.NNZ() < structuralNNZ(a, b)
					sawWeights = sawWeights || d != nil
					what := func(w int) string {
						return fmt.Sprintf("%dx%d * %dx%d, density %g, v density %g, workers %d", sh.ar, sh.ac, sh.ac, sh.bc, density, vDensity, w)
					}
					auto := checkScores(t, what(0), a, b, v, d, 0)
					sawParallel = sawParallel || auto.Flops >= parallelFlopThreshold
					for workers := 1; workers <= 4; workers++ {
						checkScores(t, what(workers), a, b, v, d, workers)
					}

					rows := make([]int, rng.Intn(2*b.rows+1))
					for i := range rows {
						rows[i] = rng.Intn(b.rows)
					}
					sel := b.ScoreRows(rows, v, d)
					sub := b.SelectRows(rows)
					for i := range rows {
						if dot := v.DotEntries(sub.RowEntries(i)); math.Float64bits(sel.Dots[i]) != math.Float64bits(dot) {
							t.Fatalf("%s: ScoreRows dot %v, stored row %v", what(0), sel.Dots[i], dot)
						}
					}
					if !sameBits(sel.Norms, sub.WeightedRowNorms(d)) || sel.Entries != sub.NNZ() || sel.Flops != 0 {
						t.Fatalf("%s: ScoreRows norms %v (%d entries, %d flops), stored rows %v", what(0), sel.Norms, sel.Entries, sel.Flops, sub.WeightedRowNorms(d))
					}
				}
			}
		}
	}
	if !sawSweep || !sawSort || !sawZero || !sawShortV || !sawLongV || !sawParallel || !sawWeights {
		t.Errorf("cases missed a path: sweep %v sort %v exact zero %v v sparser %v v denser %v parallel %v weights %v",
			sawSweep, sawSort, sawZero, sawShortV, sawLongV, sawParallel, sawWeights)
	}
	if n := scratchInUse.Load(); n != 0 {
		t.Errorf("%d scratches still out after the passes", n)
	}
}

// refDot is the plain merge: the intersection's terms, ascending, v's value
// times the row's.
func refDot(v *Vector, idx []int, val []float64) float64 {
	var s float64
	for a, b := 0, 0; a < len(v.idx) && b < len(idx); {
		switch {
		case v.idx[a] < idx[b]:
			a++
		case idx[b] < v.idx[a]:
			b++
		default:
			s += v.val[a] * val[b]
			a++
			b++
		}
	}
	return s
}

// TestDotEntriesWalksShorterSide holds DotEntries to the plain merge, bit
// for bit, on sides of every relative length: either far shorter (each of
// its indices looked up in the other) and comparable (merged).
func TestDotEntriesWalksShorterSide(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var vShort, rowShort, merged int
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(2000)
		v := randomMatrix(rng, 1, n, math.Pow(rng.Float64(), 3)).Row(0)
		w := smallIntMatrix(rng, 1, n, math.Pow(rng.Float64(), 3)).Row(0)
		switch lv, lw := v.NNZ(), w.NNZ(); {
		case lv > 0 && lv*bits.Len(uint(lw)) < lw:
			vShort++
		case lw > 0 && lw*bits.Len(uint(lv)) < lv:
			rowShort++
		default:
			merged++
		}
		if got, want := v.DotEntries(w.idx, w.val), refDot(v, w.idx, w.val); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: DotEntries %v, merge %v (%d and %d entries)", trial, got, want, v.NNZ(), w.NNZ())
		}
	}
	if vShort < 100 || rowShort < 100 || merged < 100 {
		t.Errorf("cases too thin: v looked up %d, row looked up %d, merged %d", vShort, rowShort, merged)
	}
}

// TestMulScoreCanceledMidPass cancels a score pass between row blocks,
// serial and parallel: ctx's error comes back, every scratch is back in the
// pool, and the next pass on the same pool is exact.
func TestMulScoreCanceledMidPass(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	a := randomMatrix(rng, 300, 300, 0.5)
	b := randomMatrix(rng, 300, 300, 0.5)
	v := randomMatrix(rng, 1, 300, 0.2).Row(0)
	if flops := a.mulFlops(b); flops < 8*pollFlops {
		t.Fatalf("product of %d flops is too small to be polled mid-way (pollFlops %d)", flops, pollFlops)
	}
	for _, workers := range []int{1, 4} {
		ctx := &pollCtx{Context: context.Background()}
		ctx.left.Store(3)
		got, err := a.mulScore(ctx, b, v, nil, workers)
		if !errors.Is(err, context.Canceled) || got.Dots != nil {
			t.Fatalf("workers %d: canceled pass returned (%d dots, %v)", workers, len(got.Dots), err)
		}
		if n := scratchInUse.Load(); n != 0 {
			t.Errorf("workers %d: %d scratch not returned to the pool", workers, n)
		}
		checkScores(t, "after a canceled pass", a, b, v, nil, workers)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.MulScore(ctx, b, v, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("pass on a canceled context: %v", err)
	}
}

// TestMulScoreSteadyStateAllocs pins what a serial score pass allocates once
// the pool holds a scratch: the flop prefix, the product state and the two
// result slices — nothing of the product's width or size.
func TestMulScoreSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	a := randomMatrix(rng, 60, 150, 0.05)
	b := randomMatrix(rng, 150, 5000, 0.02)
	v := randomMatrix(rng, 1, 5000, 0.01).Row(0)
	ctx := context.Background()
	run := func() { a.MulScore(ctx, b, v, nil) }
	least := testing.AllocsPerRun(1, run)
	for i := 0; i < 20; i++ {
		least = min(least, testing.AllocsPerRun(1, run))
	}
	if least > 4 {
		t.Errorf("MulScore allocates %v times per steady-state pass, want <= 4", least)
	}
}

// FuzzMulScore holds the score pass to the stored product on operands drawn
// from a seed: shape, densities, integer (cancelling) or normal values, and
// the number of ranges all come from the fuzzer.
func FuzzMulScore(f *testing.F) {
	for _, seed := range []struct {
		seed              int64
		ar, ac, bc        uint8
		density, vDensity uint8
		ints              bool
		workers           uint8
	}{
		{1, 1, 1, 1, 255, 255, false, 1},
		{2, 9, 3, 40, 40, 10, true, 2},
		{3, 40, 30, 200, 60, 200, true, 3},
		{4, 64, 8, 250, 30, 2, false, 1},
		{5, 120, 100, 100, 50, 80, true, 0},
		{6, 0, 5, 5, 100, 100, false, 2},
	} {
		f.Add(seed.seed, seed.ar, seed.ac, seed.bc, seed.density, seed.vDensity, seed.ints, seed.workers)
	}
	f.Fuzz(func(t *testing.T, seed int64, ar, ac, bc, density, vDensity uint8, ints bool, workers uint8) {
		if ac == 0 || bc == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		a, b, v, d := scoreCase(rng, int(ar), int(ac), int(bc), float64(density)/255, float64(vDensity)/255, ints)
		checkScores(t, "fuzz", a, b, v, d, int(workers%5))
		if n := scratchInUse.Load(); n != 0 {
			t.Fatalf("%d scratches still out", n)
		}
	})
}
