package sparse

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// refMul is the naive reference product with the kernel's accumulation
// order: every output entry starts at +0 and adds its terms ascending over
// a's row, then ascending over b's row; exact zeros are dropped.
func refMul(a, b *Matrix) *Matrix {
	var ts []Triplet
	for r := 0; r < a.rows; r++ {
		acc := make([]float64, b.cols)
		hit := make([]bool, b.cols)
		aIdx, aVal := a.row(r)
		for k, j := range aIdx {
			bIdx, bVal := b.row(j)
			for kb, c := range bIdx {
				hit[c] = true
				acc[c] += aVal[k] * bVal[kb]
			}
		}
		for c, v := range acc {
			if hit[c] && v != 0 {
				ts = append(ts, Triplet{r, c, v})
			}
		}
	}
	return New(a.rows, b.cols, ts)
}

// smallIntMatrix draws entries from {-2,-1,1,2}, so sums cancel to exactly
// zero often and the kernel's drop-zeros path runs on most products.
func smallIntMatrix(rng *rand.Rand, rows, cols int, density float64) *Matrix {
	vals := []float64{-2, -1, 1, 2}
	var ts []Triplet
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				ts = append(ts, Triplet{i, j, vals[rng.Intn(len(vals))]})
			}
		}
	}
	return New(rows, cols, ts)
}

// TestMulDifferential holds every entry point to the reference, bit for bit:
// shapes with empty rows and columns, output rows on both sides of the sweep
// crossover (swept reports which), single-entry rows of a,
// exact cancellation, 1 to 8 workers, and more workers than rows (ranges of
// one row).
func TestMulDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := []struct{ ar, ac, bc int }{
		{1, 1, 1}, {2, 9, 3}, {5, 40, 7}, {40, 30, 64}, {30, 60, 300}, {64, 8, 1000},
	}
	draws := []func(*rand.Rand, int, int, float64) *Matrix{randomMatrix, smallIntMatrix}
	sawSweep, sawSort, sawZero := false, false, false
	for _, sh := range shapes {
		for _, density := range []float64{0.02, 0.15, 0.6} {
			for _, draw := range draws {
				a, b := draw(rng, sh.ar, sh.ac, density), draw(rng, sh.ac, sh.bc, density)
				want := refMul(a, b)
				for r := 0; r < want.rows; r++ {
					n := want.RowNNZ(r)
					sawSweep = sawSweep || swept(n, want.cols)
					sawSort = sawSort || (n > 1 && !swept(n, want.cols))
				}
				got := a.Mul(b)
				if !got.Equal(want) {
					t.Fatalf("Mul(%dx%d * %dx%d, density %g) != reference", sh.ar, sh.ac, sh.ac, sh.bc, density)
				}
				for _, tr := range got.Triplets() {
					if tr.Val == 0 {
						t.Fatal("Mul stored an explicit zero")
					}
				}
				sawZero = sawZero || got.NNZ() < structuralNNZ(a, b)
				for workers := 1; workers <= 8; workers++ {
					if !a.MulParallel(b, workers).Equal(want) {
						t.Fatalf("MulParallel(%dx%d * %dx%d, density %g, workers %d) != reference",
							sh.ar, sh.ac, sh.ac, sh.bc, density, workers)
					}
				}
				if c, err := a.MulCtx(context.Background(), b); err != nil || !c.Equal(want) {
					t.Fatalf("MulCtx != reference (err %v)", err)
				}
			}
		}
	}
	if !sawSweep || !sawSort || !sawZero {
		t.Errorf("cases missed a kernel path: sweep %v, sort %v, exact cancellation %v", sawSweep, sawSort, sawZero)
	}
}

// structuralNNZ counts the distinct (row, column) pairs a*b touches, zero or
// not.
func structuralNNZ(a, b *Matrix) int {
	n := 0
	for r := 0; r < a.rows; r++ {
		hit := map[int]bool{}
		aIdx, _ := a.row(r)
		for _, j := range aIdx {
			bIdx, _ := b.row(j)
			for _, c := range bIdx {
				hit[c] = true
			}
		}
		n += len(hit)
	}
	return n
}

// pollCtx reports canceled from its n-th Err call on.
type pollCtx struct {
	context.Context
	left atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestMulCtxCanceledMidProduct cancels a product between row blocks, serial
// and parallel: the error comes back, every scratch is back in the pool (and
// clean — the next product is exact), and no kernel goroutine is left.
func TestMulCtxCanceledMidProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(rng, 300, 300, 0.5)
	b := randomMatrix(rng, 300, 300, 0.5)
	want := a.Mul(b)
	if flops := 300 * 150 * 150; flops < 8*pollFlops {
		t.Fatalf("product of ~%d flops is too small to be polled mid-way (pollFlops %d)", flops, pollFlops)
	}
	for _, workers := range []int{1, 4} {
		ctx := &pollCtx{Context: context.Background()}
		ctx.left.Store(3)
		out, err := a.mul(ctx, b, workers, recordMul)
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("workers %d: canceled product returned (%v, %v)", workers, out, err)
		}
		if n := scratchInUse.Load(); n != 0 {
			t.Errorf("workers %d: %d scratch not returned to the pool", workers, n)
		}
		if !a.MulParallel(b, workers).Equal(want) {
			t.Errorf("workers %d: product after a canceled one diverged (dirty scratch?)", workers)
		}
	}
	var stacks string
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		buf := make([]byte, 1<<20)
		stacks = string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "sparse.(*product)") {
			return
		}
	}
	t.Errorf("kernel goroutines outlived their product:\n%s", stacks)
}

// TestMulSteadyStateAllocs pins the kernel's allocation count: the flop
// prefix, the range cuts, the product state, and the output's header and
// three slices — nothing per row, nothing that grows. The minimum over
// several trials is the steady state: a GC cycle (or the race detector,
// which makes sync.Pool drop a quarter of its Puts) empties the pool now
// and then, and that trial pays for a fresh scratch.
func TestMulSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomMatrix(rng, 200, 150, 0.1)
	b := randomMatrix(rng, 150, 180, 0.1)
	least := testing.AllocsPerRun(1, func() { a.Mul(b) })
	for i := 0; i < 20; i++ {
		least = min(least, testing.AllocsPerRun(1, func() { a.Mul(b) }))
	}
	if least > 7 {
		t.Errorf("Mul allocates %v times per steady-state product, want <= 7", least)
	}
}

// eachDense collects a MulMatEach scan into a dense vector, checking that no
// column is visited twice.
func eachDense(t *testing.T, v *Vector, m *Matrix) []float64 {
	t.Helper()
	got := make([]float64, m.cols)
	seen := make([]bool, m.cols)
	v.MulMatEach(m, func(c int, x float64) {
		if seen[c] {
			t.Fatalf("column %d visited twice", c)
		}
		seen[c], got[c] = true, x
	})
	return got
}

// TestMulMatEachDifferential holds the pooled scan to MulMat bit for bit, on
// operands whose widths grow and shrink from one call to the next (so a
// pooled scratch is wider than, narrower than and equal to what a call needs)
// and whose sums cancel exactly (the scan visits those, MulMat drops them).
func TestMulMatEachDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(400)
		m := smallIntMatrix(rng, rows, cols, 0.05+0.4*rng.Float64())
		v := smallIntMatrix(rng, 1, rows, 0.5).Row(0)
		if got, want := eachDense(t, v, m), v.MulMat(m).Dense(); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%dx%d): scan %v, MulMat %v", trial, rows, cols, got, want)
		}
	}
	if n := scratchInUse.Load(); n != 0 {
		t.Errorf("%d scratches still out after the scans", n)
	}
}

// TestScratchGenerationWrap drives a scratch's generation counter over its
// maximum with stale marks in place: marks left by the generations before
// the wrap (1, 2, …) must not pass for marks of the generations after it.
func TestScratchGenerationWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	m := smallIntMatrix(rng, 30, 50, 0.3)
	s := getScratch(m.cols)
	for c := range s.mark {
		s.mark[c] = 1 + c%3 // what early generations of a long-lived scratch leave behind
	}
	s.gen = math.MaxInt - 2
	for step := 0; step < 6; step++ {
		v := smallIntMatrix(rng, 1, m.rows, 0.4).Row(0)
		n := s.scatter(v.idx, v.val, m, true)
		got := make([]float64, m.cols)
		for _, c := range s.cols[:n] {
			got[c], s.acc[c] = s.acc[c], 0
		}
		want := make([]float64, m.cols)
		for k, j := range v.idx {
			idx, val := m.row(j)
			for kb, c := range idx {
				want[c] += v.val[k] * val[kb]
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (gen %d): scatter %v, want %v", step, s.gen, got, want)
		}
	}
	if s.gen != 4 {
		t.Errorf("generation %d after six rows from MaxInt-2, want 4 (wrapped to 1 on the third)", s.gen)
	}
	putScratch(s)
}

// TestMulMatEachSteadyStateAllocs: the scan allocates nothing once the pool
// holds a scratch (minimum over trials, as for TestMulSteadyStateAllocs).
func TestMulMatEachSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomMatrix(rng, 150, 5000, 0.02)
	v := randomMatrix(rng, 1, 150, 0.3).Row(0)
	var sum float64
	visit := func(_ int, x float64) { sum += x }
	least := testing.AllocsPerRun(1, func() { v.MulMatEach(m, visit) })
	for i := 0; i < 20; i++ {
		least = min(least, testing.AllocsPerRun(1, func() { v.MulMatEach(m, visit) }))
	}
	if least != 0 {
		t.Errorf("MulMatEach allocates %v times per steady-state scan, want 0", least)
	}
}
