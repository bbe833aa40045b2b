package sparse

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestMulParallelMatchesSerial checks the parallel SpGEMM against the
// serial kernel across shapes, densities, and worker counts — row blocks
// are independent, so the outputs must be bit-identical, not just close.
func TestMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct{ ar, ac, bc int }{
		{1, 1, 1},
		{3, 7, 5},
		{50, 40, 60},
		{128, 64, 128},
		{200, 100, 150},
	} {
		for _, density := range []float64{0.02, 0.2, 0.7} {
			a := randomMatrix(rng, tc.ar, tc.ac, density)
			b := randomMatrix(rng, tc.ac, tc.bc, density)
			want := a.Mul(b)
			for _, workers := range []int{0, 1, 2, 3, 8, tc.ar + 5} {
				got := a.MulParallel(b, workers)
				if !got.Equal(want) {
					t.Fatalf("MulParallel(%dx%d * %dx%d, density %g, workers %d) != Mul",
						tc.ar, tc.ac, tc.ac, tc.bc, density, workers)
				}
			}
		}
	}
}

// TestMulParallelEmptyOperands covers the degenerate inputs the blocked
// kernel must not trip over: all-zero operands and empty rows.
func TestMulParallelEmptyOperands(t *testing.T) {
	a := Zeros(10, 6)
	b := Zeros(6, 4)
	got := a.MulParallel(b, 4)
	if got.NNZ() != 0 {
		t.Errorf("zero * zero has %d nonzeros", got.NNZ())
	}
	if r, c := got.Dims(); r != 10 || c != 4 {
		t.Errorf("dims = %dx%d, want 10x4", r, c)
	}
}

func TestMulParallelShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	Zeros(3, 4).MulParallel(Zeros(5, 2), 2)
}

// TestMulCtxMatchesMul checks the dispatching driver picks an equivalent
// kernel on both sides of the flop threshold.
func TestMulCtxMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	small := randomMatrix(rng, 10, 10, 0.3)
	if got, err := small.MulCtx(context.Background(), small); err != nil || !got.Equal(small.Mul(small)) {
		t.Errorf("MulCtx small != Mul (err %v)", err)
	}
	// Dense enough that the flop count crosses parallelFlopThreshold by
	// orders of magnitude (n³d² multiply-adds at both sizes); short mode
	// keeps the -race pass in `make check` quick.
	n := 1300
	if testing.Short() {
		n = 400
	}
	big := randomMatrix(rng, n, n, 0.5)
	if got, err := big.MulCtx(context.Background(), big); err != nil || !got.Equal(big.Mul(big)) {
		t.Errorf("MulCtx big != Mul (err %v)", err)
	}
}

// TestMulParallelConcurrentStress hammers the parallel kernel from many
// goroutines sharing the same operands. Run under -race (make check
// covers this package) it verifies the row-blocked workers never write
// outside their block and the shared operands are read-only.
func TestMulParallelConcurrentStress(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 120
	if testing.Short() {
		n = 60
	}
	a := randomMatrix(rng, n, n, 0.15)
	b := randomMatrix(rng, n, n, 0.15)
	want := a.Mul(b)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 2*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if got := a.MulParallel(b, 1+(g+i)%5); !got.Equal(want) {
					errs <- "concurrent MulParallel diverged from serial Mul"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
