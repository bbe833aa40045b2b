package sparse

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 1+rng.Intn(20), 1+rng.Intn(20), 0.3)
		var buf bytes.Buffer
		if err := WriteMatrix(&buf, m); err != nil {
			return false
		}
		got, err := ReadMatrix(&buf)
		if err != nil {
			return false
		}
		return got.Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMatrixRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, Zeros(3, 0)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, c := got.Dims()
	if r != 3 || c != 0 || got.NNZ() != 0 {
		t.Errorf("round trip = %dx%d nnz=%d", r, c, got.NNZ())
	}
}

func TestReadMatrixRejectsCorruption(t *testing.T) {
	m := FromDense([][]float64{{1, 0}, {0, 2}})
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), good[4:]...),
		"truncated":   good[:len(good)-5],
		"bad version": append(append([]byte{}, good[:4]...), append([]byte{9, 0, 0, 0}, good[8:]...)...),
	}
	for name, data := range cases {
		if _, err := ReadMatrix(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
	}

	// Flip a column index out of range (colIdx section starts after
	// magic+version+3 u64 header+3 u64 rowPtr).
	bad := append([]byte{}, good...)
	off := 4 + 4 + 3*8 + 3*8
	bad[off] = 0xFF
	bad[off+1] = 0xFF
	if _, err := ReadMatrix(bytes.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("corrupt column: err = %v, want ErrBadFormat", err)
	}
}

func TestMulParallelMatchesMul(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 1+rng.Intn(40), 1+rng.Intn(30), 0.2)
		_, ac := a.Dims()
		b := randomMatrix(rng, ac, 1+rng.Intn(30), 0.2)
		for _, workers := range []int{0, 1, 3, 16} {
			if !a.MulParallel(b, workers).Equal(a.Mul(b)) {
				return false
			}
		}
		got, err := a.MulCtx(context.Background(), b)
		return err == nil && got.Equal(a.Mul(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMulParallelLarge(t *testing.T) {
	// Exercise the genuinely parallel path above the flop threshold.
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 600, 600, 0.05)
	b := randomMatrix(rng, 600, 600, 0.05)
	if !a.MulParallel(b, 4).ApproxEqual(a.Mul(b), 0) {
		t.Error("parallel result differs on large product")
	}
	if got, err := a.MulCtx(context.Background(), b); err != nil || !got.ApproxEqual(a.Mul(b), 0) {
		t.Errorf("MulCtx differs on large product (err %v)", err)
	}
}

func BenchmarkSpGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomMatrix(rng, 2000, 2000, 0.01)
	y := randomMatrix(rng, 2000, 2000, 0.01)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.Mul(y)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.MulParallel(y, 0)
		}
	})
}
