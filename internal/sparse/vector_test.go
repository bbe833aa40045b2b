package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewVectorMergesAndDrops(t *testing.T) {
	v := NewVector(5, []int{3, 1, 3, 2, 2}, []float64{1, 4, 2, 5, -5})
	if got := v.At(3); got != 3 {
		t.Errorf("At(3) = %v, want 3", got)
	}
	if got := v.At(2); got != 0 {
		t.Errorf("At(2) = %v, want 0 (cancelled)", got)
	}
	if v.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", v.NNZ())
	}
}

func TestUnit(t *testing.T) {
	v := Unit(4, 2)
	if !reflect.DeepEqual(v.Dense(), []float64{0, 0, 1, 0}) {
		t.Errorf("Unit = %v", v.Dense())
	}
}

func TestVectorDotNormCosine(t *testing.T) {
	v := FromDenseVector([]float64{3, 0, 4})
	w := FromDenseVector([]float64{3, 5, 4})
	if got := v.Dot(w); got != 25 {
		t.Errorf("Dot = %v, want 25", got)
	}
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := v.Cosine(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("Cosine(v,v) = %v, want 1", got)
	}
	zero := FromDenseVector([]float64{0, 0, 0})
	if got := v.Cosine(zero); got != 0 {
		t.Errorf("Cosine with zero vector = %v, want 0", got)
	}
}

func TestVectorAddScaleSum(t *testing.T) {
	v := FromDenseVector([]float64{1, 0, 2})
	w := FromDenseVector([]float64{-1, 3, 0})
	sum := v.Add(w)
	if !reflect.DeepEqual(sum.Dense(), []float64{0, 3, 2}) {
		t.Errorf("Add = %v", sum.Dense())
	}
	if sum.NNZ() != 2 {
		t.Errorf("Add kept cancelled zero: NNZ = %d", sum.NNZ())
	}
	if got := v.Scale(3).At(2); got != 6 {
		t.Errorf("Scale = %v, want 6", got)
	}
	if got := v.Scale(0).NNZ(); got != 0 {
		t.Errorf("Scale(0) NNZ = %d, want 0", got)
	}
	if got := v.Sum(); got != 3 {
		t.Errorf("Sum = %v, want 3", got)
	}
}

func TestVectorMulMatMatchesDense(t *testing.T) {
	m := FromDense([][]float64{{1, 2, 0}, {0, 3, 4}})
	v := FromDenseVector([]float64{10, 1})
	got := v.MulMat(m)
	if !reflect.DeepEqual(got.Dense(), []float64{10, 23, 4}) {
		t.Errorf("MulMat = %v", got.Dense())
	}
}

func TestVectorMulMatChainMatchesMatrixRow(t *testing.T) {
	// e_i' * (A*B) == (e_i' * A) * B: single-source propagation must agree
	// with a row of the fully materialized product.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 2+r.Intn(8), 2+r.Intn(8), 0.4)
		ar, ac := a.Dims()
		b := randomMatrix(r, ac, 2+r.Intn(8), 0.4)
		i := r.Intn(ar)
		viaVec := Unit(ar, i).MulMat(a).MulMat(b)
		viaMat := a.Mul(b).Row(i)
		return viaVec.ApproxEqual(viaMat, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestVectorEntriesOrder(t *testing.T) {
	v := NewVector(6, []int{4, 0, 2}, []float64{4, 0.5, 2})
	var idx []int
	v.Entries(func(i int, _ float64) { idx = append(idx, i) })
	if !reflect.DeepEqual(idx, []int{0, 2, 4}) {
		t.Errorf("Entries order = %v", idx)
	}
}

func TestVectorApproxEqual(t *testing.T) {
	v := FromDenseVector([]float64{1, 0, 2})
	w := FromDenseVector([]float64{1 + 1e-12, 0, 2})
	if !v.ApproxEqual(w, 1e-9) {
		t.Error("ApproxEqual too strict")
	}
	if v.ApproxEqual(FromDenseVector([]float64{1, 1, 2}), 1e-9) {
		t.Error("ApproxEqual missed difference")
	}
	if v.ApproxEqual(FromDenseVector([]float64{1, 0}), 1) {
		t.Error("ApproxEqual ignored length mismatch")
	}
}

func TestVectorOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVector(3, []int{3}, []float64{1})
}

// TestRowViewIsNeverWritten is the safety net under Matrix.Row returning a
// view: every exported Vector method is called on a row view — as receiver
// and, where it takes one, as argument — and the matrix must still equal a
// deep copy taken beforehand. The reflection check makes a method added
// later fail here until it is listed, so the contract cannot erode silently.
func TestRowViewIsNeverWritten(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	m := smallIntMatrix(rng, 12, 12, 0.5)
	sq := smallIntMatrix(rng, 12, 12, 0.5)
	before := m.Clone()
	calls := map[string]func(v, w *Vector){
		"Len":          func(v, _ *Vector) { v.Len() },
		"NNZ":          func(v, _ *Vector) { v.NNZ() },
		"At":           func(v, _ *Vector) { v.At(3) },
		"Dense":        func(v, _ *Vector) { v.Dense()[0] = 99 },
		"Dot":          func(v, w *Vector) { v.Dot(w) },
		"DotEntries":   func(v, w *Vector) { v.DotEntries(w.idx, w.val) },
		"WeightedNorm": func(v, _ *Vector) { v.WeightedNorm(make([]float64, v.Len())) },
		"Norm":         func(v, _ *Vector) { v.Norm() },
		"Sum":          func(v, _ *Vector) { v.Sum() },
		"Scale":        func(v, _ *Vector) { scribble(v.Scale(3)); scribble(v.Scale(0)) },
		"Add":          func(v, w *Vector) { scribble(v.Add(w)); scribble(v.Add(v.Scale(-1))) },
		"MulMat":       func(v, _ *Vector) { scribble(v.MulMat(sq)); scribble(v.MulMat(Identity(12))) },
		"MulMatEach":   func(v, _ *Vector) { v.MulMatEach(sq, func(int, float64) {}) },
		"Cosine":       func(v, w *Vector) { v.Cosine(w) },
		"Entries":      func(v, _ *Vector) { v.Entries(func(int, float64) {}) },
		"ApproxEqual":  func(v, w *Vector) { v.ApproxEqual(w, 0) },
	}
	typ := reflect.TypeOf(&Vector{})
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; calls[name] == nil {
			t.Errorf("Vector.%s is not covered: add it to this test and keep it from writing its receiver or arguments", name)
		}
	}
	for name, call := range calls {
		for r := 0; r < m.Rows(); r++ {
			call(m.Row(r), m.Row((r+1)%m.Rows()))
			call(m.Row(r), m.Row(r)) // aliased receiver and argument
		}
		if !m.Equal(before) || !reflect.DeepEqual(m.pages, before.pages) {
			t.Fatalf("Vector.%s wrote through a row view", name)
		}
	}
	// An append to a view's slices must not reach the next row either.
	v := m.Row(0)
	_ = append(v.idx, 7)
	_ = append(v.val, 7)
	if !m.Equal(before) {
		t.Error("append to a row view's slices wrote into the next row")
	}
}

// scribble overwrites a result vector in place: a result that shared storage
// with the row view it came from would carry the damage into the matrix.
func scribble(v *Vector) {
	for k := range v.val {
		v.idx[k], v.val[k] = 0, -77
	}
}
