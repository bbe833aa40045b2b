package sparse

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Vector is an immutable sparse vector. Indices are stored in strictly
// increasing order with no explicit zeros.
type Vector struct {
	n   int
	idx []int
	val []float64
}

// Unit returns the length-n indicator vector e_i. It is the starting
// distribution of a single-source reachable-probability computation.
func Unit(n, i int) *Vector {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("sparse: Unit(%d) out of range for length %d", i, n))
	}
	return &Vector{n: n, idx: []int{i}, val: []float64{1}}
}

// FromDenseVector builds a sparse vector from a dense slice, dropping zeros.
func FromDenseVector(d []float64) *Vector {
	v := &Vector{n: len(d)}
	for i, x := range d {
		if x != 0 {
			v.idx = append(v.idx, i)
			v.val = append(v.val, x)
		}
	}
	return v
}

// Len returns the logical length of the vector.
func (v *Vector) Len() int { return v.n }

// NNZ returns the number of stored entries.
func (v *Vector) NNZ() int { return len(v.val) }

// At returns element i.
func (v *Vector) At(i int) float64 {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("sparse: vector At(%d) out of range for length %d", i, v.n))
	}
	k := sort.SearchInts(v.idx, i)
	if k < len(v.idx) && v.idx[k] == i {
		return v.val[k]
	}
	return 0
}

// Dense returns the vector as a dense slice.
func (v *Vector) Dense() []float64 {
	d := make([]float64, v.n)
	for k, i := range v.idx {
		d[i] = v.val[k]
	}
	return d
}

// Dot returns the inner product of v and w.
func (v *Vector) Dot(w *Vector) float64 {
	if v.n != w.n {
		panic("sparse: Dot length mismatch")
	}
	return v.DotEntries(w.idx, w.val)
}

// DotEntries returns the inner product of v and the sparse vector stored as
// idx (ascending) and val — a row from Matrix.RowEntries, dotted without a
// Vector header. Terms are added in ascending index order, as Dot adds them.
// It walks the shorter side: when one side is shorter than the other by
// more than the log of its length, each of its indices is looked up in the
// other by binary search; otherwise the two are merged.
func (v *Vector) DotEntries(idx []int, val []float64) float64 {
	var s float64
	vIdx, vVal := v.idx, v.val
	switch {
	case len(vIdx)*bits.Len(uint(len(idx))) < len(idx):
		for a, c := range vIdx {
			b, ok := slices.BinarySearch(idx, c)
			if ok {
				s += vVal[a] * val[b]
			}
			idx, val = idx[b:], val[b:]
		}
	case len(idx)*bits.Len(uint(len(vIdx))) < len(vIdx):
		for b, c := range idx {
			a, ok := slices.BinarySearch(vIdx, c)
			if ok {
				s += vVal[a] * val[b]
			}
			vIdx, vVal = vIdx[a:], vVal[a:]
		}
	default:
		a, b := 0, 0
		for a < len(vIdx) && b < len(idx) {
			switch {
			case vIdx[a] < idx[b]:
				a++
			case idx[b] < vIdx[a]:
				b++
			default:
				s += vVal[a] * val[b]
				a++
				b++
			}
		}
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v *Vector) Norm() float64 { return math.Sqrt(v.Squares()) }

// Squares returns ‖v‖², bit for bit v.Dot(v) and, for a row view, the
// row's entry of RowSquares.
func (v *Vector) Squares() float64 { return squares(v.val) }

// WeightedNorm returns √(Σ_i d[i]·v_i²): the Euclidean norm of v scaled
// entrywise by √d, with d indexed like v. A nil d weighs every entry 1, and
// WeightedNorm(nil) is bit for bit Norm().
func (v *Vector) WeightedNorm(d []float64) float64 { return weightedNorm(v.idx, v.val, d) }

func weightedNorm(idx []int, val []float64, d []float64) float64 {
	var s float64
	for k, i := range idx {
		w := 1.0
		if d != nil {
			w = d[i]
		}
		s += val[k] * val[k] * w
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all entries.
func (v *Vector) Sum() float64 {
	var s float64
	for _, x := range v.val {
		s += x
	}
	return s
}

// Scale returns v multiplied by a.
func (v *Vector) Scale(a float64) *Vector {
	if a == 0 {
		return &Vector{n: v.n}
	}
	out := &Vector{n: v.n, idx: append([]int(nil), v.idx...), val: make([]float64, len(v.val))}
	for k, x := range v.val {
		out.val[k] = x * a
	}
	return out
}

// Add returns v + w.
func (v *Vector) Add(w *Vector) *Vector {
	if v.n != w.n {
		panic("sparse: Add length mismatch")
	}
	out := &Vector{n: v.n}
	a, b := 0, 0
	for a < len(v.idx) || b < len(w.idx) {
		switch {
		case b >= len(w.idx) || (a < len(v.idx) && v.idx[a] < w.idx[b]):
			out.idx = append(out.idx, v.idx[a])
			out.val = append(out.val, v.val[a])
			a++
		case a >= len(v.idx) || w.idx[b] < v.idx[a]:
			out.idx = append(out.idx, w.idx[b])
			out.val = append(out.val, w.val[b])
			b++
		default:
			s := v.val[a] + w.val[b]
			if s != 0 {
				out.idx = append(out.idx, v.idx[a])
				out.val = append(out.val, s)
			}
			a++
			b++
		}
	}
	return out
}

// MulMat returns v' * m as a new sparse vector of length m.Cols. This
// propagates a distribution over source objects one step along a relation —
// a one-row SpGEMM, so it runs the one kernel (mul.go) and adds each entry's
// terms in the order a materialized chain's row would.
func (v *Vector) MulMat(m *Matrix) *Vector {
	if v.n != m.rows {
		panic("sparse: MulMat length mismatch")
	}
	row := &Matrix{rows: 1, cols: v.n, nnz: len(v.idx),
		pages: []page{{rowPtr: []int{0, len(v.idx)}, colIdx: v.idx, val: v.val}}}
	out, _ := row.mul(context.Background(), m, 1, recordVecMul)
	return &Vector{n: m.cols, idx: out.colIdx, val: out.val}
}

// Cosine returns the cosine similarity of v and w, or 0 when either vector
// is zero. This is exactly the normalized HeteSim combination step
// (Definition 10).
func (v *Vector) Cosine(w *Vector) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	return v.Dot(w) / (nv * nw)
}

// Entries calls f for every stored entry in index order.
func (v *Vector) Entries(f func(i int, val float64)) {
	for k, i := range v.idx {
		f(i, v.val[k])
	}
}

// ApproxEqual reports whether v and w agree within absolute tolerance tol.
func (v *Vector) ApproxEqual(w *Vector, tol float64) bool {
	if v.n != w.n {
		return false
	}
	a, b := 0, 0
	for a < len(v.idx) || b < len(w.idx) {
		switch {
		case b >= len(w.idx) || (a < len(v.idx) && v.idx[a] < w.idx[b]):
			if math.Abs(v.val[a]) > tol {
				return false
			}
			a++
		case a >= len(v.idx) || w.idx[b] < v.idx[a]:
			if math.Abs(w.val[b]) > tol {
				return false
			}
			b++
		default:
			if math.Abs(v.val[a]-w.val[b]) > tol {
				return false
			}
			a++
			b++
		}
	}
	return true
}
