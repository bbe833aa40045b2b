package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestNewDifferential holds New to a map-based reference over random
// triplets: unsorted input, duplicates summed in input order (non-integer
// values, so another order would move bits), duplicates that cancel to an
// exact zero and zeros given outright (both dropped), empty rows and empty
// shapes. It also checks the CSR invariants every reader relies on.
func TestNewDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		rows, cols := rng.Intn(12), rng.Intn(12)
		var ts []Triplet
		if rows > 0 && cols > 0 {
			for k := rng.Intn(4 * (rows + cols)); k > 0; k-- {
				tr := Triplet{rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()}
				switch rng.Intn(6) {
				case 0:
					tr.Val = 0
				case 1: // an entry and its negation cancel exactly
					ts = append(ts, tr)
					tr.Val = -tr.Val
				}
				ts = append(ts, tr)
			}
		}
		input := slices.Clone(ts)
		want := make(map[[2]int]float64)
		for _, tr := range ts {
			want[[2]int{tr.Row, tr.Col}] += tr.Val
		}
		m := New(rows, cols, ts)
		if !slices.Equal(ts, input) {
			t.Fatalf("trial %d: New wrote to its input", trial)
		}
		if r, c := m.Dims(); r != rows || c != cols {
			t.Fatalf("trial %d: dims %dx%d, want %dx%d", trial, r, c, rows, cols)
		}
		nnz := 0
		for i := 0; i < rows; i++ {
			idx, val := m.RowEntries(i)
			for k, j := range idx {
				if k > 0 && idx[k-1] >= j {
					t.Fatalf("trial %d: row %d columns %v not strictly increasing", trial, i, idx)
				}
				w := want[[2]int{i, j}]
				if val[k] == 0 || math.Float64bits(val[k]) != math.Float64bits(w) {
					t.Fatalf("trial %d: (%d,%d) = %v, want %v summed in input order", trial, i, j, val[k], w)
				}
			}
			nnz += len(idx)
		}
		for c, v := range want {
			if v != 0 && m.At(c[0], c[1]) == 0 {
				t.Fatalf("trial %d: (%d,%d) = %v missing", trial, c[0], c[1], v)
			}
		}
		if nnz != m.NNZ() {
			t.Fatalf("trial %d: NNZ %d, rows hold %d", trial, m.NNZ(), nnz)
		}
	}
}

// TestNewLongDescendingRow builds one 200 000-entry row given in
// descending column order, each column twice: a per-row sort that is
// quadratic in the row's length would take minutes, this one well under a
// second. Short mode (the race-detector pass) checks the result only.
func TestNewLongDescendingRow(t *testing.T) {
	const n = 100000
	ts := make([]Triplet, 0, 2*n)
	for j := n - 1; j >= 0; j-- {
		ts = append(ts, Triplet{0, j, 0.5}, Triplet{0, j, float64(j)})
	}
	start := time.Now()
	m := New(1, n, ts)
	if d := time.Since(start); d > time.Second && !testing.Short() {
		t.Errorf("New of one %d-entry descending row took %v", len(ts), d)
	}
	if m.NNZ() != n {
		t.Fatalf("NNZ = %d, want %d", m.NNZ(), n)
	}
	idx, val := m.RowEntries(0)
	for j := range idx {
		if idx[j] != j || val[j] != 0.5+float64(j) {
			t.Fatalf("entry %d = (%d, %v), want (%d, %v)", j, idx[j], val[j], j, 0.5+float64(j))
		}
	}
}
