package rank

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// reference is what every top-k in the repo promises: a stable full sort by
// (score descending, index ascending), first k.
func reference(scores []float64, k int) []Scored {
	all := make([]Scored, len(scores))
	for i, s := range scores {
		all[i] = Scored{i, s}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].Score != all[b].Score {
			return all[a].Score > all[b].Score
		}
		return all[a].Index < all[b].Index
	})
	if k < 0 {
		k = 0
	}
	return all[:min(k, len(all))]
}

func selected(scores []float64, k int) []Scored {
	sel := NewSelector(k)
	for i, s := range scores {
		sel.Push(i, s)
	}
	return sel.Ranked()
}

func checkSelection(t *testing.T, name string, scores []float64, k int) {
	t.Helper()
	got, want := selected(scores, k), reference(scores, k)
	if len(got) != len(want) {
		t.Fatalf("%s k=%d: selected %d, want %d", name, k, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s k=%d: rank %d = %+v, want %+v", name, k, i, got[i], want[i])
		}
	}
}

// shapes are the input orders and score populations the selector must not
// care about; n is the length.
var shapes = map[string]func(n int, rng *rand.Rand) []float64{
	"ascending":  func(n int, _ *rand.Rand) []float64 { return fill(n, func(i int) float64 { return float64(i) }) },
	"descending": func(n int, _ *rand.Rand) []float64 { return fill(n, func(i int) float64 { return float64(n - i) }) },
	"sawtooth":   func(n int, _ *rand.Rand) []float64 { return fill(n, func(i int) float64 { return float64(i % 7) }) },
	"all-equal":  func(n int, _ *rand.Rand) []float64 { return fill(n, func(int) float64 { return 0.25 }) },
	"all-zero":   func(n int, _ *rand.Rand) []float64 { return fill(n, func(int) float64 { return 0 }) },
	"heavy-ties": func(n int, rng *rand.Rand) []float64 {
		return fill(n, func(int) float64 { return float64(rng.Intn(4)) })
	},
	"negatives": func(n int, rng *rand.Rand) []float64 {
		return fill(n, func(int) float64 { return float64(rng.Intn(9) - 4) })
	},
	"distinct": func(n int, rng *rand.Rand) []float64 { return fill(n, func(int) float64 { return rng.NormFloat64() }) },
}

func fill(n int, f func(i int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func TestSelectorMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for name, shape := range shapes {
		for _, n := range []int{0, 1, 2, 3, 10, 64, 257, 1000} {
			scores := shape(n, rng)
			for _, k := range []int{-1, 0, 1, 2, n - 1, n, n + 5} {
				checkSelection(t, name, scores, k)
			}
		}
	}
}

func TestSelectorRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2012))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(300)
		levels := 1 + rng.Intn(12) // few levels: most scores tie
		scores := fill(n, func(int) float64 { return float64(rng.Intn(levels)-levels/2) / 4 })
		checkSelection(t, "random", scores, rng.Intn(n+6))
	}
}

// TestSelectorSparseIndices covers what the engine does: candidates arrive
// in first-touch order with arbitrary (unique) indices, zeros included.
func TestSelectorSparseIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		scores := fill(n, func(int) float64 { return float64(rng.Intn(5)) })
		k := 1 + rng.Intn(n)
		sel := NewSelector(k)
		for _, i := range rng.Perm(n) {
			sel.Push(i, scores[i])
		}
		if got, want := sel.Ranked(), reference(scores, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: permuted pushes selected %v, want %v", trial, got, want)
		}
	}
}

func TestSelectorPushDoesNotAllocate(t *testing.T) {
	scores := shapes["heavy-ties"](5000, rand.New(rand.NewSource(1)))
	if allocs := testing.AllocsPerRun(20, func() { selected(scores, 10) }); allocs > 2 {
		t.Errorf("selecting 10 of 5000 took %v allocs, want the selector and its heap", allocs)
	}
}

// FuzzSelector decodes a score per byte (16 levels around zero, so ties,
// zeros and negatives are everywhere) and checks the selection against the
// full sort. The seed corpus holds one entry per shape of the table test.
func FuzzSelector(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range shapes {
		scores := shape(40, rng)
		data := make([]byte, len(scores))
		for i, s := range scores {
			data[i] = byte(int(s*4) + 8)
		}
		for _, k := range []int{0, 1, 39, 40, 45} {
			f.Add(data, k)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		if len(data) > 4096 {
			return
		}
		scores := fill(len(data), func(i int) float64 { return float64(int(data[i]%16)-8) / 4 })
		checkSelection(t, "fuzz", scores, k%(len(scores)+8))
	})
}
