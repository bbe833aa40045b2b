package eval

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNMIPerfectAndIndependent(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	got, err := NMI(a, a)
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Errorf("NMI(a,a) = %v, %v; want 1", got, err)
	}
	// Relabeled partitions are still identical.
	b := []int{5, 5, 9, 9, 7, 7}
	got, _ = NMI(a, b)
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("NMI under relabeling = %v, want 1", got)
	}
	// Orthogonal partition of a 2x2 grid has zero mutual information.
	x := []int{0, 0, 1, 1}
	y := []int{0, 1, 0, 1}
	got, _ = NMI(x, y)
	if math.Abs(got) > 1e-12 {
		t.Errorf("NMI orthogonal = %v, want 0", got)
	}
}

func TestNMITrivialPartitions(t *testing.T) {
	all := []int{1, 1, 1}
	split := []int{0, 1, 2}
	if got, _ := NMI(all, all); got != 1 {
		t.Errorf("NMI(trivial,trivial) = %v, want 1", got)
	}
	if got, _ := NMI(all, split); got != 0 {
		t.Errorf("NMI(trivial,split) = %v, want 0", got)
	}
}

func TestNMIErrorsAndRange(t *testing.T) {
	if _, err := NMI([]int{1}, []int{1, 2}); !errors.Is(err, ErrBadInput) {
		t.Errorf("length mismatch err = %v", err)
	}
	if _, err := NMI(nil, nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty err = %v", err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(4)
			b[i] = rng.Intn(4)
		}
		v, err := NMI(a, b)
		if err != nil {
			return false
		}
		w, err := NMI(b, a)
		return err == nil && v >= 0 && v <= 1 && math.Abs(v-w) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAUCKnownValues(t *testing.T) {
	// Perfect separation.
	got, err := AUC([]float64{0.9, 0.8, 0.2, 0.1}, []bool{true, true, false, false})
	if err != nil || got != 1 {
		t.Errorf("perfect AUC = %v, %v", got, err)
	}
	// Perfectly wrong.
	got, _ = AUC([]float64{0.1, 0.2, 0.8, 0.9}, []bool{true, true, false, false})
	if got != 0 {
		t.Errorf("inverted AUC = %v, want 0", got)
	}
	// All tied: 0.5 by midranks.
	got, _ = AUC([]float64{0.5, 0.5, 0.5, 0.5}, []bool{true, false, true, false})
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("tied AUC = %v, want 0.5", got)
	}
	// Hand-computed mixed case: pos scores {3,1}, neg {2,0}:
	// pairs (3>2, 3>0, 1<2, 1>0) -> 3/4.
	got, _ = AUC([]float64{3, 1, 2, 0}, []bool{true, true, false, false})
	if math.Abs(got-0.75) > 1e-12 {
		t.Errorf("mixed AUC = %v, want 0.75", got)
	}
}

func TestAUCErrors(t *testing.T) {
	if _, err := AUC([]float64{1}, []bool{true, false}); !errors.Is(err, ErrBadInput) {
		t.Errorf("length mismatch err = %v", err)
	}
	if _, err := AUC([]float64{1, 2}, []bool{true, true}); !errors.Is(err, ErrBadInput) {
		t.Errorf("single-class err = %v", err)
	}
}

func TestAUCEqualsPairCounting(t *testing.T) {
	// Midrank AUC must equal the explicit count of concordant pairs
	// (ties half-weighted).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		scores := make([]float64, n)
		labels := make([]bool, n)
		labels[0], labels[1] = true, false // guarantee both classes
		for i := range scores {
			scores[i] = float64(rng.Intn(6)) // force ties
			if i > 1 {
				labels[i] = rng.Intn(2) == 0
			}
		}
		got, err := AUC(scores, labels)
		if err != nil {
			return false
		}
		var num, den float64
		for i := range scores {
			if !labels[i] {
				continue
			}
			for j := range scores {
				if labels[j] {
					continue
				}
				den++
				switch {
				case scores[i] > scores[j]:
					num++
				case scores[i] == scores[j]:
					num += 0.5
				}
			}
		}
		return math.Abs(got-num/den) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRankPositions(t *testing.T) {
	ranks := RankPositions([]float64{0.2, 0.9, 0.5, 0.9})
	// 0.9 (idx1) first, 0.9 (idx3) second by index tie-break, 0.5 third.
	want := []int{4, 1, 3, 2}
	for i := range want {
		if ranks[i] != want[i] {
			t.Errorf("rank[%d] = %d, want %d", i, ranks[i], want[i])
		}
	}
}

func TestAverageRankDifference(t *testing.T) {
	truth := []float64{10, 9, 8, 7}
	same, err := AverageRankDifference(truth, truth, 0)
	if err != nil || same != 0 {
		t.Errorf("identical rankings diff = %v, %v", same, err)
	}
	// Fully reversed 4-ranking: diffs 3,1,1,3 -> mean 2.
	rev := []float64{7, 8, 9, 10}
	got, _ := AverageRankDifference(truth, rev, 0)
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("reversed diff = %v, want 2", got)
	}
	// topK=1 considers only the ground-truth #1 (diff 3).
	got, _ = AverageRankDifference(truth, rev, 1)
	if math.Abs(got-3) > 1e-12 {
		t.Errorf("topK=1 diff = %v, want 3", got)
	}
	if _, err := AverageRankDifference(truth, truth[:2], 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("length mismatch err = %v", err)
	}
	if _, err := AverageRankDifference(nil, nil, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty err = %v", err)
	}
}

func TestSpearman(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	got, err := Spearman(a, a)
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman(a,a) = %v, %v", got, err)
	}
	rev := []float64{5, 4, 3, 2, 1}
	got, _ = Spearman(a, rev)
	if math.Abs(got+1) > 1e-12 {
		t.Errorf("Spearman reversed = %v, want -1", got)
	}
	if _, err := Spearman(a, a[:2]); !errors.Is(err, ErrBadInput) {
		t.Errorf("length err = %v", err)
	}
	if _, err := Spearman([]float64{1}, []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Errorf("short err = %v", err)
	}
}
