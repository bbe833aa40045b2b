// Package eval implements the evaluation metrics of the paper's experiment
// section: NMI for the clustering task (Table 6), AUC for the relevance
// query task (Table 5), and the average rank difference of the expert
// finding study (Fig. 6), plus supporting ranking utilities.
package eval

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrBadInput marks invalid metric inputs.
var ErrBadInput = errors.New("eval: bad input")

// NMI computes the Normalized Mutual Information between two labelings of
// the same objects, I(X;Y)/sqrt(H(X)H(Y)), in [0, 1] with 1 for identical
// partitions. Two trivial (single-cluster) partitions score 1 against each
// other and 0 against anything else, the usual convention.
func NMI(a, b []int) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: label lengths %d vs %d", ErrBadInput, len(a), len(b))
	}
	n := len(a)
	if n == 0 {
		return 0, fmt.Errorf("%w: empty labelings", ErrBadInput)
	}
	joint := make(map[[2]int]int)
	ca := make(map[int]int)
	cb := make(map[int]int)
	for i := range a {
		joint[[2]int{a[i], b[i]}]++
		ca[a[i]]++
		cb[b[i]]++
	}
	fn := float64(n)
	var mi float64
	for key, c := range joint {
		pxy := float64(c) / fn
		px := float64(ca[key[0]]) / fn
		py := float64(cb[key[1]]) / fn
		mi += pxy * math.Log(pxy/(px*py))
	}
	entropy := func(counts map[int]int) float64 {
		var h float64
		for _, c := range counts {
			p := float64(c) / fn
			h -= p * math.Log(p)
		}
		return h
	}
	ha, hb := entropy(ca), entropy(cb)
	if ha == 0 && hb == 0 {
		return 1, nil
	}
	if ha == 0 || hb == 0 {
		return 0, nil
	}
	v := mi / math.Sqrt(ha*hb)
	// Clamp rounding spill.
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v, nil
}

// AUC computes the area under the ROC curve of scores against binary
// relevance labels via the Mann–Whitney statistic with midrank tie
// handling: the probability that a uniformly random positive outscores a
// uniformly random negative (ties count half).
func AUC(scores []float64, positive []bool) (float64, error) {
	if len(scores) != len(positive) {
		return 0, fmt.Errorf("%w: %d scores vs %d labels", ErrBadInput, len(scores), len(positive))
	}
	var npos, nneg int
	for _, p := range positive {
		if p {
			npos++
		} else {
			nneg++
		}
	}
	if npos == 0 || nneg == 0 {
		return 0, fmt.Errorf("%w: need both positive and negative examples", ErrBadInput)
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	// Midranks.
	ranks := make([]float64, len(scores))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		mid := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mid
		}
		i = j + 1
	}
	var rsum float64
	for i, p := range positive {
		if p {
			rsum += ranks[i]
		}
	}
	u := rsum - float64(npos)*float64(npos+1)/2
	return u / (float64(npos) * float64(nneg)), nil
}

// RankPositions returns the 1-based rank of every index when sorted by
// descending score, ties broken by ascending index (ordinal ranking).
func RankPositions(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	ranks := make([]int, len(scores))
	for pos, i := range idx {
		ranks[i] = pos + 1
	}
	return ranks
}

// AverageRankDifference measures, over the topK objects of the ground-truth
// ranking, the mean absolute difference between each object's ground-truth
// rank and its rank under the measured scores — the Fig. 6 statistic (lower
// is better). topK <= 0 evaluates all objects.
func AverageRankDifference(truth, measured []float64, topK int) (float64, error) {
	if len(truth) != len(measured) {
		return 0, fmt.Errorf("%w: %d truth vs %d measured", ErrBadInput, len(truth), len(measured))
	}
	if len(truth) == 0 {
		return 0, fmt.Errorf("%w: empty rankings", ErrBadInput)
	}
	rt := RankPositions(truth)
	rm := RankPositions(measured)
	if topK <= 0 || topK > len(truth) {
		topK = len(truth)
	}
	var sum float64
	var count int
	for i := range truth {
		if rt[i] <= topK {
			sum += math.Abs(float64(rt[i] - rm[i]))
			count++
		}
	}
	return sum / float64(count), nil
}

// Spearman returns Spearman's rank correlation coefficient between two
// score vectors (ordinal ranks, ties broken by index).
func Spearman(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: lengths %d vs %d", ErrBadInput, len(a), len(b))
	}
	n := len(a)
	if n < 2 {
		return 0, fmt.Errorf("%w: need at least 2 items", ErrBadInput)
	}
	ra := RankPositions(a)
	rb := RankPositions(b)
	var d2 float64
	for i := range ra {
		d := float64(ra[i] - rb[i])
		d2 += d * d
	}
	fn := float64(n)
	return 1 - 6*d2/(fn*(fn*fn-1)), nil
}
