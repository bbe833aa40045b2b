// Package rank provides top-k selection and ranked-list utilities used by
// the query experiments (object profiling, expert finding, relevance
// search): the one bounded k-selector every top-k in the repo ranks through,
// top-k over dense score vectors, and labeled ranked lists for display.
package rank

import (
	"fmt"
	"strings"
)

// Item is one scored object in a ranked list.
type Item struct {
	Index int
	ID    string
	Score float64
}

// Scored is one selected object: its index in whatever the caller ranks and
// its score.
type Scored struct {
	Index int
	Score float64
}

// before is the one result order of the repo: score descending, ties broken
// by ascending index. Indices are unique, so the order is total — the k best
// of a set and their order do not depend on how they are selected, which is
// why a bounded selection returns exactly what a full sort's first k would.
func before(a, b Scored) bool {
	return a.Score > b.Score || (a.Score == b.Score && a.Index < b.Index)
}

// Selector keeps the k best (by before) of the candidates pushed into it, in
// a slice-backed binary heap with the worst of them on top: a candidate that
// does not make the cut costs one comparison, one that does costs O(log k).
// It filters nothing — callers drop the scores they do not rank.
type Selector struct {
	k int
	h []Scored
}

// NewSelector returns a selector of the k best; k <= 0 selects nothing.
func NewSelector(k int) *Selector {
	return &Selector{k: k, h: make([]Scored, 0, max(0, min(k, 256)))}
}

// Push offers one candidate.
func (s *Selector) Push(index int, score float64) {
	c := Scored{index, score}
	if len(s.h) < s.k {
		s.h = append(s.h, c)
		for i := len(s.h) - 1; i > 0; {
			p := (i - 1) / 2
			if !before(s.h[p], s.h[i]) {
				break
			}
			s.h[p], s.h[i] = s.h[i], s.h[p]
			i = p
		}
	} else if s.k > 0 && before(c, s.h[0]) {
		s.h[0] = c
		siftDown(s.h, 0)
	}
}

// Ranked returns the selected candidates best first. It orders the heap in
// place (a heap sort: the worst goes last, repeatedly) and hands out its
// storage, so the selector is spent afterwards.
func (s *Selector) Ranked() []Scored {
	for n := len(s.h) - 1; n > 0; n-- {
		s.h[0], s.h[n] = s.h[n], s.h[0]
		siftDown(s.h[:n], 0)
	}
	return s.h
}

// Indices is Ranked reduced to the candidates' indices; nil when nothing was
// selected.
func (s *Selector) Indices() []int {
	if len(s.h) == 0 {
		return nil
	}
	out := make([]int, len(s.h))
	for p, t := range s.Ranked() {
		out[p] = t.Index
	}
	return out
}

// siftDown restores the worst-on-top heap order below position i.
func siftDown(h []Scored, i int) {
	for {
		w := i // the worst of i and its children
		if l := 2*i + 1; l < len(h) && before(h[w], h[l]) {
			w = l
		}
		if r := 2*i + 2; r < len(h) && before(h[w], h[r]) {
			w = r
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// TopK returns the indices of the k largest scores in descending score
// order, ties broken by ascending index. k larger than len(scores) returns
// all indices ranked. Zero scores are kept — callers who want only
// positively related objects should filter.
func TopK(scores []float64, k int) []int {
	k = max(0, min(k, len(scores)))
	sel := &Selector{k: k, h: make([]Scored, 0, k)} // sized exactly: every slot will be filled
	for i, s := range scores {
		sel.Push(i, s)
	}
	return sel.Indices()
}

// List builds a ranked Item list from scores and parallel IDs, keeping the
// top k.
func List(scores []float64, ids []string, k int) ([]Item, error) {
	if len(scores) != len(ids) {
		return nil, fmt.Errorf("rank: %d scores vs %d ids", len(scores), len(ids))
	}
	idx := TopK(scores, k)
	items := make([]Item, len(idx))
	for p, i := range idx {
		items[p] = Item{Index: i, ID: ids[i], Score: scores[i]}
	}
	return items, nil
}

// Positions returns a map from index to 1-based rank over all scores
// (descending, ties by ascending index).
func Positions(scores []float64) map[int]int {
	pos := make(map[int]int, len(scores))
	for p, i := range TopK(scores, len(scores)) {
		pos[i] = p + 1
	}
	return pos
}

// Format renders a ranked list as the aligned two-column tables the
// paper's case studies print (rank, id, score).
func Format(items []Item) string {
	var b strings.Builder
	width := 0
	for _, it := range items {
		if len(it.ID) > width {
			width = len(it.ID)
		}
	}
	for p, it := range items {
		fmt.Fprintf(&b, "%2d  %-*s  %.4f\n", p+1, width, it.ID, it.Score)
	}
	return b.String()
}
