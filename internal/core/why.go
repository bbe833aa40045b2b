package core

import (
	"context"
	"fmt"

	"hetesim/internal/metapath"
	"hetesim/internal/rank"
)

// Contribution is one meeting object's share of a pair's HeteSim score.
// HeteSim is a sum over meeting objects m of left(m)·right(m) (normalized
// by the two vector norms), so the score decomposes exactly; the top
// contributions answer "why are these two objects related along this
// path?".
type Contribution struct {
	// MiddleIndex is the meeting object's index in the middle type (for
	// even-length paths) or the relation-instance index (for odd-length
	// paths, where walkers meet inside the decomposed middle relation).
	MiddleIndex int
	// Label describes the meeting object: the node ID for even paths,
	// "src->dst" for the relation instance of odd paths.
	Label string
	// Value is this object's share of the (normalized) score.
	Value float64
	// Fraction is Value over the total score.
	Fraction float64
}

// PairContributions returns the pair's HeteSim score and its top-k meeting
// object contributions, largest first. The contributions sum (over all
// meeting objects, not just the returned k) to the score exactly. raw
// decomposes Definition 3's score, as PlanOptions.Raw does.
func (e *Engine) PairContributions(ctx context.Context, p *metapath.Path, src, dst, k int, raw bool) (float64, []Contribution, error) {
	if k <= 0 {
		return 0, nil, fmt.Errorf("core: PairContributions k=%d must be positive", k)
	}
	if err := e.checkIndex(p.Source(), src); err != nil {
		return 0, nil, err
	}
	if err := e.checkIndex(p.Target(), dst); err != nil {
		return 0, nil, err
	}
	h := splitPath(p)
	mo, err := e.middleOf(h.middle)
	if err != nil {
		return 0, nil, err
	}
	left, err := e.opVectorChain(ctx, src, h.left())
	if err != nil {
		return 0, nil, err
	}
	right, err := e.opVectorChain(ctx, dst, h.right())
	if err != nil {
		return 0, nil, err
	}
	scale := 1.0
	if !e.raw(raw) {
		ln, rn := left.WeightedNorm(mo.weights('L').d), right.WeightedNorm(mo.weights('R').d)
		if ln == 0 || rn == 0 {
			return 0, nil, nil
		}
		scale = 1 / (ln * rn)
	}
	sel := rank.NewSelector(k)
	var total float64
	push := func(m int, v float64) {
		total += v
		sel.Push(m, v)
	}
	if mo == nil {
		left.Entries(func(m int, lv float64) {
			if rv := right.At(m); rv != 0 {
				push(m, lv*rv*scale)
			}
		})
	} else { // odd: walkers meet on instance k = (x, y), entry k of M, weighing l[x]·M[x,y]·r[y]
		for k, t := range mo.m.Triplets() {
			if lv, rv := left.At(t.Row), right.At(t.Col); lv != 0 && rv != 0 {
				push(k, lv*t.Val*rv*scale)
			}
		}
	}
	var out []Contribution
	for _, t := range sel.Ranked() {
		c := Contribution{MiddleIndex: t.Index, Value: t.Score}
		if c.Label, err = e.middleLabel(p, h, mo, c.MiddleIndex); err != nil {
			return 0, nil, err
		}
		if total > 0 {
			c.Fraction = c.Value / total
		}
		out = append(out, c)
	}
	return total, out, nil
}

// middleLabel renders a human-readable name for a meeting object.
func (e *Engine) middleLabel(p *metapath.Path, h halves, mo *middle, m int) (string, error) {
	if mo == nil {
		// Even path: the meeting type is the left half's arrival type.
		types := p.Types()
		midType := types[len(types)/2]
		return e.g.NodeID(midType, m)
	}
	// Odd path: the meeting object is the m-th instance of the middle
	// relation, entry m of M (row-major over its effective adjacency).
	ts := mo.m.Triplets()
	if m < 0 || m >= len(ts) {
		return "", fmt.Errorf("core: middle instance %d out of range (%d instances)", m, len(ts))
	}
	srcID, err := e.g.NodeID(h.middle.From(), ts[m].Row)
	if err != nil {
		return "", err
	}
	dstID, err := e.g.NodeID(h.middle.To(), ts[m].Col)
	if err != nil {
		return "", err
	}
	return srcID + "->" + dstID, nil
}
