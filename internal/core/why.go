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
// meeting objects, not just the returned k) to the score exactly.
func (e *Engine) PairContributions(ctx context.Context, p *metapath.Path, src, dst, k int) (float64, []Contribution, error) {
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
	left, err := e.opVectorChain(ctx, src, h.left())
	if err != nil {
		return 0, nil, err
	}
	right, err := e.opVectorChain(ctx, dst, h.right())
	if err != nil {
		return 0, nil, err
	}
	scale := 1.0
	if e.normalized {
		ln, rn := left.Norm(), right.Norm()
		if ln == 0 || rn == 0 {
			return 0, nil, nil
		}
		scale = 1 / (ln * rn)
	}
	sel := rank.NewSelector(k)
	var total float64
	left.Entries(func(m int, lv float64) {
		rv := right.At(m)
		if rv == 0 {
			return
		}
		v := lv * rv * scale
		total += v
		sel.Push(m, v)
	})
	var out []Contribution
	for _, t := range sel.Ranked() {
		c := Contribution{MiddleIndex: t.Index, Value: t.Score}
		if c.Label, err = e.middleLabel(p, h, c.MiddleIndex); err != nil {
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
func (e *Engine) middleLabel(p *metapath.Path, h halves, m int) (string, error) {
	if h.middle == nil {
		// Even path: the meeting type is the left half's arrival type.
		types := p.Types()
		midType := types[len(types)/2]
		return e.g.NodeID(midType, m)
	}
	// Odd path: the meeting object is the m-th instance of the middle
	// relation (row-major over its effective adjacency).
	w, err := e.g.Adjacency(h.middle.Relation.Name)
	if err != nil {
		return "", err
	}
	if h.middle.Inverse {
		w = w.Transpose()
	}
	ts := w.Triplets()
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
