package core

import (
	"context"
	"sort"

	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/sparse"
)

// Scored is one target of a top-k search.
type Scored struct {
	Index int
	Score float64
}

// TopKSearch returns the k most related targets of one source along a path,
// descending by score (ties by ascending index). It implements the search
// pruning of Section 4.6 of the paper: source-side reaching probabilities
// below eps times the largest entry are dropped, and only targets that
// overlap the surviving middle distribution are ever scored — "the related
// objects to a searched object are a very small percentage of all objects
// in the target type," so most targets are never touched. eps = 0 gives the
// exact answer; small eps (e.g. 1e-3) trades a bounded score error for a
// sparser scan.
func (e *Engine) TopKSearch(ctx context.Context, p *metapath.Path, src, k int, eps float64) ([]Scored, error) {
	out, _, err := e.TopKSearchWithPlan(ctx, p, src, k, eps, PlanOptions{})
	return out, err
}

// topKFrom ranks every target against an already propagated left middle
// distribution. Factored out of TopKSearch so the batch scheduler (which
// serves left from a group-shared chain) runs the identical pruning,
// accumulation and normalization code as solo queries.
//
// Which scan runs follows cache residency (opScanChain): a right chain this
// request had to materialize is scored row by row against the dense left
// vector — one pass over its entries, no transpose; a chain that was already
// cached is scanned through its transpose, touching only the targets that
// share middle support. Both add each target's terms in ascending middle
// order, so they return bit-identical hits.
func (e *Engine) topKFrom(ctx context.Context, p *metapath.Path, h halves, left *sparse.Vector, k int, eps float64) ([]Scored, error) {
	// Prune the source's middle distribution (shared with topKApprox so
	// both plans score the identical pruned vector).
	left = pruneLeft(left, eps)
	pmr, pmrT, err := e.opScanChain(ctx, h.right())
	if err != nil {
		return nil, err
	}
	tr := obs.FromContext(ctx)
	sp := tr.Start("combine")
	var acc []float64
	var touched []int
	if pmrT == nil {
		acc = pmr.MulVec(left.Dense())
		for b, s := range acc {
			if s != 0 {
				touched = append(touched, b)
			}
		}
	} else {
		// Accumulate scores only over candidates that share middle support,
		// using a dense scratch with a touched list so the cost is the size
		// of the overlapped rows, not the target population.
		nT := e.g.NodeCount(p.Target())
		acc = make([]float64, nT)
		seen := make([]bool, nT)
		left.Entries(func(m int, v float64) {
			row := pmrT.Row(m)
			row.Entries(func(b int, w float64) {
				if !seen[b] {
					seen[b] = true
					touched = append(touched, b)
				}
				acc[b] += v * w
			})
		})
	}
	sp.End()
	sp = tr.Start("normalize")
	var rns []float64
	var ln float64
	if e.normalized {
		ln = left.Norm()
		if pmr == nil { // transposed scan of a cached "T:" entry: norms need the chain itself
			if pmr, err = e.opMatrixChain(ctx, h.right()); err != nil {
				sp.End()
				return nil, err
			}
		}
		rns = e.chainRowNorms(e.chainCacheKey(h.right()), pmr)
	}
	out := make([]Scored, 0, len(touched))
	for _, b := range touched {
		s := acc[b]
		if e.normalized {
			if ln == 0 || rns[b] == 0 {
				continue
			}
			s /= ln * rns[b]
		}
		if s != 0 {
			out = append(out, Scored{Index: b, Score: s})
		}
	}
	sp.End()
	sp = tr.Start("rank")
	sortScoredDesc(out)
	sp.End()
	if k > len(out) {
		k = len(out)
	}
	return out[:k], nil
}

// sortScoredDesc orders scored targets descending by score, ties broken by
// ascending index — the canonical result order shared by every top-k plan.
func sortScoredDesc(out []Scored) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Index < out[j].Index
	})
}
