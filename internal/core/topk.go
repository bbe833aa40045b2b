package core

import (
	"context"
	"strconv"

	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/rank"
	"hetesim/internal/sparse"
)

// Scored is one target of a top-k search. Every top-k plan — exact scan or
// Monte Carlo, solo or batch — ranks through the one selector of package
// rank: descending by score, ties by ascending index.
type Scored = rank.Scored

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
// vector — one pass over its entries, no transpose; a cold chain few of whose
// targets can meet left has only those targets' rows propagated and scored,
// each by a sparse dot; a chain that was already cached is scanned through
// its transpose, touching only the targets that share middle support
// (sparse.MulMatEach: pooled accumulator, nothing of the target population's
// size allocated or cleared). All add each target's terms in ascending middle
// order (skipped terms are +0) and offer every non-zero score to the one
// selector, so they return bit-identical hits.
func (e *Engine) topKFrom(ctx context.Context, p *metapath.Path, h halves, left *sparse.Vector, k int, eps float64) ([]Scored, error) {
	left = pruneLeft(left, eps)
	sc, err := e.opScanChain(ctx, h.right(), left)
	if err != nil {
		return nil, err
	}
	sc.kind.count.Inc()
	tr := obs.FromContext(ctx)
	sp := tr.Start("normalize")
	var rns []float64 // indexed like sc.pm's rows
	var ln float64
	if e.normalized {
		ln = left.Norm()
		switch {
		case sc.rows != nil: // bit for bit the chain's norms of these rows; not cached
			rns = sc.pm.RowNorms()
		case sc.pm == nil: // transposed scan of a cached "T:" entry: norms need the chain itself
			if sc.pm, err = e.opMatrixChain(ctx, h.right()); err != nil {
				sp.End()
				return nil, err
			}
			fallthrough
		default:
			rns = e.chainRowNorms(e.chainCacheKey(h.right()), sc.pm)
		}
	}
	sp.End()
	sp = tr.Start("combine")
	sel := rank.NewSelector(k)
	offer := func(b, r int, s float64) { // target b is row r of sc.pm
		if e.normalized {
			if ln == 0 || rns[r] == 0 {
				return
			}
			s /= ln * rns[r]
		}
		if s != 0 {
			sel.Push(b, s)
		}
	}
	switch {
	case sc.rows != nil:
		for r, b := range sc.rows {
			offer(b, r, sc.pm.Row(r).Dot(left))
		}
	case sc.pmT == nil:
		for b, s := range sc.pm.MulVec(left.Dense()) {
			if s != 0 { // most targets share no middle support with the source
				offer(b, b, s)
			}
		}
	default:
		left.MulMatEach(sc.pmT, func(b int, s float64) { offer(b, b, s) })
	}
	if sp != nil && sc.kind != scanTransposed { // the steady state stays unannotated: no attribute map per warm query
		sp.SetAttr("scan", sc.kind.name)
		if sc.rows != nil {
			sp.SetAttr("candidates", strconv.Itoa(len(sc.rows))).
				SetAttr("rows_nnz", strconv.Itoa(sc.pm.NNZ())).
				SetAttr("rented_flops", strconv.FormatFloat(sc.rented, 'f', 0, 64))
		}
	}
	sp.End()
	sp = tr.Start("rank")
	out := sel.Ranked()
	sp.End()
	return out, nil
}

// pruneLeft applies the Section 4.6 search pruning to a left middle
// distribution: entries below eps times the largest entry are dropped.
func pruneLeft(left *sparse.Vector, eps float64) *sparse.Vector {
	if eps <= 0 {
		return left
	}
	var max float64
	left.Entries(func(_ int, v float64) {
		if v > max {
			max = v
		}
	})
	threshold := eps * max
	var idx []int
	var val []float64
	left.Entries(func(i int, v float64) {
		if v >= threshold {
			idx = append(idx, i)
			val = append(val, v)
		}
	})
	return sparse.NewVector(left.Len(), idx, val)
}
