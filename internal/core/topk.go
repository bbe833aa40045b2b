package core

import (
	"context"
	"math"
	"strconv"

	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/rank"
	"hetesim/internal/sparse"
)

// Scored is one target of a top-k search. Every top-k plan, solo or batch,
// ranks through the one selector of package rank: descending by score, ties
// by ascending index.
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

// topKFrom ranks every target against an already propagated left half
// distribution. Factored out of TopKSearch so the batch scheduler (which
// serves left from a group-shared chain) runs the identical pruning,
// accumulation and normalization code as solo queries. An odd path's left
// half crosses the middle relation first (meetLeft); the scans are even-shaped.
//
// Which scan runs follows cache residency (opScanChain): a right chain this
// request had to materialize, or one a full bounded cache holds, is scored
// row by row against the dense left vector — one pass over its entries, no
// transpose; a cold chain few of whose targets can meet left has only those
// targets' rows propagated and scored, each by a sparse dot; any other chain
// that was already cached is scanned through its transpose, touching only the
// targets that share middle support
// (sparse.MulMatEach: pooled accumulator, nothing of the target population's
// size allocated or cleared). All add each target's terms in ascending middle
// order (skipped terms are +0) and offer every non-zero score to the one
// selector, so they return bit-identical hits. A raw query ranks the dots
// themselves and never reads a row norm.
func (e *Engine) topKFrom(ctx context.Context, h halves, lh leftHalf, k int, eps float64, raw bool) ([]Scored, error) {
	mo := h.mo
	left, ln := mo.meetLeft(lh, eps)
	sc, err := e.opScanChain(ctx, h.right(), left)
	if err != nil {
		return nil, err
	}
	sc.kind.count.Inc()
	tr := obs.FromContext(ctx)
	sp := tr.Start("normalize")
	var rns rowNorms // indexed like sc.pm's rows
	if !raw {
		w := mo.weights('R')
		switch {
		case sc.rows != nil: // bit for bit the chain's norms of these rows; not cached
			rns = pagedNorms(sc.pm.WeightedRowNorms(w.d))
		case sc.pm == nil: // transposed scan of a cached "T:" entry: norms need the chain itself
			if sc.pm, err = e.opMatrixChain(ctx, h.right()); err != nil {
				sp.End()
				return nil, err
			}
			fallthrough
		default:
			rns = e.chainRowNorms(e.chainCacheKey(h.right()), sc.pm, w)
		}
	}
	sp.End()
	sp = tr.Start("combine")
	sel := rank.NewSelector(k)
	offer := func(b, r int, s float64) { // target b is row r of sc.pm
		if !raw {
			rn := rns.at(r)
			if ln == 0 || rn == 0 {
				return
			}
			s /= ln * rn
		}
		if s != 0 {
			sel.Push(b, s)
		}
	}
	switch {
	case sc.rows != nil:
		for r, b := range sc.rows {
			offer(b, r, left.DotEntries(sc.pm.RowEntries(r)))
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

// meetLeft prunes a left half distribution (Section 4.6) and carries it to the
// meeting type (unpruned, a cached crossing h.met is taken as is), returning
// it with its cosine norm. Pruning drops the entries
// below eps times the largest: of l itself on an even path; on an odd path,
// of the edge-object distribution of Definition 6, l[x]·A[x,y] on instance
// (x, y), whose kept entries cross M unpruned as l[x]·M[x,y]. The norm is that
// of the kept entries; with eps = 0 it is l's (dS-weighted on an odd path).
func (mo *middle) meetLeft(h leftHalf, eps float64) (*sparse.Vector, float64) {
	l := h.l
	switch {
	case eps > 0: // pruned below
	case h.met != nil:
		return h.met, l.WeightedNorm(mo.l.d)
	case mo != nil:
		return l.MulMat(mo.m), l.WeightedNorm(mo.l.d)
	default:
		return l, l.Norm()
	}
	n := l.Len()
	instances := func(f func(y int, lv, a, m float64)) {
		l.Entries(func(x int, lv float64) {
			if mo == nil {
				f(x, lv, 1, 1)
				return
			}
			ys, av := mo.a.RowEntries(x)
			_, mv := mo.m.RowEntries(x)
			for j, y := range ys {
				f(y, lv, av[j], mv[j])
			}
		})
	}
	if mo != nil {
		n = mo.m.Cols()
	}
	var max, sq float64
	instances(func(_ int, lv, a, _ float64) { max = math.Max(max, lv*a) })
	acc := make([]float64, n)
	instances(func(y int, lv, a, m float64) {
		if v := lv * a; v >= eps*max {
			sq += v * v
			acc[y] += lv * m
		}
	})
	return sparse.FromDenseVector(acc), math.Sqrt(sq)
}
