package core

import (
	"context"
	"strconv"

	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/sparse"
)

// Physical operators. Every query plan is assembled from four chain
// propagation operators — sparse vector propagate, full matrix
// materialization, subset-row propagation, and the scan-side
// materialization used by top-k — all driven by one step walker, so
// the transition resolution, context polling and per-step tracing live
// exactly once. The operators preserve the bit-identity invariant: vector,
// subset and full-matrix propagation all accumulate each output entry's
// contributions in the same ascending-index order, so every exact plan
// produces bit-identical scores.

// chain identifies one reachable-probability chain: the steps to walk, the
// type they start from (all an empty half of a length-1 path has), and which
// side of the decomposition it is ('L', 'R', or 'P' for a full path).
type chain struct {
	steps []metapath.Step
	start string
	side  byte
}

func (h halves) left() chain  { return chain{steps: h.leftSteps, start: h.src, side: 'L'} }
func (h halves) right() chain { return chain{steps: h.rightSteps, start: h.dst, side: 'R'} }

// pathChain is the undecomposed full-path chain (the PCRW matrix of
// Definition 9).
func pathChain(p *metapath.Path) chain { return chain{steps: p.Steps(), start: p.Source(), side: 'P'} }

// chainCacheKey identifies a chain's materialized matrix in the cache. An
// empty chain is the identity over its start type; it is never cached, and
// its key names only its estimate and its norms.
func (e *Engine) chainCacheKey(c chain) string {
	if len(c.steps) == 0 {
		return "C:@" + c.start
	}
	return stepsKey(c.steps)
}

// identity is the matrix of an empty chain, kept beside the transitions.
func (e *Engine) identity(typ string) *sparse.Matrix {
	e.mu.Lock()
	defer e.mu.Unlock()
	id, ok := e.trans["="+typ]
	if !ok {
		id = sparse.Identity(e.g.NodeCount(typ))
		e.trans["="+typ] = id
	}
	return id
}

// propagate drives one chain walk: for every step it polls ctx, resolves the
// transition matrix, and hands it to apply together with a step label (for
// tracing) and the cache key of the chain prefix completed by that step. All
// four operators share this walker.
func (e *Engine) propagate(ctx context.Context, c chain, apply func(u *sparse.Matrix, label, prefixKey string) error) error {
	return e.propagateFrom(ctx, c, 0, apply)
}

// propagateFrom is propagate resuming after the first `from` steps — the
// walker behind warm-prefix reuse, where a cached prefix matrix supplies the
// state of the chain up to `from` and only the cold suffix is multiplied.
// Prefix cache keys stay absolute (c.steps[:i+1] of the full chain), so a
// resumed walk caches the same prefixes a cold walk would.
func (e *Engine) propagateFrom(ctx context.Context, c chain, from int, apply func(u *sparse.Matrix, label, prefixKey string) error) error {
	for i := from; i < len(c.steps); i++ {
		s := c.steps[i]
		if err := ctx.Err(); err != nil {
			return err
		}
		u, err := e.transition(s)
		if err != nil {
			return err
		}
		if err := apply(u, stepKey(s), stepsKey(c.steps[:i+1])); err != nil {
			return err
		}
	}
	return nil
}

// opVectorChain propagates a single-source distribution along a chain
// without materializing matrices — the cheap operator for one-off pair
// queries and the left side of single-vs-matrix plans.
func (e *Engine) opVectorChain(ctx context.Context, start int, c chain) (*sparse.Vector, error) {
	tr := obs.FromContext(ctx)
	v := sparse.Unit(e.g.NodeCount(c.start), start)
	err := e.propagate(ctx, c, func(u *sparse.Matrix, label, _ string) error {
		sp := tr.Start("chain_multiply")
		v = v.MulMat(u)
		if sp != nil {
			spanVectorAttrs(sp, c.side, label, u, v).End()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return v, nil
}

// chainStep advances a matrix chain by one transition. A nil state means u is
// the chain's first transition, which seeds the chain instead of being
// multiplied into an identity matrix: 1·u and 0+u are exact, so the seed is
// bit-identical to that product and costs no SpGEMM. (Subset chains restrict
// u to their rows first, for the same reason.) Later transitions multiply,
// polling ctx between row blocks.
func chainStep(ctx context.Context, pm, u *sparse.Matrix) (*sparse.Matrix, error) {
	if pm == nil {
		return u, nil
	}
	return pm.MulCtx(ctx, u)
}

// opMatrixChain materializes the reachable probability matrix of a chain,
// caching every prefix so paths sharing prefixes reuse work (the
// concatenation speedup of Section 4.6). It is the only operator that reads
// or writes the chain cache.
func (e *Engine) opMatrixChain(ctx context.Context, c chain) (*sparse.Matrix, error) {
	if len(c.steps) == 0 {
		return e.identity(c.start), nil
	}
	tr := obs.FromContext(ctx)
	fullKey := e.chainCacheKey(c)
	if e.caching {
		if m, ok := e.cacheGet(fullKey); ok {
			metCacheHits.Inc()
			if tr != nil {
				tr.Event("cache_hit", map[string]string{"key": fullKey, "side": string(c.side)})
			}
			return m, nil
		}
		metCacheMisses.Inc()
		if tr != nil {
			tr.Event("cache_miss", map[string]string{"key": fullKey, "side": string(c.side)})
		}
	}
	// Resume from the longest cached prefix — the partial-path concatenation
	// speedup of Section 4.6, and what makes a partially-warm chain cost
	// only its cold suffix (the planner's chainColdFlops prices exactly
	// this resumption).
	var pm *sparse.Matrix
	from := 0
	if e.caching {
		for i := len(c.steps) - 1; i >= 1; i-- {
			if m, ok := e.cacheGet(stepsKey(c.steps[:i])); ok {
				pm, from = m, i
				if tr != nil {
					tr.Event("prefix_hit", map[string]string{
						"key":   stepsKey(c.steps[:i]),
						"steps": strconv.Itoa(i),
					})
				}
				break
			}
		}
	}
	err := e.propagateFrom(ctx, c, from, func(u *sparse.Matrix, label, prefixKey string) error {
		sp := tr.Start("chain_multiply")
		var err error
		if pm, err = chainStep(ctx, pm, u); err != nil {
			return err
		}
		if sp != nil {
			spanMatrixAttrs(sp, c.side, label, pm).End()
		}
		if e.caching {
			e.cachePut(prefixKey, pm)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if e.caching {
		e.cachePut(fullKey, pm)
	}
	return pm, nil
}

// opSubsetChain propagates the rows of the given node indices through a
// chain without caching — the shared-subset operator of the batch scheduler
// and the subset-chain plan. Row r of the result is the reaching
// distribution of rows[r], bit-identical to the matching row of the fully
// materialized chain and to opVectorChain's sparse propagation.
func (e *Engine) opSubsetChain(ctx context.Context, rows []int, c chain) (*sparse.Matrix, error) {
	if len(c.steps) == 0 {
		return e.identity(c.start).SelectRows(rows), nil
	}
	tr := obs.FromContext(ctx)
	var pm *sparse.Matrix
	err := e.propagate(ctx, c, func(u *sparse.Matrix, label, _ string) error {
		sp := tr.Start("chain_multiply")
		if pm == nil {
			u = u.SelectRows(rows)
		}
		var err error
		if pm, err = chainStep(ctx, pm, u); err != nil {
			return err
		}
		if sp != nil {
			spanMatrixAttrs(sp, c.side, label, pm).End()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pm, nil
}

// chainScan is what opScanChain resolved for one top-k: which of the four
// scans runs (DESIGN §11) and what it reads.
type chainScan struct {
	kind   *scanKind
	pm     *sparse.Matrix   // the chain
	pmT    *sparse.Matrix   // the transposed chain
	rows   []int            // reachable-rows scan: the candidate targets, ascending
	scores sparse.RowScores // reachable-rows scan: entry i scores target rows[i]
	rented float64          // reachable-rows scan: the chain's rent so far
}

// opScanChain resolves what a top-k scan reads for a right half-chain, from
// what the chain cache holds when the query arrives (warmScan, DESIGN §11):
//
//   - "T:"+key cached: the transposed chain alone (pm is nil).
//   - the chain cached, with room for its transpose — it is being reused, so
//     its transpose will be too: build it, cache it under "T:"+key, return both.
//   - neither, and few targets can meet left (rentRows): their rows alone,
//     propagated, scored against left and by the norm weights d in the
//     kernel, and cached nowhere.
//   - otherwise pm alone, scored row by row: a chain this request builds may
//     have no other user, and a transpose a full bounded cache would evict
//     next is not worth building.
//
// An empty chain's identity is its own transpose and always at hand. Besides
// RewarmFrom this is the only producer of "T:" entries, and a non-caching
// engine never stores one.
func (e *Engine) opScanChain(ctx context.Context, c chain, left *sparse.Vector, d []float64) (chainScan, error) {
	if len(c.steps) == 0 {
		id := e.identity(c.start)
		return chainScan{kind: scanTransposed, pm: id, pmT: id}, nil
	}
	key := e.chainCacheKey(c)
	tKey := "T:" + key
	if e.caching {
		if pmT, ok := e.cacheGet(tKey); ok {
			return chainScan{kind: scanTransposed, pmT: pmT}, nil
		}
	}
	kind := e.warmScan(key)
	if kind == nil && e.caching { // a non-caching engine has nothing to buy
		if sc, err := e.rentRows(ctx, c, key, left, d); err != nil || sc.rows != nil {
			return sc, err
		}
	}
	pm, err := e.opMatrixChain(ctx, c)
	if err != nil || kind != scanTransposeOnce {
		return chainScan{kind: scanRows, pm: pm}, err
	}
	pmT := pm.Transpose()
	e.cachePut(tKey, pmT)
	return chainScan{kind: scanTransposeOnce, pm: pm, pmT: pmT}, nil
}

// rentRows is the rent-or-buy rule of a cold chain's top-k. Renting
// propagates and scores only the rows of the targets that can meet left
// (opSubsetScore), at the estimated cost of that fraction of the chain; it
// is chosen while one scan costs under half of what materializing still
// would (pickPlan's cache-value rule) and the chain's rent so far, this scan
// included, stays within that cold cost. Otherwise rows stays nil, the rent restarts at zero and the
// caller buys — so a hot chain ends up cached after at most twice the work
// of materializing at once, and a one-off path never pays for every target.
func (e *Engine) rentRows(ctx context.Context, c chain, key string, left *sparse.Vector, d []float64) (chainScan, error) {
	est, err := e.estimateChainCached(c, nil)
	if err != nil {
		return chainScan{}, err
	}
	rows, err := e.reachableRows(ctx, c, left)
	if err != nil {
		return chainScan{}, err
	}
	cost, cold := rowFraction(len(rows), est.Rows)*est.Flops, e.chainColdFlops(c, est)
	e.estMu.Lock()
	rented := e.rented[key] + cost
	if 2*cost >= cold || rented > cold {
		delete(e.rented, key)
		e.estMu.Unlock()
		return chainScan{}, nil
	}
	e.rented[key] = rented
	e.estMu.Unlock()
	scores, err := e.opSubsetScore(ctx, rows, c, left, d)
	return chainScan{kind: scanReachable, rows: rows, scores: scores, rented: rented}, err
}

// opSubsetScore is opSubsetChain whose last step is scored instead of
// built: each row's dot with left and its norm by d come out of the kernel
// (sparse.MulScore), bit for bit those of the row opSubsetChain would
// return, and no row of the last step is stored. A one-step chain's rows
// are its transition's own, scored by the same code.
func (e *Engine) opSubsetScore(ctx context.Context, rows []int, c chain, left *sparse.Vector, d []float64) (sparse.RowScores, error) {
	last := len(c.steps) - 1
	var pm *sparse.Matrix
	if last > 0 {
		var err error
		if pm, err = e.opSubsetChain(ctx, rows, chain{steps: c.steps[:last], start: c.start, side: c.side}); err != nil {
			return sparse.RowScores{}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return sparse.RowScores{}, err
	}
	u, err := e.transition(c.steps[last])
	if err != nil {
		return sparse.RowScores{}, err
	}
	sp := obs.FromContext(ctx).Start("chain_multiply")
	var sc sparse.RowScores
	if pm == nil {
		sc = u.ScoreRows(rows, left, d)
	} else if sc, err = pm.MulScore(ctx, u, left, d); err != nil {
		return sparse.RowScores{}, err
	}
	if sp != nil {
		_, cols := u.Dims()
		sp.SetAttr("side", string(c.side)).
			SetAttr("step", stepKey(c.steps[last])).
			SetAttr("kind", "score").
			SetAttr("rows", strconv.Itoa(len(rows))).
			SetAttr("cols", strconv.Itoa(cols)).
			SetAttr("entries", strconv.Itoa(sc.Entries)).
			SetAttr("flops", strconv.Itoa(sc.Flops)).
			End()
	}
	return sc, nil
}

// reachableRows walks a distribution over the chain's end type back through
// the reversed steps and returns, ascending, the start nodes whose chain row
// overlaps its support — the only targets a top-k can score above zero.
// Only supports matter: transition(s.Reversed()) has the sparsity of
// transition(s) transposed, and positive weights never cancel.
func (e *Engine) reachableRows(ctx context.Context, c chain, v *sparse.Vector) ([]int, error) {
	for i := len(c.steps) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		u, err := e.transition(c.steps[i].Reversed())
		if err != nil {
			return nil, err
		}
		v = v.MulMat(u)
	}
	rows := make([]int, 0, v.NNZ())
	v.Entries(func(i int, _ float64) { rows = append(rows, i) })
	return rows, nil
}

// spanMatrixAttrs annotates a chain-multiply span with the result's
// shape and sparsity — the per-step cost accounting that makes a trace
// explain where a `PM_PL · PM'_{PR⁻¹}` query spent its time.
func spanMatrixAttrs(sp *obs.SpanHandle, side byte, step string, pm *sparse.Matrix) *obs.SpanHandle {
	if sp == nil {
		return nil
	}
	rows, cols := pm.Dims()
	return sp.SetAttr("side", string(side)).
		SetAttr("step", step).
		SetAttr("kind", "matrix").
		SetAttr("rows", strconv.Itoa(rows)).
		SetAttr("cols", strconv.Itoa(cols)).
		SetAttr("nnz", strconv.Itoa(pm.NNZ()))
}

// spanVectorAttrs annotates a vector propagation step with the transition
// matrix shape and the propagated distribution's support size.
func spanVectorAttrs(sp *obs.SpanHandle, side byte, step string, u *sparse.Matrix, v *sparse.Vector) *obs.SpanHandle {
	if sp == nil {
		return nil
	}
	sp.SetAttr("side", string(side)).
		SetAttr("step", step).
		SetAttr("kind", "vector").
		SetAttr("nnz", strconv.Itoa(v.NNZ()))
	if u != nil {
		rows, cols := u.Dims()
		sp.SetAttr("rows", strconv.Itoa(rows)).SetAttr("cols", strconv.Itoa(cols))
	}
	return sp
}
