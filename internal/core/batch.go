package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/sparse"
)

// Batch execution: many heterogeneous queries answered in one call, grouped
// by canonical relevance path. Every query on path P needs the same two
// reachable-probability chains PM_PL and PM'_{PR⁻¹} (Equation 8 / Property
// 2: PM_P factors into the per-step transition matrices U_{A1A2}…U_{AlAl+1}),
// so the scheduler pays each group's chain propagation once and fans the
// per-query vector work out over a bounded worker pool. With N same-path
// queries the chain cost amortizes N ways — the batch analogue of Section
// 4.6's offline materialization.
//
// A group builds its halves with the solo operators (opMatrixChain,
// opSubsetChain), so paths that share a prefix share it the way solo queries
// do: through the chain cache, from which opMatrixChain resumes a chain at its
// longest cached prefix.

// BatchKind selects the query shape of one BatchQuery.
type BatchKind string

// The batchable query kinds.
const (
	BatchPair         BatchKind = "pair"          // HeteSim(src, dst | P)
	BatchSingleSource BatchKind = "single_source" // src against every target
	BatchTopK         BatchKind = "topk"          // k best targets of src
)

// BatchQuery is one query inside a batch. Src, Dst are node indices within
// the path's source and target types. K and Eps apply to BatchTopK only. Raw
// is PlanOptions.Raw: it changes the last step only, so raw and normalized
// queries on one path share a group.
type BatchQuery struct {
	Kind BatchKind
	Path *metapath.Path
	Src  int
	Dst  int
	K    int
	Eps  float64
	Raw  bool
}

// BatchResult is the outcome of one BatchQuery, in the batch's order. Err is
// per-query: one failing query never fails its siblings. Shared reports
// whether the scheduler answered the query from its group's shared chain
// state (two or more queries on one path). It is false for a lone query on
// its path and for queries that fell back to the solo plan after a
// preparation failure.
type BatchResult struct {
	Score  float64   // BatchPair
	Scores []float64 // BatchSingleSource, indexed by target node index
	TopK   []Scored  // BatchTopK
	Shared bool
	Plan   string // "solo", "warm", "full", "subset"
	Err    error
}

// BatchStats summarizes how much sharing one batch achieved.
type BatchStats struct {
	Queries       int     // queries submitted
	Groups        int     // distinct canonical path groups
	SharedQueries int     // queries answered from shared chain state
	ChainBuilds   int     // chain propagations performed (full or subset)
	Amortization  float64 // queries per group: N queries / 1 materialization

	// Half-chain work of the sharing groups in row-propagation units (rows
	// propagated × steps applied). NaiveRowSteps counts the rows the groups
	// asked for, RowSteps what their builds propagated: a full build carries
	// every row of its start type. PrefixResumes is always zero — no build
	// resumes from another build's state — and stays for readers of the field.
	RowSteps      int
	NaiveRowSteps int
	PrefixResumes int
}

// BatchOptions tunes ExecuteBatch.
type BatchOptions struct {
	// Workers bounds the concurrency of group preparation and per-query
	// execution. <= 0 uses a runtime-sized default.
	Workers int
	// PerQueryTimeout, when positive, bounds each query (and each group's
	// shared chain preparation) with its own context deadline.
	PerQueryTimeout time.Duration
}

// batchSide is one half-chain's shared state: either the full chain matrix
// (rowOf nil, node index == row) or a subset propagation restricted to the
// rows the group needs (rowOf maps node index → row).
type batchSide struct {
	m     *sparse.Matrix
	rowOf map[int]int
}

func (s *batchSide) row(i int) *sparse.Vector {
	if s.rowOf != nil {
		i = s.rowOf[i]
	}
	return s.m.Row(i)
}

// batchGroup collects the queries of one canonical path (identical chain
// cache keys on both halves) and the shared state prepared for them.
type batchGroup struct {
	path    *metapath.Path
	h       halves // with its middle relation resolved
	queries []int  // indices into the batch

	plan       string // "solo", "warm", "full", "subset" (left-side plan)
	left       *batchSide
	right      *batchSide
	rightFull  *sparse.Matrix // full right chain when the group has matrix kinds
	rightNorms rowNorms       // its row norms when some query is normalized
	prepErr    error
}

// needsRightMatrix reports whether any query in the group requires the full
// right-half matrix (single-source and top-k combine against every target).
func (g *batchGroup) needsRightMatrix(qs []BatchQuery) bool {
	for _, qi := range g.queries {
		if qs[qi].Kind != BatchPair {
			return true
		}
	}
	return false
}

// batchWork tallies the sharing groups' half-chain builds across workers.
type batchWork struct {
	builds, rowSteps, naiveRowSteps atomic.Int64
}

// ExecuteBatch answers a list of heterogeneous queries, grouping them by
// canonical path so each path's chains are propagated exactly once. Results
// are positional; each carries its own error (partial-failure semantics). A
// batch-level error is returned only when ctx is already done before any
// work starts.
//
// Scores are bit-identical to the same queries issued alone: every plan —
// solo vector propagation, full chain materialization, and the subset
// propagation — accumulates per-entry contributions in the same
// ascending-index order.
func (e *Engine) ExecuteBatch(ctx context.Context, queries []BatchQuery, opts BatchOptions) ([]BatchResult, BatchStats, error) {
	start := time.Now()
	defer func() { observeQuery("batch", time.Since(start).Seconds()) }()
	stats := BatchStats{Queries: len(queries)}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	results := make([]BatchResult, len(queries))

	// Group by canonical path: both half-chain cache keys. Paths spelled
	// differently but decomposing into the same chains share a group.
	tr := obs.FromContext(ctx)
	sp := tr.Start("batch_plan")
	groups := make(map[string]*batchGroup)
	groupOf := make([]*batchGroup, len(queries))
	var order []*batchGroup // deterministic group ordering
	for i, q := range queries {
		if err := e.validateBatchQuery(q); err != nil {
			results[i].Err = err
			continue
		}
		h := splitPath(q.Path)
		var err error
		if h.mo, err = e.middleOf(h.middle); err != nil {
			results[i].Err = err
			continue
		}
		key := e.chainCacheKey(h.left()) + "\x00" + e.chainCacheKey(h.right())
		if h.middle != nil { // odd paths over different middle relations
			key += "\x00" + stepKey(*h.middle)
		}
		g, ok := groups[key]
		if !ok {
			g = &batchGroup{path: q.Path, h: h}
			groups[key] = g
			order = append(order, g)
		}
		g.queries = append(g.queries, i)
		groupOf[i] = g
	}
	// A lone query on a path keeps the solo plans: they are already optimal,
	// and a one-row subset propagation would only add overhead.
	var sharing []*batchGroup
	for _, g := range order {
		if len(g.queries) < 2 {
			g.plan = "solo"
		} else {
			sharing = append(sharing, g)
		}
	}
	stats.Groups = len(order)
	if stats.Groups > 0 {
		stats.Amortization = float64(stats.Queries) / float64(stats.Groups)
	}
	if sp != nil {
		sp.SetAttr("queries", strconv.Itoa(len(queries))).
			SetAttr("groups", strconv.Itoa(len(order))).
			SetAttr("shared_groups", strconv.Itoa(len(sharing))).End()
	}
	metBatches.Inc()
	metBatchQueries.Add(uint64(len(queries)))
	metBatchSize.Observe(float64(len(queries)))
	metBatchGroups.Observe(float64(len(order)))
	if stats.Groups > 0 {
		metBatchAmortization.Observe(stats.Amortization)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = defaultBatchWorkers()
	}
	sem := make(chan struct{}, workers)
	var work batchWork

	// Phase A: build each sharing group's halves, groups in parallel. A failed
	// build degrades its group's queries to the solo plan rather than failing
	// them outright.
	var wg sync.WaitGroup
	for _, g := range sharing {
		wg.Add(1)
		sem <- struct{}{}
		go func(g *batchGroup) {
			defer wg.Done()
			defer func() { <-sem }()
			pctx, cancel := batchQueryContext(ctx, opts.PerQueryTimeout)
			defer cancel()
			e.prepareGroup(pctx, g, queries, &work)
		}(g)
	}
	wg.Wait()

	// Phase B: per-query execution over the shared state, each query under
	// its own deadline.
	var shared atomic.Int64
	for i := range queries {
		if results[i].Err != nil {
			continue // failed validation
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			qctx, cancel := batchQueryContext(ctx, opts.PerQueryTimeout)
			defer cancel()
			results[i] = e.executeBatchQuery(qctx, groupOf[i], queries[i])
			if results[i].Shared {
				shared.Add(1)
			}
		}(i)
	}
	wg.Wait()

	stats.SharedQueries = int(shared.Load())
	stats.ChainBuilds = int(work.builds.Load())
	stats.RowSteps = int(work.rowSteps.Load())
	stats.NaiveRowSteps = int(work.naiveRowSteps.Load())
	metBatchShared.Add(uint64(stats.SharedQueries))
	metBatchChainBuilds.Add(uint64(stats.ChainBuilds))
	metBatchRowSteps.Add(uint64(stats.RowSteps))
	metBatchNaiveRowSteps.Add(uint64(stats.NaiveRowSteps))
	return results, stats, nil
}

// prepareGroup builds a sharing group's two halves, left first: a symmetric
// path's right half is the same chain, which a full left build has just
// cached. Pairs need their distinct target rows; single-source and top-k need
// the whole right chain.
func (e *Engine) prepareGroup(ctx context.Context, g *batchGroup, qs []BatchQuery, work *batchWork) {
	sp := obs.FromContext(ctx).Start("batch_materialize")
	defer func() {
		if sp != nil {
			sp.SetAttr("path", g.path.String()).SetAttr("plan", g.plan)
			if g.prepErr != nil {
				sp.SetAttr("error", g.prepErr.Error())
			}
			sp.End()
		}
	}()
	srcRows := distinctInts(g.queries, func(qi int) (int, bool) { return qs[qi].Src, true })
	left, plan, err := e.buildSide(ctx, g.h.left(), srcRows, false, work)
	if err != nil {
		g.prepErr = err
		return
	}
	needFull := g.needsRightMatrix(qs)
	dstRows := distinctInts(g.queries, func(qi int) (int, bool) { return qs[qi].Dst, qs[qi].Kind == BatchPair })
	right, _, err := e.buildSide(ctx, g.h.right(), dstRows, needFull, work)
	if err != nil {
		g.prepErr = err
		return
	}
	g.left, g.plan, g.right = left, plan, right
	if !needFull {
		return
	}
	g.rightFull = right.m
	for _, qi := range g.queries {
		if !e.raw(qs[qi].Raw) { // norms only for a normalized query
			g.rightNorms = e.chainRowNorms(e.chainCacheKey(g.h.right()), g.rightFull, g.h.mo.weights('R'))
			break
		}
	}
}

// buildSide resolves one half-chain of a sharing group with the solo
// operators: the cached chain ("warm"); the whole chain through opMatrixChain
// when a query combines against every target or, on a caching engine, the
// group asks for at least half of the rows anyway ("full": it lands in the
// cache for every later query); else opSubsetChain over the group's rows
// ("subset").
func (e *Engine) buildSide(ctx context.Context, c chain, rows []int, needFull bool, work *batchWork) (*batchSide, string, error) {
	if len(c.steps) == 0 { // an empty half: the identity is always at hand
		return &batchSide{m: e.identity(c.start)}, "warm", nil
	}
	if m, ok := e.cacheGet(e.chainCacheKey(c)); ok {
		metCacheHits.Inc()
		return &batchSide{m: m}, "warm", nil
	}
	n := e.g.NodeCount(c.start)
	work.builds.Add(1)
	if needFull || (e.caching && len(rows)*2 >= n) {
		m, err := e.opMatrixChain(ctx, c)
		if err != nil {
			return nil, "", err
		}
		asked := len(rows)
		if needFull {
			asked = n
		}
		work.naiveRowSteps.Add(int64(asked * len(c.steps)))
		work.rowSteps.Add(int64(n * len(c.steps)))
		return &batchSide{m: m}, "full", nil
	}
	m, err := e.opSubsetChain(ctx, rows, c)
	if err != nil {
		return nil, "", err
	}
	work.naiveRowSteps.Add(int64(len(rows) * len(c.steps)))
	work.rowSteps.Add(int64(len(rows) * len(c.steps)))
	rowOf := make(map[int]int, len(rows))
	for i, r := range rows {
		rowOf[r] = i
	}
	return &batchSide{m: m, rowOf: rowOf}, "subset", nil
}

func (e *Engine) validateBatchQuery(q BatchQuery) error {
	if q.Path == nil {
		return fmt.Errorf("core: batch query has no path")
	}
	switch q.Kind {
	case BatchPair:
		if err := e.checkIndex(q.Path.Source(), q.Src); err != nil {
			return err
		}
		return e.checkIndex(q.Path.Target(), q.Dst)
	case BatchSingleSource:
		return e.checkIndex(q.Path.Source(), q.Src)
	case BatchTopK:
		if q.K <= 0 {
			return fmt.Errorf("core: TopKSearch k=%d must be positive", q.K)
		}
		if q.Eps < 0 || q.Eps >= 1 {
			return fmt.Errorf("core: TopKSearch eps=%v outside [0,1)", q.Eps)
		}
		return e.checkIndex(q.Path.Source(), q.Src)
	default:
		return fmt.Errorf("core: unknown batch query kind %q", q.Kind)
	}
}

// executeBatchQuery answers one query, preferring the group's shared state
// and degrading to the solo plan when the group has nothing to share or its
// preparation failed.
func (e *Engine) executeBatchQuery(ctx context.Context, g *batchGroup, q BatchQuery) BatchResult {
	if g.plan == "solo" || g.prepErr != nil || g.left == nil {
		res := e.executeSoloQuery(ctx, q)
		res.Plan = "solo"
		return res
	}
	var res BatchResult
	res.Shared = true
	res.Plan = g.plan
	left := leftHalf{l: g.left.row(q.Src)}
	raw := e.raw(q.Raw)
	switch q.Kind {
	case BatchPair:
		res.Score = pairScore(g.h.mo, left, g.right.row(q.Dst), raw)
	case BatchSingleSource:
		res.Scores = combineSingleSource(g.h.mo, left, g.rightFull, g.rightNorms, raw)
	case BatchTopK:
		topk, err := e.topKFrom(ctx, g.h, left, q.K, q.Eps, raw)
		if err != nil {
			res.Err = err
			res.Shared = false
			return res
		}
		res.TopK = topk
	}
	return res
}

// executeSoloQuery answers one query through the ordinary solo entry points.
func (e *Engine) executeSoloQuery(ctx context.Context, q BatchQuery) BatchResult {
	var res BatchResult
	o := PlanOptions{Raw: q.Raw}
	switch q.Kind {
	case BatchPair:
		res.Score, _, res.Err = e.PairWithPlan(ctx, q.Path, q.Src, q.Dst, o)
	case BatchSingleSource:
		res.Scores, _, res.Err = e.singleSourceWithPlan(ctx, q.Path, q.Src, o)
	case BatchTopK:
		res.TopK, _, res.Err = e.TopKSearchWithPlan(ctx, q.Path, q.Src, q.K, q.Eps, o)
	default:
		res.Err = fmt.Errorf("core: unknown batch query kind %q", q.Kind)
	}
	return res
}

// combineSingleSource combines a propagated left distribution with the full
// right-half matrix — the shared combine/normalize of SingleSourceByIndex,
// factored so batch and solo run the same code and produce bit-identical
// scores. rightNorms may be nil for a raw query.
func combineSingleSource(mo *middle, left leftHalf, pmr *sparse.Matrix, rightNorms rowNorms, raw bool) []float64 {
	met, ln := mo.meetLeft(left, 0)
	scores := pmr.MulVec(met.Dense())
	if !raw {
		normalizeSingleSource(scores, ln, rightNorms)
	}
	return scores
}

// batchQueryContext derives a per-query (or per-group-preparation) context.
func batchQueryContext(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// distinctInts collects the distinct accepted values over a group's queries,
// in ascending order (deterministic subset row layout).
func distinctInts(queryIdx []int, get func(qi int) (int, bool)) []int {
	seen := make(map[int]struct{}, len(queryIdx))
	var out []int
	for _, qi := range queryIdx {
		v, ok := get(qi)
		if !ok {
			continue
		}
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func defaultBatchWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		return 1
	}
	if n > 16 {
		return 16
	}
	return n
}
