package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
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
// Sharing also crosses group boundaries: half-chains of different paths that
// start with the same step sequence (APA's left half is a prefix of APVPA's,
// and of APCPA's) form a prefix family, and the side planner propagates the
// union of their requested rows once through the shared prefix, resuming each
// longer chain from the shortest family member's state. That is what makes a
// multi-path ensemble over one (src, dst) pair — one query per path, every
// group a singleton — cheaper batched than looped: the per-path groups share
// their common half-chain prefixes even though no two queries share a path.

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
// whether the scheduler answered the query from shared chain state — either
// group-shared (several queries on one path) or prefix-shared across groups
// (its path's half-chains belong to a family with other paths in the batch).
// It is false for queries with nothing to share and for queries that fell
// back to the solo plan after a preparation failure.
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

	// Cross-group half-chain sharing, in row-propagation units (rows
	// propagated × steps applied). NaiveRowSteps is what independent
	// per-group side preparation would have cost; RowSteps is what the
	// side planner actually performed after merging duplicate half-chains,
	// unioning requested rows, and resuming prefix-family chains from
	// shared state. NaiveRowSteps/RowSteps > 1 is proof of sharing across
	// paths with common prefixes.
	RowSteps      int
	NaiveRowSteps int
	PrefixResumes int // builds resumed from a sibling build's prefix state
}

// BatchOptions tunes ExecuteBatch.
type BatchOptions struct {
	// Workers bounds the concurrency of group preparation and per-query
	// execution. <= 0 uses a runtime-sized default.
	Workers int
	// PerQueryTimeout, when positive, bounds each query (and each prefix
	// family's shared chain preparation) with its own context deadline.
	PerQueryTimeout time.Duration
}

// batchSide is one half-chain's shared state: either the full chain matrix
// (rowOf nil, node index == row) or a subset propagation restricted to the
// rows the builds' groups actually need (rowOf maps node index → row).
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
	rightNorms []float64      // its row norms when some query is normalized
	prepErr    error

	leftB  *sideBuild // planned side builds; nil for solo groups
	rightB *sideBuild
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

// sideBuild is one distinct half-chain the batch needs, merged over every
// group that requests it (a symmetric path's left and right halves share one
// cache key, and so do equal halves of different groups).
type sideBuild struct {
	c        chain
	key      string   // chain cache key — the merge key
	seq      []string // step keys
	start    string   // start node type
	needFull bool     // some group needs the full matrix (single-source/top-k)
	rowSet   map[int]struct{}
	groups   []*batchGroup // distinct referencing groups
	naive    int           // row-steps of the independent per-group requests

	family *sideFamily

	// Results, written by the family builder.
	side *batchSide
	plan string // "warm", "full", "subset"
	err  error
}

// sideFamily groups the side builds whose step sequences start identically
// (same start type, same first step): the unit of cross-group prefix
// sharing. All subset builds of a family propagate the same unioned row set,
// so a longer chain can resume bit-identically from a shorter one's state.
type sideFamily struct {
	builds []*sideBuild
	rows   []int       // ascending union of the subset builds' requested rows
	rowOf  map[int]int // node index → family row
}

// batchPrep is the cross-group side plan of one batch.
type batchPrep struct {
	builds   map[string]*sideBuild
	order    []string // deterministic build ordering
	families []*sideFamily

	mu            sync.Mutex
	rowSteps      int
	naiveRowSteps int
	prefixResumes int
}

func (bp *batchPrep) addSteps(actual, naive, resumes int) {
	bp.mu.Lock()
	bp.rowSteps += actual
	bp.naiveRowSteps += naive
	bp.prefixResumes += resumes
	bp.mu.Unlock()
}

func seqJoin(seq []string) string { return strings.Join(seq, "\x00") }

// sideSeq is a chain's step-key sequence.
func sideSeq(c chain) []string {
	seq := make([]string, len(c.steps))
	for i, s := range c.steps {
		seq[i] = stepKey(s)
	}
	return seq
}

// ExecuteBatch answers a list of heterogeneous queries, grouping them by
// canonical path so each path's chains are propagated exactly once, and
// merging half-chain work across groups whose paths share prefixes. Results
// are positional; each carries its own error (partial-failure semantics). A
// batch-level error is returned only when ctx is already done before any
// work starts.
//
// Scores are bit-identical to the same queries issued alone: every plan —
// solo vector propagation, full chain materialization, and the subset
// propagation (with or without a prefix resume, whose row-sequential
// multiplies are the same computation) — accumulates per-entry contributions
// in the same ascending-index order.
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
	var order []string // deterministic group ordering for stats and traces
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
			order = append(order, key)
		}
		g.queries = append(g.queries, i)
		groupOf[i] = g
	}
	stats.Groups = len(groups)
	if stats.Groups > 0 {
		stats.Amortization = float64(stats.Queries) / float64(stats.Groups)
	}
	prep := e.planBatchSides(queries, groups, order)
	if sp != nil {
		sp.SetAttr("queries", strconv.Itoa(len(queries))).
			SetAttr("groups", strconv.Itoa(len(groups))).
			SetAttr("side_builds", strconv.Itoa(len(prep.order))).
			SetAttr("prefix_families", strconv.Itoa(len(prep.families))).End()
	}
	metBatches.Inc()
	metBatchQueries.Add(uint64(len(queries)))
	metBatchSize.Observe(float64(len(queries)))
	metBatchGroups.Observe(float64(len(groups)))
	if stats.Groups > 0 {
		metBatchAmortization.Observe(stats.Amortization)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = defaultBatchWorkers()
	}
	sem := make(chan struct{}, workers)
	var builds atomic.Int64

	// Phase A: build each prefix family's shared chain state, families in
	// parallel, builds within a family shortest-first so longer chains resume
	// from shorter ones. A failed build degrades its groups' queries to the
	// solo plan rather than failing them outright.
	var wg sync.WaitGroup
	for _, f := range prep.families {
		wg.Add(1)
		sem <- struct{}{}
		go func(f *sideFamily) {
			defer wg.Done()
			defer func() { <-sem }()
			pctx, cancel := batchQueryContext(ctx, opts.PerQueryTimeout)
			defer cancel()
			e.buildFamily(pctx, f, &builds, prep)
		}(f)
	}
	wg.Wait()

	// Bind every sharing group to its builds' results.
	for _, key := range order {
		g := groups[key]
		if g.plan == "solo" {
			continue
		}
		switch {
		case g.leftB.err != nil:
			g.prepErr = g.leftB.err
		case g.rightB.err != nil:
			g.prepErr = g.rightB.err
		default:
			g.left = g.leftB.side
			g.plan = g.leftB.plan
			g.right = g.rightB.side
			if g.needsRightMatrix(queries) {
				g.rightFull = g.rightB.side.m
				for _, qi := range g.queries {
					if !e.raw(queries[qi].Raw) { // norms only for a normalized query
						g.rightNorms = e.chainRowNorms(g.rightB.key, g.rightFull, g.h.mo.weights('R'))
						break
					}
				}
			}
		}
	}

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
	stats.ChainBuilds = int(builds.Load())
	stats.RowSteps = prep.rowSteps
	stats.NaiveRowSteps = prep.naiveRowSteps
	stats.PrefixResumes = prep.prefixResumes
	metBatchShared.Add(uint64(stats.SharedQueries))
	metBatchChainBuilds.Add(uint64(stats.ChainBuilds))
	metBatchRowSteps.Add(uint64(stats.RowSteps))
	metBatchNaiveRowSteps.Add(uint64(stats.NaiveRowSteps))
	metBatchPrefixResumes.Add(uint64(stats.PrefixResumes))
	return results, stats, nil
}

// planBatchSides decides which groups share chain state and merges their
// half-chain requests into deduplicated side builds clustered in prefix
// families. A group shares when it has at least two queries (the classic
// within-group amortization) or when one of its half-chains is mergeable
// (another group requests the same chain) or prefix-related to another
// group's half-chain. A lone query on a path nothing else in the batch
// touches keeps the solo plans — they are already optimal, and equal-row
// subset propagation would only add overhead.
func (e *Engine) planBatchSides(queries []BatchQuery, groups map[string]*batchGroup, order []string) *batchPrep {
	collect := func(include func(g *batchGroup) bool) *batchPrep {
		bp := &batchPrep{builds: make(map[string]*sideBuild)}
		addReq := func(g *batchGroup, c chain, rows []int, needFull bool) *sideBuild {
			key := e.chainCacheKey(c)
			b, ok := bp.builds[key]
			if !ok {
				b = &sideBuild{
					c: c, key: key, seq: sideSeq(c),
					start:  c.start,
					rowSet: make(map[int]struct{}),
				}
				bp.builds[key] = b
				bp.order = append(bp.order, key)
			}
			reqRows := len(rows)
			if needFull {
				b.needFull = true
				reqRows = e.g.NodeCount(b.start)
			}
			for _, r := range rows {
				b.rowSet[r] = struct{}{}
			}
			b.naive += reqRows * len(b.seq)
			seen := false
			for _, have := range b.groups {
				if have == g {
					seen = true
					break
				}
			}
			if !seen {
				b.groups = append(b.groups, g)
			}
			return b
		}
		for _, key := range order {
			g := groups[key]
			if !include(g) {
				continue
			}
			srcRows := distinctInts(g.queries, func(qi int) (int, bool) { return queries[qi].Src, true })
			g.leftB = addReq(g, g.h.left(), srcRows, false)
			if g.needsRightMatrix(queries) {
				g.rightB = addReq(g, g.h.right(), nil, true)
			} else {
				dstRows := distinctInts(g.queries, func(qi int) (int, bool) {
					return queries[qi].Dst, queries[qi].Kind == BatchPair
				})
				g.rightB = addReq(g, g.h.right(), dstRows, false)
			}
		}
		// Prefix families: builds sharing a start type and a first step.
		fams := make(map[string]*sideFamily)
		for _, key := range bp.order {
			b := bp.builds[key]
			fk := b.start
			if len(b.seq) > 0 {
				fk += "\x00" + b.seq[0]
			}
			f, ok := fams[fk]
			if !ok {
				f = &sideFamily{}
				fams[fk] = f
				bp.families = append(bp.families, f)
			}
			f.builds = append(f.builds, b)
			b.family = f
		}
		for _, f := range bp.families {
			set := make(map[int]struct{})
			for _, b := range f.builds {
				for r := range b.rowSet {
					set[r] = struct{}{}
				}
			}
			f.rows = make([]int, 0, len(set))
			for r := range set {
				f.rows = append(f.rows, r)
			}
			sort.Ints(f.rows)
			f.rowOf = make(map[int]int, len(f.rows))
			for i, r := range f.rows {
				f.rowOf[r] = i
			}
		}
		return bp
	}

	// First pass over every group decides who shares; the second collects
	// builds from the sharing groups only, so solo groups neither inflate
	// row unions nor trigger builds on their own.
	collect(func(*batchGroup) bool { return true })
	for _, key := range order {
		g := groups[key]
		shares := len(g.queries) >= 2 ||
			len(g.leftB.groups) >= 2 || len(g.rightB.groups) >= 2 ||
			len(g.leftB.family.builds) >= 2 || len(g.rightB.family.builds) >= 2
		if !shares {
			g.plan = "solo"
			g.leftB, g.rightB = nil, nil
		}
	}
	return collect(func(g *batchGroup) bool { return g.plan != "solo" })
}

// buildFamily materializes one prefix family's side builds, shortest chain
// first, resuming every longer subset chain from the longest already-built
// prefix state. Subset rows are independent and multiplies are applied in
// the same left-to-right order whether resumed or not, so resumed builds are
// bit-identical to from-scratch ones.
func (e *Engine) buildFamily(ctx context.Context, f *sideFamily, builds *atomic.Int64, bp *batchPrep) {
	sort.Slice(f.builds, func(i, j int) bool {
		if len(f.builds[i].seq) != len(f.builds[j].seq) {
			return len(f.builds[i].seq) < len(f.builds[j].seq)
		}
		return f.builds[i].key < f.builds[j].key
	})
	tr := obs.FromContext(ctx)
	// Step-prefix state shared within the family: seq prefix → propagated
	// subset matrix over f.rows. Intermediates are registered as they are
	// produced, so two chains diverging after a shared prefix still share it
	// even when no build ends exactly at the branch point.
	prefix := make(map[string]*sparse.Matrix)
	for _, b := range f.builds {
		sp := tr.Start("batch_materialize")
		e.buildSide(ctx, b, f, prefix, builds, bp)
		if sp != nil {
			sp.SetAttr("key", b.key).SetAttr("plan", b.plan)
			if b.err != nil {
				sp.SetAttr("error", b.err.Error())
			}
			sp.End()
		}
	}
}

func (e *Engine) buildSide(ctx context.Context, b *sideBuild, f *sideFamily, prefix map[string]*sparse.Matrix, builds *atomic.Int64, bp *batchPrep) {
	if len(b.c.steps) == 0 { // an empty half: the identity is always at hand
		b.side, b.plan = &batchSide{m: e.identity(b.start)}, "warm"
		return
	}
	if m, ok := e.cacheGet(b.key); ok {
		metCacheHits.Inc()
		b.side, b.plan = &batchSide{m: m}, "warm"
		return
	}
	if b.needFull || (e.caching && len(f.rows)*2 >= e.g.NodeCount(b.start)) {
		// The full chain: needed outright for single-source/top-k combines,
		// and worth materializing (it lands in the cache for every later
		// query) when the family touches at least half of the rows anyway.
		builds.Add(1)
		m, err := e.opMatrixChain(ctx, b.c)
		if err != nil {
			b.err = err
			return
		}
		b.side, b.plan = &batchSide{m: m}, "full"
		bp.addSteps(e.g.NodeCount(b.start)*len(b.seq), b.naive, 0)
		return
	}

	// Subset propagation of the family rows, resumed from the longest
	// already-built step prefix.
	builds.Add(1)
	tr := obs.FromContext(ctx)
	from := 0
	var pm *sparse.Matrix
	for i := len(b.c.steps); i >= 1; i-- {
		if m, ok := prefix[seqJoin(b.seq[:i])]; ok {
			pm, from = m, i
			break
		}
	}
	applied := 0
	err := e.propagateFrom(ctx, b.c, from, func(u *sparse.Matrix, label, prefixKey string) error {
		sp := tr.Start("chain_multiply")
		if pm == nil {
			u = u.SelectRows(f.rows)
		}
		var err error
		if pm, err = chainStep(ctx, pm, u); err != nil {
			return err
		}
		if sp != nil {
			spanMatrixAttrs(sp, b.c.side, label, pm).End()
		}
		applied++
		if prefixKey != "" { // pure step prefix: shareable within the family
			prefix[seqJoin(b.seq[:from+applied])] = pm
		}
		return nil
	})
	resumes := 0
	if from > 0 {
		resumes = 1
	}
	bp.addSteps(len(f.rows)*applied, b.naive, resumes)
	if err != nil {
		b.err = err
		return
	}
	b.side, b.plan = &batchSide{m: pm, rowOf: f.rowOf}, "subset"
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
		res.Scores, _, res.Err = e.SingleSourceWithPlan(ctx, q.Path, q.Src, o)
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
func combineSingleSource(mo *middle, left leftHalf, pmr *sparse.Matrix, rightNorms []float64, raw bool) []float64 {
	met, ln := mo.meetLeft(left, 0)
	scores := pmr.MulVec(met.Dense())
	if !raw {
		normalizeSingleSource(scores, ln, rightNorms)
	}
	return scores
}

// batchQueryContext derives a per-query (or per-family-preparation) context.
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
