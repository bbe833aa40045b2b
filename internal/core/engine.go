// Package core implements HeteSim, the relevance measure of the paper
// (Definitions 3, 7 and 10): a path-constrained, symmetric, semi-metric
// measure of the relatedness of same-typed or different-typed objects in a
// heterogeneous information network.
//
// HeteSim(s, t | P) measures how likely a walker starting at s following the
// relevance path P and a walker starting at t going against P meet at the
// same middle object. Computationally (Equations 6–8):
//
//	HeteSim(A1, Al+1 | P) = PM_PL · PM'_{PR^-1}
//
// where the path is decomposed into equal halves P = PL · PR (Definition 5,
// inserting an edge-object type into the middle atomic relation when the
// length is odd, Definition 6 — eliminated algebraically here, see middle),
// PM is the reachable probability matrix of Definition 9, and the normalized
// form (Definition 10) is the cosine of the two reaching distributions.
//
// The Engine caches transition matrices and materialized reachable
// probability matrices per path prefix, implementing the offline
// materialization and partial-path concatenation speedups of Section 4.6.
package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/sparse"
)

// Engine evaluates HeteSim queries over one graph. It is safe for
// concurrent use; all caches are guarded internally.
//
// Every query method takes a context.Context and stops between propagation
// steps once the context is canceled or past its deadline, returning the
// context's error. Long chains over large networks therefore release their
// core promptly when a caller gives up — the request-lifecycle contract the
// HTTP server builds on.
type Engine struct {
	g *hin.Graph

	normalized bool
	caching    bool
	cacheLimit int

	mu         sync.Mutex
	trans      map[string]*sparse.Matrix      // U per step key
	middles    map[string]*middle             // collapsed odd-path middle relation per step key
	reach      map[string]*cacheEntry         // PM per chain key (every prefix cached)
	norms      map[string]map[string]rowNorms // row norms per chain key, then per weights key
	inflation  float64                        // GreedyDual-Size L: the credit of the last victim
	chainBytes int64                          // resident bytes of every reach entry
	evictions  int                            // chain matrices dropped by the cache limit

	estMu    sync.Mutex
	estCache map[string]ChainEstimate // memoized cost estimates per chain key
	rented   map[string]float64       // estimated flops of reachable-rows scans per cold chain key (rentRows)

	planMu     sync.Mutex
	planCounts map[PlanKind]uint64 // optimizer selections per physical plan
}

// Option configures an Engine.
type Option func(*Engine)

// WithNormalization sets the engine's default score: the cosine-normalized
// form of Definition 10 (the default, true) or the raw meeting probability of
// Definition 3 (false). A query asks for the raw form on either engine with
// PlanOptions.Raw or BatchQuery.Raw: both forms are read off the same two
// reaching distributions at the last step, so they share every cached chain.
// The unnormalized form is primarily useful for studying Property 5 (the
// SimRank connection) and the Fig. 5(c) example.
func WithNormalization(on bool) Option { return func(e *Engine) { e.normalized = on } }

// raw reports whether a query scores by Definition 3: it asked to, or the
// engine's default is unnormalized.
func (e *Engine) raw(asked bool) bool { return asked || !e.normalized }

// WithCaching controls materialization of reachable probability matrices
// (default true). Disable to measure cold-query cost or bound memory.
func WithCaching(on bool) Option { return func(e *Engine) { e.caching = on } }

// WithCacheLimit bounds the number of materialized chain matrices the
// engine retains. When the limit is exceeded the entries cheapest to rebuild
// per byte they hold, and idle longest, are evicted with their row norms
// (GreedyDual-Size, see cachePut), so ad-hoc query traffic over many
// distinct paths cannot grow the cache without bound (nor evict for a "T:"
// transpose: transposeFits). n <= 0 (the default) keeps the cache unbounded —
// the right behavior for the CLI and the experiments, which query a fixed path
// set. Transition matrices (one per schema relation and direction) are never
// evicted; they are small and bounded by the schema.
func WithCacheLimit(n int) Option { return func(e *Engine) { e.cacheLimit = n } }

// NewEngine creates a HeteSim engine over g.
func NewEngine(g *hin.Graph, opts ...Option) *Engine {
	e := &Engine{
		g:          g,
		normalized: true,
		caching:    true,
		trans:      make(map[string]*sparse.Matrix),
		middles:    make(map[string]*middle),
		reach:      make(map[string]*cacheEntry),
		norms:      make(map[string]map[string]rowNorms),
		estCache:   make(map[string]ChainEstimate),
		rented:     make(map[string]float64),
		planCounts: make(map[PlanKind]uint64),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Graph returns the engine's underlying graph.
func (e *Engine) Graph() *hin.Graph { return e.g }

// stepKey identifies the transition matrix of one path step.
func stepKey(s metapath.Step) string {
	if s.Inverse {
		return s.Relation.Name + "~" // inverse traversal
	}
	return s.Relation.Name
}

// stepsKey identifies the materialized matrix of a non-empty step chain.
// Every plan, half and path shares it, so a path's left half, a PCRW matrix
// and a longer path's prefix all reuse one cache entry.
func stepsKey(steps []metapath.Step) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		parts[i] = stepKey(s)
	}
	return "C:" + strings.Join(parts, "|")
}

// transition returns the row-stochastic transition matrix U for one step
// (Definition 8): row-normalized adjacency, transposed first when the step
// traverses the relation inversely. By Property 2 this equals V' of the
// forward relation.
func (e *Engine) transition(s metapath.Step) (*sparse.Matrix, error) {
	key := stepKey(s)
	e.mu.Lock()
	if u, ok := e.trans[key]; ok {
		e.mu.Unlock()
		return u, nil
	}
	e.mu.Unlock()
	w, err := e.g.Adjacency(s.Relation.Name)
	if err != nil {
		return nil, err
	}
	if s.Inverse {
		w = w.Transpose()
	}
	u := w.RowNormalize()
	e.mu.Lock()
	e.trans[key] = u
	e.mu.Unlock()
	return u, nil
}

// middle is the middle relation R (S → T) of an odd-length path with the
// edge-object type E of Definition 6 eliminated (DESIGN §6). With A =
// rownorm(√W) and B = rownorm(√Wᵀ), U_SE·U_TEᵀ = M = A ⊙ Bᵀ, an S × T matrix
// laid out like W (entry k is instance k): the halves meet at T after one
// SpMV, l·M, and the cosine norms become norms of the un-extended halves
// weighted by dS[x] = Σ_y A[x,y]² and dT[y] = Σ_x B[y,x]². Rows of A and B
// are the rows of U_SE and U_TE.
type middle struct {
	a, b, m *sparse.Matrix
	l, r    weights // dS, at the left half's end type; dT, at the right's
}

// weights is how one half's cosine norms are taken: plainly (the zero value,
// d nil) at an even path's meeting type, weighted by dS or dT at an odd one's.
type weights struct {
	key string // the norm cache key: "" plain, else side and middle step key
	d   []float64
}

// weights returns the norm weighting of one half ('L' or 'R'); plain for an
// even path (mo nil).
func (mo *middle) weights(side byte) weights {
	switch {
	case mo == nil:
		return weights{}
	case side == 'L':
		return mo.l
	}
	return mo.r
}

// leftHalf is a left reaching distribution l and, if cached (metKey), l·M.
type leftHalf struct{ l, met *sparse.Vector }

// metKey names PM_L·M, an odd path's left half carried across its middle
// relation, which Precompute caches ("" for an even path).
func (e *Engine) metKey(h halves) string {
	if h.middle == nil {
		return ""
	}
	return "X:" + stepKey(*h.middle) + ">" + e.chainCacheKey(h.left())
}

// middleOf returns the collapsed form of an odd path's middle step s, built
// once per step key; nil for an even path (s nil). Like transitions, these
// are bounded by the schema and never evicted.
func (e *Engine) middleOf(s *metapath.Step) (*middle, error) {
	if s == nil {
		return nil, nil
	}
	key := stepKey(*s)
	e.mu.Lock()
	mo, ok := e.middles[key]
	e.mu.Unlock()
	if ok {
		return mo, nil
	}
	w, err := e.g.Adjacency(s.Relation.Name)
	if err != nil {
		return nil, err
	}
	if s.Inverse {
		w = w.Transpose()
	}
	rows, cols := w.Dims()
	ts := w.Triplets()
	for k := range ts {
		ts[k].Val = sqrtWeight(ts[k].Val)
	}
	sq := sparse.New(rows, cols, ts)
	mo = &middle{a: sq.RowNormalize(), b: sq.Transpose().RowNormalize()}
	ts = mo.a.Triplets()
	for k, t := range mo.b.Transpose().Triplets() { // Bᵀ is laid out like W
		ts[k].Val *= t.Val
	}
	if mo.m = sparse.New(rows, cols, ts); mo.m.NNZ() != w.NNZ() {
		return nil, fmt.Errorf("core: middle relation %s: instance weights underflow", key)
	}
	mo.l = weights{key: "L" + key, d: mo.a.RowSquares()}
	mo.r = weights{key: "R" + key, d: mo.b.RowSquares()}
	e.mu.Lock()
	e.middles[key] = mo
	e.mu.Unlock()
	return mo, nil
}

func sqrtWeight(w float64) float64 {
	if w < 0 {
		panic(fmt.Sprintf("core: negative adjacency weight %v", w))
	}
	if w == 1 { // fast path for the common 0/1 adjacency
		return 1
	}
	return math.Sqrt(w)
}

// halves describes the two reachable-probability chains of a decomposed
// path: leftSteps propagate the source forward to the meeting type,
// rightSteps propagate the target backward to it. When the original path has
// odd length, middle is the relation between where the two chains end.
type halves struct {
	leftSteps  []metapath.Step
	rightSteps []metapath.Step // already reversed: target → meeting type
	middle     *metapath.Step
	mo         *middle // middle's collapsed form, resolved by the optimizer
	src, dst   string  // the path's end types, where the two chains start
}

func splitPath(p *metapath.Path) halves {
	d := p.Decompose()
	right := make([]metapath.Step, len(d.Right))
	for i, s := range d.Right {
		right[len(d.Right)-1-i] = s.Reversed()
	}
	return halves{leftSteps: d.Left, rightSteps: right, middle: d.Middle, src: p.Source(), dst: p.Target()}
}

// cacheEntry is one resident chain-cache matrix and its GreedyDual-Size
// credit. Entries are held by pointer so a hit refreshes the credit in place.
type cacheEntry struct {
	m      *sparse.Matrix
	bytes  int64
	value  float64 // rebuild cost per resident byte (bounded caches only)
	credit float64 // H = L + value, set on install and on every hit
}

// matrixBytes is the resident size of a CSR matrix: a column index and a
// value per non-zero, and the row offsets.
func matrixBytes(m *sparse.Matrix) int64 {
	return 16*int64(m.NNZ()) + 8*int64(m.Rows()+1)
}

// cacheGet returns a cached chain matrix. Under a cache limit a hit refreshes
// the entry's credit, so a chain in use outlives the ones nobody asks for.
func (e *Engine) cacheGet(key string) (*sparse.Matrix, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.reach[key]
	if !ok {
		return nil, false
	}
	if e.cacheLimit > 0 {
		ent.credit = e.inflation + ent.value
	}
	return ent.m, true
}

// rebuildCost is what evicting a cache entry costs: for a chain, the
// estimated flops to rebuild it from the transitions — its first step is a
// free seed (chainStep), so a one-step chain, an alias of a transition that
// is never evicted, costs nothing; for a "T:" transpose or an "X:" product,
// its nnz. It reads transitions under e.mu, so callers run it unlocked.
func (e *Engine) rebuildCost(key string, m *sparse.Matrix) float64 {
	if c, transposed, err := parseChainKey(e.g.Schema(), key); err == nil && !transposed { // "X:" keys do not parse
		full, err1 := e.estimateChainCached(c, nil)
		seed, err2 := e.estimateChainCached(chain{steps: c.steps[:1], start: c.start}, nil)
		if err1 == nil && err2 == nil {
			return full.Flops - seed.Flops
		}
	}
	return float64(m.NNZ())
}

// cachePut installs a chain matrix, then, while the cache exceeds its limit,
// evicts by GreedyDual-Size (Cao & Irani, 1997): every entry holds a credit
// H = L + cost/bytes, refreshed on a hit; the victim is the entry with the
// least H (ties to the smaller key, so eviction is deterministic), and L
// rises to it. An entry cheap to rebuild per byte goes first, an idle one
// loses its lead as L catches up with it. The entry just installed is never
// the victim, so it serves its own query; row norms leave with their entry,
// and a chain's "T:" transpose with its chain. A transpose is installed only
// where transposeFits, so installing one never evicts. cachePut reports
// whether it installed key.
func (e *Engine) cachePut(key string, m *sparse.Matrix) bool {
	size := matrixBytes(m)
	var value float64
	if e.cacheLimit > 0 {
		value = e.rebuildCost(key, m) / float64(size)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if base, ok := strings.CutPrefix(key, "T:"); ok && !e.transposeFits(base) {
		return false
	}
	if old, ok := e.reach[key]; ok {
		e.chainBytes -= old.bytes
	}
	ent := &cacheEntry{m: m, bytes: size, value: value, credit: e.inflation + value}
	e.reach[key] = ent
	e.chainBytes += ent.bytes
	if e.cacheLimit <= 0 {
		return true
	}
	for len(e.reach) > e.cacheLimit {
		victim, vh := "", 0.0
		for k, ent := range e.reach {
			if k != key && (victim == "" || ent.credit < vh || (ent.credit == vh && k < victim)) {
				victim, vh = k, ent.credit
			}
		}
		e.inflation = vh
		e.evict(victim)
		e.evict("T:" + victim)
	}
	return true
}

// transposeFits reports whether the cache may install "T:"+key: beside its
// resident chain, and under a limit only while that evicts nothing — the
// cheapest entry to rebuild per byte, a transpose that forced an eviction
// would be the next victim, never read. Callers hold e.mu.
func (e *Engine) transposeFits(key string) bool {
	_, ok := e.reach[key]
	return ok && (e.cacheLimit <= 0 || len(e.reach) < e.cacheLimit)
}

// evict drops one resident entry and its row norms, if it is resident.
// Callers hold e.mu.
func (e *Engine) evict(key string) {
	ent, ok := e.reach[key]
	if !ok {
		return
	}
	delete(e.reach, key)
	delete(e.norms, key)
	e.chainBytes -= ent.bytes
	e.evictions++
	metCacheEvictions.Inc()
}

// rowNorms is a chain's cosine row norms (Definition 10) in pages of 256
// rows, as the chain's own CSR is paged (sparse): a rewarm that recomputes
// a few rows copies their pages and shares every other one with the
// previous generation's norms. Like matrices, they are never written once
// built.
type rowNorms [][]float64

const (
	normPageShift = 8
	normPageRows  = 1 << normPageShift
)

// pagedNorms cuts n into page windows, without copying it.
func pagedNorms(n []float64) rowNorms {
	out := make(rowNorms, (len(n)+normPageRows-1)>>normPageShift)
	for p := range out {
		out[p] = n[p<<normPageShift : min((p+1)<<normPageShift, len(n))]
	}
	return out
}

// at returns row r's norm.
func (n rowNorms) at(r int) float64 { return n[r>>normPageShift][r&(normPageRows-1)] }

// patched returns n over size (never fewer) rows with row rows[i] set to
// vals[i] and every added row zero. Pages that hold no such row and keep
// their length are shared with n.
func (n rowNorms) patched(size int, rows []int, vals []float64) rowNorms {
	out := make(rowNorms, (size+normPageRows-1)>>normPageShift)
	copy(out, n)
	own := make([]bool, len(out))
	fresh := func(p int) {
		pg := make([]float64, min(size-p<<normPageShift, normPageRows))
		if p < len(n) {
			copy(pg, n[p])
		}
		out[p], own[p] = pg, true
	}
	for p := range out {
		if p >= len(n) || len(n[p]) != min(size-p<<normPageShift, normPageRows) {
			fresh(p)
		}
	}
	for i, r := range rows {
		p := r >> normPageShift
		if !own[p] {
			fresh(p)
		}
		out[p][r&(normPageRows-1)] = vals[i]
	}
	return out
}

// chainRowNorms returns the cached cosine norms of a chain's rows under w,
// kept per chain and weights key: one chain can be the half of paths over
// different middle relations (AFAP, APAP) or none (APA). Under a cache limit
// they are kept only beside a resident chain (or an empty chain's identity),
// so norms of a chain evicted mid-query do not outlive it.
func (e *Engine) chainRowNorms(key string, pm *sparse.Matrix, w weights) rowNorms {
	e.mu.Lock()
	if n, ok := e.norms[key][w.key]; ok {
		e.mu.Unlock()
		return n
	}
	e.mu.Unlock()
	n := pagedNorms(pm.WeightedRowNorms(w.d))
	e.mu.Lock()
	if _, ok := e.reach[key]; e.cacheLimit > 0 && !ok && !strings.HasPrefix(key, "C:@") {
		e.mu.Unlock()
		return n
	}
	if e.norms[key] == nil {
		e.norms[key] = make(map[string]rowNorms)
	}
	e.norms[key][w.key] = n
	e.mu.Unlock()
	return n
}

// Pair returns HeteSim(src, dst | p) for nodes identified by string IDs.
// src must be of type p.Source() and dst of type p.Target().
func (e *Engine) Pair(ctx context.Context, p *metapath.Path, srcID, dstID string) (float64, error) {
	i, err := e.g.NodeIndex(p.Source(), srcID)
	if err != nil {
		return 0, err
	}
	j, err := e.g.NodeIndex(p.Target(), dstID)
	if err != nil {
		return 0, err
	}
	return e.PairByIndex(ctx, p, i, j)
}

// PairByIndex is Pair addressed by node indices, routed through the query
// optimizer with default options (auto plan, no walk budget).
func (e *Engine) PairByIndex(ctx context.Context, p *metapath.Path, src, dst int) (float64, error) {
	score, _, err := e.PairWithPlan(ctx, p, src, dst, PlanOptions{})
	return score, err
}

// SingleSource returns the HeteSim scores of one source node against every
// node of the path's target type, indexed by target node index.
func (e *Engine) SingleSource(ctx context.Context, p *metapath.Path, srcID string) ([]float64, error) {
	i, err := e.g.NodeIndex(p.Source(), srcID)
	if err != nil {
		return nil, err
	}
	return e.SingleSourceByIndex(ctx, p, i)
}

// SingleSourceByIndex is SingleSource addressed by node index, routed
// through the query optimizer with default options.
func (e *Engine) SingleSourceByIndex(ctx context.Context, p *metapath.Path, src int) ([]float64, error) {
	scores, _, err := e.singleSourceWithPlan(ctx, p, src, PlanOptions{})
	return scores, err
}

// normalizeSingleSource applies the cosine normalization of Definition 10 to
// a combined single-source score vector in place: score_b / (|left| · |row_b|),
// with zero-norm rows scored 0. Shared by the solo plan and the batch
// scheduler so both produce bit-identical scores.
func normalizeSingleSource(scores []float64, ln float64, rns rowNorms) {
	for b := range scores {
		if rn := rns.at(b); ln == 0 || rn == 0 {
			scores[b] = 0
		} else {
			scores[b] /= ln * rn
		}
	}
}

// AllPairs returns the full relevance matrix HeteSim(A1, Al+1 | p) with rows
// indexed by source nodes and columns by target nodes (Equation 6, plus the
// normalization of Definition 10 when enabled).
func (e *Engine) AllPairs(ctx context.Context, p *metapath.Path) (*sparse.Matrix, error) {
	m, _, err := e.AllPairsWithPlan(ctx, p, PlanOptions{})
	return m, err
}

// PairsSubset returns the relevance matrix restricted to the given source
// and target node-index subsets (in the given orders). It multiplies only
// the selected rows of the two half-path matrices, so scoring a labeled
// subset of a large network never materializes the full |A1| x |Al+1|
// relevance matrix — the plan the clustering experiments rely on.
func (e *Engine) PairsSubset(ctx context.Context, p *metapath.Path, srcs, dsts []int) (*sparse.Matrix, error) {
	m, _, err := e.PairsSubsetWithPlan(ctx, p, srcs, dsts, PlanOptions{})
	return m, err
}

// Precompute materializes and caches both half-path reachable probability
// matrices and their row norms, so subsequent SingleSource and Pair queries
// on the same path are served from the cache — the offline materialization
// speedup of Section 4.6; for an odd path, PM_L·M too (metKey).
func (e *Engine) Precompute(ctx context.Context, p *metapath.Path) error {
	h := splitPath(p)
	mo, err := e.middleOf(h.middle)
	if err != nil {
		return err
	}
	pml, err := e.opMatrixChain(ctx, h.left())
	if err != nil {
		return err
	}
	if len(h.leftSteps) > 0 && h.middle != nil && e.caching {
		x, err := pml.MulCtx(ctx, mo.m)
		if err != nil {
			return err
		}
		e.cachePut(e.metKey(h), x)
	}
	pmr, err := e.opMatrixChain(ctx, h.right())
	if err != nil {
		return err
	}
	e.chainRowNorms(e.chainCacheKey(h.left()), pml, mo.weights('L'))
	e.chainRowNorms(e.chainCacheKey(h.right()), pmr, mo.weights('R'))
	return nil
}

// ReachableMatrix returns the reachable probability matrix PM_P of
// Definition 9: the product of the transition matrices of every step. This
// is exactly the Path Constrained Random Walk distribution, exposed for the
// PCRW baseline and Fig. 7-style analyses.
func (e *Engine) ReachableMatrix(ctx context.Context, p *metapath.Path) (*sparse.Matrix, error) {
	return e.opMatrixChain(ctx, pathChain(p))
}

// ReachableFrom returns row src of PM_P without materializing the matrix.
func (e *Engine) ReachableFrom(ctx context.Context, p *metapath.Path, src int) (*sparse.Vector, error) {
	if err := e.checkIndex(p.Source(), src); err != nil {
		return nil, err
	}
	return e.opVectorChain(ctx, src, pathChain(p))
}

// CacheSize reports the number of cached matrices (transition plus
// reachable), mostly for tests and diagnostics.
func (e *Engine) CacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.trans) + len(e.middles) + len(e.reach)
}

// CacheInfo is a point-in-time snapshot of the engine's matrix caches.
type CacheInfo struct {
	Transition int   `json:"transition"`  // per-relation transition matrices
	Edge       int   `json:"edge"`        // collapsed odd-path middle relations
	Chain      int   `json:"chain"`       // materialized chain (reachable) matrices
	ChainBytes int64 `json:"chain_bytes"` // resident CSR bytes of the chain matrices
	Evictions  int   `json:"evictions"`   // chain matrices dropped by WithCacheLimit
}

// CacheStats breaks CacheSize down by kind: transition matrices, collapsed
// middle relations, and materialized chain matrices with the bytes they
// hold, plus the count of chain matrices the cache limit has evicted so far.
// Only chain matrices are subject to WithCacheLimit eviction.
func (e *Engine) CacheStats() CacheInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	return CacheInfo{
		Transition: len(e.trans),
		Edge:       len(e.middles),
		Chain:      len(e.reach),
		ChainBytes: e.chainBytes,
		Evictions:  e.evictions,
	}
}

// CacheLimit returns the configured chain-matrix cache bound (0 when
// unbounded), so operators can correlate eviction counts with the limit
// that produced them.
func (e *Engine) CacheLimit() int { return e.cacheLimit }

// ExportChains returns the engine's materialized chain matrices keyed by
// chain cache key — what RewarmFrom carries into the next generation.
// Matrices are immutable and shared, so the export is cheap and safe under
// concurrent queries.
func (e *Engine) ExportChains() map[string]*sparse.Matrix {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]*sparse.Matrix, len(e.reach))
	for k, ent := range e.reach {
		out[k] = ent.m
	}
	return out
}

// ClearCache drops all cached matrices, norms, and cost estimates.
func (e *Engine) ClearCache() {
	e.mu.Lock()
	e.trans = make(map[string]*sparse.Matrix)
	e.middles = make(map[string]*middle)
	e.reach = make(map[string]*cacheEntry)
	e.norms = make(map[string]map[string]rowNorms)
	e.inflation, e.chainBytes = 0, 0
	e.mu.Unlock()
	e.estMu.Lock()
	e.estCache = make(map[string]ChainEstimate)
	e.rented = make(map[string]float64)
	e.estMu.Unlock()
}

func (e *Engine) checkIndex(typeName string, i int) error {
	n := e.g.NodeCount(typeName)
	if i < 0 || i >= n {
		return fmt.Errorf("%w: %s #%d (have %d)", hin.ErrUnknownNode, typeName, i, n)
	}
	return nil
}
