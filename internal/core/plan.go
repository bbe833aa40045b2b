package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/sparse"
)

// The compile → optimize → execute pipeline. Every public entry point
// lowers its request into one LogicalPlan (compile), the cost model picks a
// physical PlanKind from live signals — chain-cache warmth and the
// amortization hint (optimize) — and a small set of shared physical
// operators runs it (execute). Section 4.6 of
// the paper frames HeteSim computation as a trade-off between online vector
// propagation and offline materialization of the reachable-probability
// chains of Definition 9; this pipeline makes that trade-off a per-query
// runtime decision instead of a property of which API method the caller
// happened to pick.
//
// Every plan is exact and bit-identical: vector, subset, and materialized-row
// propagation accumulate each entry's contributions in the same
// ascending-index order (see operators.go), so switching plans never changes
// a score. A query that misses its deadline fails with the context's error;
// no plan trades accuracy for latency. Normalization is not a plan property:
// every plan reads the same two reaching distributions and PlanOptions.Raw
// picks, at the last step, Definition 3's dot or Definition 10's cosine.

// The plan kinds beyond the three exact plans of planner.go.
const (
	// PlanAuto asks the optimizer to choose; it is the zero-value
	// behavior of PlanOptions.Force.
	PlanAuto PlanKind = "auto"
	// PlanSubsetChain propagates selector matrices for just the requested
	// rows — the uncached subset plan of PairsSubset and the batch
	// scheduler.
	PlanSubsetChain PlanKind = "subset-chain"
)

// ErrPlanNotApplicable marks a forced plan that cannot execute the query's
// shape (e.g. pair-vectors for an all-pairs query).
var ErrPlanNotApplicable = errors.New("core: plan not applicable")

// PlanKindNames lists, for flag help, exactly the names ParsePlanKind accepts.
const PlanKindNames = "auto | pair-vectors | single-vs-matrix | all-pairs | subset-chain"

// ParsePlanKind validates a user-supplied plan name. The empty string means
// auto.
func ParsePlanKind(s string) (PlanKind, error) {
	switch k := PlanKind(s); k {
	case "", PlanAuto:
		return PlanAuto, nil
	case PlanPairVectors, PlanSingleVsMatrix, PlanAllPairs, PlanSubsetChain:
		return k, nil
	}
	return "", fmt.Errorf("%w: unknown plan %q", ErrPlanNotApplicable, s)
}

// ResultShape is the result form a logical plan must produce.
type ResultShape string

// The query shapes the optimizer plans for.
const (
	ShapePair         ResultShape = "pair"
	ShapeSingleSource ResultShape = "single_source"
	ShapeTopK         ResultShape = "topk"
	ShapeAllPairs     ResultShape = "all_pairs"
	ShapeSubset       ResultShape = "subset"
)

// PlanOptions carries the caller's planning hints into the optimizer.
type PlanOptions struct {
	// Force pins the physical plan ("" or PlanAuto lets the cost model
	// choose). A forced plan that cannot produce the query's shape fails
	// with ErrPlanNotApplicable.
	Force PlanKind
	// Queries is the anticipated number of queries on this path; one-time
	// materialization costs amortize over it. < 1 means 1.
	Queries int
	// Raw scores by Definition 3 (the meeting probability) even on an engine
	// whose default is Definition 10's cosine.
	Raw bool
}

// LogicalPlan is the compiled form of one query: what to compute,
// independent of how. Every public entry point lowers into this struct.
type LogicalPlan struct {
	Path  *metapath.Path
	Shape ResultShape
	Src   int   // ShapePair, ShapeSingleSource, ShapeTopK
	Dst   int   // ShapePair
	Srcs  []int // ShapeSubset
	Dsts  []int // ShapeSubset
	K     int   // ShapeTopK
	Eps   float64
	Opts  PlanOptions

	h halves
}

// PlanDecision records what the optimizer chose and why — returned to
// callers so the server can surface it in responses, stats, and traces.
type PlanDecision struct {
	Kind      PlanKind
	Est       PlanEstimate
	Forced    bool
	WarmLeft  bool // left half-chain was already materialized
	WarmRight bool // right half-chain was already materialized
	Reason    string
	// Candidates is every applicable plan, cheapest first.
	Candidates []PlanEstimate
}

// costModel is the optimizer's view of one path's two half-chains: their
// estimated shapes plus the live cache-warmth signals. The cold* fields
// price what materialization would actually cost given the cache: zero for
// a warm chain, the cold-suffix flops for a partially warm one (the
// executor resumes from the longest cached prefix), the full chain flops
// when nothing is cached.
type costModel struct {
	left, right ChainEstimate
	warmLeft    bool
	warmRight   bool
	rightScan   *scanKind // the top-k scan of a warm right half (warmScan); nil while cold
	rentRight   bool      // while the right half is cold, a top-k may propagate reachable rows only
	coldLeft    float64   // remaining flops to materialize the left half
	coldRight   float64   // remaining flops to materialize the right half
	coldRightT  float64   // one-time flops before a top-k can scan the right half
	mo          *middle   // an odd path's middle relation, handed to the executors
}

// chainColdFlops estimates the flops still needed to materialize a chain:
// zero when it is already cached, otherwise the full-chain estimate minus
// the estimate of the longest cached prefix — mirroring opMatrixChain's
// prefix resumption, so a chain whose prefix was kept warm (or row-patched
// by an incremental rewarm) is priced at its cold remainder only.
func (e *Engine) chainColdFlops(c chain, est ChainEstimate) float64 {
	if !e.caching {
		return est.Flops
	}
	if e.chainWarm(e.chainCacheKey(c)) {
		return 0
	}
	for i := len(c.steps) - 1; i >= 1; i-- {
		if !e.chainWarm(stepsKey(c.steps[:i])) {
			continue
		}
		pEst, err := e.estimateChainCached(chain{steps: c.steps[:i], start: c.start, side: c.side}, nil)
		if err != nil {
			break
		}
		if cold := est.Flops - pEst.Flops; cold > 0 {
			return cold
		}
		return 0
	}
	return est.Flops
}

// chainWarm reports whether a chain key is already materialized — always for
// an empty chain, whose identity (and its transpose) is at hand. A
// non-caching engine never reads the cache during execution, so it reports
// other chains cold regardless of imports.
func (e *Engine) chainWarm(key string) bool {
	if strings.HasPrefix(strings.TrimPrefix(key, "T:"), "C:@") {
		return true
	}
	if !e.caching {
		return false
	}
	_, ok := e.cacheGet(key)
	return ok
}

// warmScan names the top-k scan of a right half-chain the cache holds
// (opScanChain): its cached transpose's; transpose-once while the transpose
// fits (transposeFits); else its rows. It is nil while neither is resident.
// The cost model reads it too, so Explain prices the scan that runs.
func (e *Engine) warmScan(key string) *scanKind {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case strings.HasPrefix(key, "C:@") || e.reach["T:"+key] != nil:
		return scanTransposed
	case e.reach[key] == nil:
		return nil
	case e.transposeFits(key):
		return scanTransposeOnce
	}
	return scanRows
}

// estimateChainCached memoizes estimateChain per chain key (and middle
// relation crossed): estimates depend only on the transition matrices
// (static per graph), so the optimizer's per-query overhead is two map
// lookups, not a re-walk of the path.
func (e *Engine) estimateChainCached(c chain, mo *middle) (ChainEstimate, error) {
	key := e.chainCacheKey(c)
	if mo != nil {
		key += "|" + mo.l.key
	}
	e.estMu.Lock()
	if est, ok := e.estCache[key]; ok {
		e.estMu.Unlock()
		return est, nil
	}
	e.estMu.Unlock()
	est, err := e.estimateChain(c, mo)
	if err != nil {
		return ChainEstimate{}, err
	}
	e.estMu.Lock()
	e.estCache[key] = est
	e.estMu.Unlock()
	return est, nil
}

// costModelFor prices an odd path as the even path one step shorter plus one
// SpMV: its left half is estimated with M as a last step.
func (e *Engine) costModelFor(h halves) (costModel, error) {
	var cm costModel
	var err error
	if cm.mo, err = e.middleOf(h.middle); err != nil {
		return cm, err
	}
	if cm.left, err = e.estimateChainCached(h.left(), cm.mo); err != nil {
		return cm, err
	}
	if cm.right, err = e.estimateChainCached(h.right(), nil); err != nil {
		return cm, err
	}
	rightKey := e.chainCacheKey(h.right())
	cm.warmLeft = e.chainWarm(e.chainCacheKey(h.left()))
	cm.warmRight = e.chainWarm(rightKey)
	cm.rightScan = e.warmScan(rightKey)
	cm.rentRight = e.caching // a non-caching engine has nothing to buy
	cm.coldLeft = e.chainColdFlops(h.left(), cm.left)
	cm.coldRight = e.chainColdFlops(h.right(), cm.right)
	// Mirrors opScanChain: a cached transpose or row scan is free, a transpose
	// built once costs its nnz, a cold chain is materialized and scanned by
	// rows — the price of a rentable chain too: a rented scan costs under half.
	switch cm.rightScan {
	case scanTransposed, scanRows:
		cm.coldRightT = 0
	case scanTransposeOnce:
		cm.coldRightT = cm.right.NNZ
	default:
		cm.coldRightT = cm.coldRight
	}
	return cm, nil
}

// topKScanDescription names the scan opScanChain will pick for a top-k query
// under the cost model's cache signals.
func (cm costModel) topKScanDescription() string {
	switch {
	case cm.rightScan == scanTransposed:
		return "a candidate scan of the cached transposed right half"
	case cm.rightScan == scanTransposeOnce:
		return "transpose the cached right half once, then a candidate scan"
	case cm.rightScan == scanRows:
		return "a row scan of the cached right half (a full bounded cache keeps no transpose)"
	case cm.rentRight:
		return "few reachable targets: propagate their rows only, nothing cached; materializes once rent reaches the chain's cold flops"
	}
	return "materialize the right half and scan its rows (no transpose on a chain's first top-k)"
}

// planCandidates estimates every physical plan applicable to the query's
// shape, cheapest first (stable for ties, so the legacy default plan wins a
// tie). Materialization costs are zeroed for warm chains — the live signal
// that makes matrix plans near-free once the cache holds their inputs.
func planCandidates(cm costModel, lp LogicalPlan) []PlanEstimate {
	q := float64(lp.Opts.Queries)
	if q < 1 {
		q = 1
	}
	lRows := float64(maxInt(cm.left.Rows, 1))
	rRows := float64(maxInt(cm.right.Rows, 1))
	lpr := cm.left.Flops / lRows  // propagate one source vector through the left chain
	rpr := cm.right.Flops / rRows // propagate one target vector through the right chain
	lrow := cm.left.NNZ / lRows   // read one materialized left row
	rrow := cm.right.NNZ / rRows  // read one materialized right row
	matL, matR, matRT := cm.coldLeft, cm.coldRight, cm.coldRightT

	var out []PlanEstimate
	add := func(kind PlanKind, flops, mat float64, desc string) {
		out = append(out, PlanEstimate{Kind: kind, Flops: flops, Materialize: mat, Description: desc})
	}

	switch lp.Shape {
	case ShapePair:
		add(PlanPairVectors, q*(lpr+rpr), 0,
			"propagate sparse vectors from both endpoints, combine at the meeting type")
		add(PlanSingleVsMatrix, matR+q*(lpr+lrow+rrow), matR,
			"materialize the right half; per query, one vector chain and one row dot")
		add(PlanAllPairs, matL+matR+q*(lrow+rrow), matL+matR,
			"materialize both halves; queries are row-vs-row dots")
	case ShapeSingleSource:
		add(PlanSingleVsMatrix, matR+q*(lpr+cm.right.NNZ), matR,
			"materialize the right half; per query, one vector chain and one SpMV")
		add(PlanAllPairs, matL+matR+q*(lrow+cm.right.NNZ), matL+matR,
			"materialize both halves; per query, one row lookup and one SpMV")
	case ShapeTopK:
		scan := cm.right.NNZ // what a row scan costs, and the candidate scan's upper bound
		add(PlanSingleVsMatrix, matRT+q*(lpr+scan), matRT,
			"per query, one vector chain and "+cm.topKScanDescription())
		add(PlanAllPairs, matL+matRT+q*(lrow+scan), matL+matRT,
			"materialize the left half too; per query, one row lookup and "+cm.topKScanDescription())
	case ShapeAllPairs:
		product := cm.left.NNZ * cm.right.NNZ / float64(maxInt(cm.left.Cols, 1))
		add(PlanAllPairs, matL+matR+product, matL+matR+product,
			"materialize the full relevance matrix; queries are lookups")
	case ShapeSubset:
		fracL := rowFraction(len(lp.Srcs), cm.left.Rows)
		fracR := rowFraction(len(lp.Dsts), cm.right.Rows)
		subProd := fracL * cm.left.NNZ * fracR * cm.right.NNZ / float64(maxInt(cm.left.Cols, 1))
		add(PlanAllPairs, matL+matR+subProd, matL+matR,
			"materialize both halves, multiply only the selected rows")
		add(PlanSubsetChain, fracL*cm.left.Flops+fracR*cm.right.Flops+subProd, 0,
			"propagate selector matrices for the selected rows only; nothing cached")
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Flops < out[j].Flops })
	return out
}

func rowFraction(n, rows int) float64 {
	if rows <= 0 {
		return 1
	}
	f := float64(n) / float64(rows)
	if f > 1 {
		return 1
	}
	return f
}

// legacyKind is the physical plan each shape's entry point hardcoded before
// the optimizer existed. Auto selection pins it when the amortization
// assumption fails (caching disabled: materialized chains are thrown away,
// so matrix plans never pay off across queries).
func legacyKind(s ResultShape) PlanKind {
	switch s {
	case ShapePair:
		return PlanPairVectors
	case ShapeSingleSource, ShapeTopK:
		return PlanSingleVsMatrix
	default:
		return PlanAllPairs
	}
}

func findCandidate(cands []PlanEstimate, k PlanKind) (PlanEstimate, bool) {
	for _, c := range cands {
		if c.Kind == k {
			return c, true
		}
	}
	return PlanEstimate{}, false
}

// pickPlan turns the candidate list into a decision: forced plans are
// validated against the shape, and auto selection takes the cheapest
// candidate (subject to the caching pinning rule).
func (e *Engine) pickPlan(lp LogicalPlan, cm costModel, cands []PlanEstimate) (PlanDecision, error) {
	d := PlanDecision{WarmLeft: cm.warmLeft, WarmRight: cm.warmRight, Candidates: cands}
	if f := lp.Opts.Force; f != "" && f != PlanAuto {
		est, ok := findCandidate(cands, f)
		if !ok {
			return d, fmt.Errorf("%w: %s cannot answer a %s query", ErrPlanNotApplicable, f, lp.Shape)
		}
		d.Kind, d.Est, d.Forced, d.Reason = f, est, true, "forced"
		return d, nil
	}
	if len(cands) == 0 {
		return d, fmt.Errorf("%w: no plan for shape %s", ErrPlanNotApplicable, lp.Shape)
	}

	chosen := cands[0]
	d.Reason = "cheapest"
	if !e.caching {
		if c, ok := findCandidate(cands, legacyKind(lp.Shape)); ok {
			chosen, d.Reason = c, "caching disabled"
		}
	} else if lp.Shape == ShapeSubset && chosen.Kind == PlanSubsetChain {
		// Cache-value rule (mirrors the batch scheduler): when subset
		// propagation costs at least half of full materialization,
		// materialize instead — nearly the same work now, and the
		// cached chains serve every later query on the path.
		fullProp := cm.coldLeft + cm.coldRight
		subProp := rowFraction(len(lp.Srcs), cm.left.Rows)*cm.left.Flops +
			rowFraction(len(lp.Dsts), cm.right.Rows)*cm.right.Flops
		if 2*subProp >= fullProp {
			if ap, ok := findCandidate(cands, PlanAllPairs); ok {
				chosen = ap
				d.Reason = "subset large enough to amortize materialization"
			}
		}
	}
	d.Kind, d.Est = chosen.Kind, chosen
	return d, nil
}

// optimize runs the cost model over a compiled query, records the selection
// in the plan counters, and emits the plan_select trace span carrying the
// chosen kind and its estimated flops.
func (e *Engine) optimize(ctx context.Context, lp *LogicalPlan) (PlanDecision, error) {
	cm, err := e.costModelFor(lp.h)
	if err != nil {
		return PlanDecision{}, err
	}
	lp.h.mo = cm.mo
	d, err := e.pickPlan(*lp, cm, planCandidates(cm, *lp))
	if err != nil {
		return d, err
	}
	e.notePlan(d.Kind)
	if sp := obs.FromContext(ctx).Start("plan_select"); sp != nil {
		sp.SetAttr("path", lp.Path.String()).
			SetAttr("shape", string(lp.Shape)).
			SetAttr("kind", string(d.Kind)).
			SetAttr("est_flops", strconv.FormatFloat(d.Est.Flops, 'f', 0, 64)).
			SetAttr("forced", strconv.FormatBool(d.Forced)).
			SetAttr("warm_left", strconv.FormatBool(d.WarmLeft)).
			SetAttr("warm_right", strconv.FormatBool(d.WarmRight)).
			SetAttr("reason", d.Reason).
			End()
	}
	return d, nil
}

// notePlan bumps the per-kind selection counters (registry and engine).
func (e *Engine) notePlan(k PlanKind) {
	metPlanSelected.With(string(k)).Inc()
	e.planMu.Lock()
	e.planCounts[k]++
	e.planMu.Unlock()
}

// PlanSelections returns how many times the optimizer has chosen each plan
// kind on this engine, keyed by kind name — surfaced in /v1/stats.
func (e *Engine) PlanSelections() map[string]uint64 {
	e.planMu.Lock()
	defer e.planMu.Unlock()
	out := make(map[string]uint64, len(e.planCounts))
	for k, n := range e.planCounts {
		out[string(k)] = n
	}
	return out
}

// ---------------------------------------------------------------------------
// Executors: one per result shape, each dispatching on the chosen physical
// plan. Exact plans differ only in where the two reaching distributions
// come from (propagated vector, materialized row, or subset row), so they
// share the combine/normalize tails and stay bit-identical.

func (e *Engine) execPair(ctx context.Context, lp LogicalPlan, d PlanDecision) (float64, error) {
	left, err := e.leftVector(ctx, lp, d.Kind)
	if err != nil {
		return 0, err
	}
	var right *sparse.Vector // propagated for pair-vectors, else a materialized row
	if d.Kind == PlanPairVectors {
		right, err = e.opVectorChain(ctx, lp.Dst, lp.h.right())
	} else {
		var pmr *sparse.Matrix
		if pmr, err = e.opMatrixChain(ctx, lp.h.right()); err == nil {
			right = pmr.Row(lp.Dst)
		}
	}
	if err != nil {
		return 0, err
	}
	sp := obs.FromContext(ctx).Start("normalize")
	defer sp.End()
	return pairScore(lp.h.mo, left, right, e.raw(lp.Opts.Raw)), nil
}

// pairScore combines a pair's two half distributions: their dot product at
// the meeting type (Definition 3, raw) or its cosine (Definition 10). Shared
// by the solo plans and the batch scheduler so both produce bit-identical
// scores.
func pairScore(mo *middle, left leftHalf, right *sparse.Vector, raw bool) float64 {
	met, ln := mo.meetLeft(left, 0)
	dot := met.Dot(right)
	if raw {
		return dot
	}
	rn := right.WeightedNorm(mo.weights('R').d)
	if ln == 0 || rn == 0 {
		return 0
	}
	return dot / (ln * rn)
}

// leftVector resolves a query's left reaching distribution: propagated for
// pair-vectors and single-vs-matrix, a materialized row for all-pairs.
func (e *Engine) leftVector(ctx context.Context, lp LogicalPlan, kind PlanKind) (leftHalf, error) {
	switch kind {
	case PlanPairVectors, PlanSingleVsMatrix:
		l, err := e.opVectorChain(ctx, lp.Src, lp.h.left())
		return leftHalf{l: l}, err
	case PlanAllPairs:
		pml, err := e.opMatrixChain(ctx, lp.h.left())
		if err != nil {
			return leftHalf{}, err
		}
		l := leftHalf{l: pml.Row(lp.Src)}
		if x, ok := e.cacheGet(e.metKey(lp.h)); ok {
			l.met = x.Row(lp.Src)
		}
		return l, nil
	}
	return leftHalf{}, fmt.Errorf("%w: %s cannot answer a %s query", ErrPlanNotApplicable, kind, lp.Shape)
}

func (e *Engine) execSingleSource(ctx context.Context, lp LogicalPlan, d PlanDecision) ([]float64, error) {
	tr := obs.FromContext(ctx)
	mo := lp.h.mo
	left, err := e.leftVector(ctx, lp, d.Kind)
	if err != nil {
		return nil, err
	}
	pmr, err := e.opMatrixChain(ctx, lp.h.right())
	if err != nil {
		return nil, err
	}
	raw := e.raw(lp.Opts.Raw)
	sp := tr.Start("normalize")
	var rns rowNorms
	if !raw {
		rns = e.chainRowNorms(e.chainCacheKey(lp.h.right()), pmr, mo.weights('R'))
	}
	sp.End()
	sp = tr.Start("combine")
	scores := combineSingleSource(mo, left, pmr, rns, raw)
	if sp != nil {
		sp.SetAttr("targets", strconv.Itoa(len(scores))).End()
	}
	return scores, nil
}

func (e *Engine) execTopK(ctx context.Context, lp LogicalPlan, d PlanDecision) ([]Scored, error) {
	left, err := e.leftVector(ctx, lp, d.Kind)
	if err != nil {
		return nil, err
	}
	return e.topKFrom(ctx, lp.h, left, lp.K, lp.Eps, e.raw(lp.Opts.Raw))
}

func (e *Engine) execAllPairs(ctx context.Context, lp LogicalPlan, d PlanDecision) (*sparse.Matrix, error) {
	if d.Kind != PlanAllPairs {
		return nil, fmt.Errorf("%w: %s cannot answer an all-pairs query", ErrPlanNotApplicable, d.Kind)
	}
	tr := obs.FromContext(ctx)
	h, mo := lp.h, lp.h.mo
	pml, err := e.opMatrixChain(ctx, h.left())
	if err != nil {
		return nil, err
	}
	pmr, err := e.opMatrixChain(ctx, h.right())
	if err != nil {
		return nil, err
	}
	sp := tr.Start("combine")
	rel, err := mo.combine(ctx, pml, pmr)
	if err != nil {
		sp.End()
		return nil, err
	}
	if sp != nil {
		spanMatrixAttrs(sp, 'B', "combine", rel).End()
	}
	if e.raw(lp.Opts.Raw) {
		return rel, nil
	}
	sp = tr.Start("normalize")
	defer sp.End()
	ln := e.chainRowNorms(e.chainCacheKey(h.left()), pml, mo.weights('L'))
	rn := e.chainRowNorms(e.chainCacheKey(h.right()), pmr, mo.weights('R'))
	return scaleByInvNorms(rel, ln, rn), nil
}

// combine is the relevance matrix of two half-chain matrices (or row subsets):
// PM_L·PM_Rᵀ, or (PM_L·M)·PM_Rᵀ on an odd path, row for row meetLeft's SpMV.
func (mo *middle) combine(ctx context.Context, pml, pmr *sparse.Matrix) (*sparse.Matrix, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if mo != nil {
		var err error
		if pml, err = pml.MulCtx(ctx, mo.m); err != nil {
			return nil, err
		}
	}
	return pml.MulCtx(ctx, pmr.Transpose())
}

// scaleByInvNorms applies Definition 10 to a relevance matrix: row i over
// ln[i], column j over rn[j], zero-norm rows and columns scored 0.
func scaleByInvNorms(rel *sparse.Matrix, ln, rn rowNorms) *sparse.Matrix {
	li := make([]float64, rel.Rows())
	for i := range li {
		li[i] = invNorm(ln.at(i))
	}
	ri := make([]float64, rel.Cols())
	for i := range ri {
		ri[i] = invNorm(rn.at(i))
	}
	return rel.ScaleRows(li).ScaleCols(ri)
}

func invNorm(x float64) float64 {
	if x == 0 {
		return 0
	}
	return 1 / x
}

func (e *Engine) execSubset(ctx context.Context, lp LogicalPlan, d PlanDecision) (*sparse.Matrix, error) {
	h, mo := lp.h, lp.h.mo
	var subL, subR *sparse.Matrix
	var err error
	switch d.Kind {
	case PlanAllPairs:
		pml, err := e.opMatrixChain(ctx, h.left())
		if err != nil {
			return nil, err
		}
		pmr, err := e.opMatrixChain(ctx, h.right())
		if err != nil {
			return nil, err
		}
		subL, subR = pml.SelectRows(lp.Srcs), pmr.SelectRows(lp.Dsts)
	case PlanSubsetChain:
		if subL, err = e.opSubsetChain(ctx, lp.Srcs, h.left()); err != nil {
			return nil, err
		}
		if subR, err = e.opSubsetChain(ctx, lp.Dsts, h.right()); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: %s cannot answer a subset query", ErrPlanNotApplicable, d.Kind)
	}
	rel, err := mo.combine(ctx, subL, subR)
	if err != nil || e.raw(lp.Opts.Raw) {
		return rel, err
	}
	return scaleByInvNorms(rel, pagedNorms(subL.WeightedRowNorms(mo.weights('L').d)), pagedNorms(subR.WeightedRowNorms(mo.weights('R').d))), nil
}

// planResult carries whichever result form the query's shape produces.
type planResult struct {
	score  float64   // ShapePair
	scores []float64 // ShapeSingleSource
	top    []Scored  // ShapeTopK
}

// exec dispatches a decided pair, single-source or top-k plan to its
// executor and records the query metric under its shape.
func (e *Engine) exec(ctx context.Context, lp LogicalPlan, d PlanDecision) (r planResult, err error) {
	kind := string(lp.Shape)
	start := time.Now()
	defer func() { observeQuery(kind, time.Since(start).Seconds()) }()
	switch lp.Shape {
	case ShapePair:
		r.score, err = e.execPair(ctx, lp, d)
	case ShapeSingleSource:
		r.scores, err = e.execSingleSource(ctx, lp, d)
	case ShapeTopK:
		r.top, err = e.execTopK(ctx, lp, d)
	}
	return r, err
}

// ---------------------------------------------------------------------------
// Plan-aware public entry points. The legacy methods (PairByIndex,
// SingleSourceByIndex, TopKSearch, AllPairs, PairsSubset) are thin wrappers
// over these with zero PlanOptions.

// PairWithPlan computes HeteSim(src, dst | p) through the optimizer,
// returning the score and the plan decision that produced it.
func (e *Engine) PairWithPlan(ctx context.Context, p *metapath.Path, src, dst int, o PlanOptions) (float64, PlanDecision, error) {
	if err := e.checkIndex(p.Source(), src); err != nil {
		return 0, PlanDecision{}, err
	}
	if err := e.checkIndex(p.Target(), dst); err != nil {
		return 0, PlanDecision{}, err
	}
	lp := LogicalPlan{Path: p, Shape: ShapePair, Src: src, Dst: dst, Opts: o, h: splitPath(p)}
	d, err := e.optimize(ctx, &lp)
	if err != nil {
		return 0, d, err
	}
	r, err := e.exec(ctx, lp, d)
	return r.score, d, err
}

// singleSourceWithPlan computes the scores of one source against every
// target through the optimizer.
func (e *Engine) singleSourceWithPlan(ctx context.Context, p *metapath.Path, src int, o PlanOptions) ([]float64, PlanDecision, error) {
	if err := e.checkIndex(p.Source(), src); err != nil {
		return nil, PlanDecision{}, err
	}
	lp := LogicalPlan{Path: p, Shape: ShapeSingleSource, Src: src, Opts: o, h: splitPath(p)}
	d, err := e.optimize(ctx, &lp)
	if err != nil {
		return nil, d, err
	}
	r, err := e.exec(ctx, lp, d)
	return r.scores, d, err
}

// TopKSearchWithPlan runs a top-k search through the optimizer.
func (e *Engine) TopKSearchWithPlan(ctx context.Context, p *metapath.Path, src, k int, eps float64, o PlanOptions) ([]Scored, PlanDecision, error) {
	if k <= 0 {
		return nil, PlanDecision{}, fmt.Errorf("core: TopKSearch k=%d must be positive", k)
	}
	if eps < 0 || eps >= 1 {
		return nil, PlanDecision{}, fmt.Errorf("core: TopKSearch eps=%v outside [0,1)", eps)
	}
	if err := e.checkIndex(p.Source(), src); err != nil {
		return nil, PlanDecision{}, err
	}
	lp := LogicalPlan{Path: p, Shape: ShapeTopK, Src: src, K: k, Eps: eps, Opts: o, h: splitPath(p)}
	d, err := e.optimize(ctx, &lp)
	if err != nil {
		return nil, d, err
	}
	r, err := e.exec(ctx, lp, d)
	return r.top, d, err
}

// AllPairsWithPlan computes the full relevance matrix through the
// optimizer (which has exactly one exact plan for this shape; forcing any
// other fails with ErrPlanNotApplicable).
func (e *Engine) AllPairsWithPlan(ctx context.Context, p *metapath.Path, o PlanOptions) (*sparse.Matrix, PlanDecision, error) {
	lp := LogicalPlan{Path: p, Shape: ShapeAllPairs, Opts: o, h: splitPath(p)}
	d, err := e.optimize(ctx, &lp)
	if err != nil {
		return nil, d, err
	}
	start := time.Now()
	defer func() { observeQuery("all_pairs", time.Since(start).Seconds()) }()
	m, err := e.execAllPairs(ctx, lp, d)
	return m, d, err
}

// PairsSubsetWithPlan computes the relevance matrix restricted to the given
// source and target subsets through the optimizer, choosing between
// materializing the halves and the uncached selector-subset propagation.
func (e *Engine) PairsSubsetWithPlan(ctx context.Context, p *metapath.Path, srcs, dsts []int, o PlanOptions) (*sparse.Matrix, PlanDecision, error) {
	for _, i := range srcs {
		if err := e.checkIndex(p.Source(), i); err != nil {
			return nil, PlanDecision{}, err
		}
	}
	for _, j := range dsts {
		if err := e.checkIndex(p.Target(), j); err != nil {
			return nil, PlanDecision{}, err
		}
	}
	lp := LogicalPlan{Path: p, Shape: ShapeSubset, Srcs: srcs, Dsts: dsts, Opts: o, h: splitPath(p)}
	d, err := e.optimize(ctx, &lp)
	if err != nil {
		return nil, d, err
	}
	m, err := e.execSubset(ctx, lp, d)
	return m, d, err
}
