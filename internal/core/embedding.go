package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"hetesim/internal/embed"
	"hetesim/internal/obs"
	"hetesim/internal/rank"
	"hetesim/internal/sparse"
)

// Low-rank approximate top-k (the topk-approx physical plan). The right
// half-chain matrix PM_R is factorized once into rank-r target embeddings
// (see internal/embed); a query projects its left reaching distribution
// into the same subspace, over-fetches c·k candidates by embedding inner
// product, and re-ranks them through the exact operators — so returned
// scores are bit-identical to the exact plan's, only recall can degrade.
// The rank and over-fetch factor derive from the caller's error budget.

// defaultErrorBudget is the error budget assumed when PlanOptions leaves
// it zero: rank 20, over-fetch factor 4.
const defaultErrorBudget = 0.05

// embedIters is the orthogonal-iteration count for engine-built
// embeddings; 0 selects embed.DefaultIters.
const embedIters = 0

func resolveErrorBudget(b float64) float64 {
	if b <= 0 {
		return defaultErrorBudget
	}
	return b
}

// embedRankFor maps an error budget onto the factorization rank: a tighter
// budget buys more rank, clamped to [min(4,dim), dim]. An explicit
// EmbedRank override wins (still clamped to dim).
func embedRankFor(o PlanOptions, dim int) int {
	if dim < 1 {
		dim = 1
	}
	rank := o.EmbedRank
	if rank <= 0 {
		rank = int(math.Ceil(1 / resolveErrorBudget(o.ErrorBudget)))
		if rank < 4 {
			rank = 4
		}
	}
	if rank > dim {
		rank = dim
	}
	if rank < 1 {
		rank = 1
	}
	return rank
}

// embedOverFetch maps an error budget onto the candidate over-fetch
// factor c (the generator scores all targets but keeps only c·k for the
// exact re-rank): a tighter budget buys a deeper candidate pool.
func embedOverFetch(o PlanOptions) int {
	f := int(math.Ceil(0.2 / resolveErrorBudget(o.ErrorBudget)))
	if f < 2 {
		f = 2
	}
	return f
}

// embedBuildFlops estimates the one-time cost of factorizing a chain at
// the given rank: the Gram orthogonal iteration (two SpMVs per column per
// iteration) plus the target-row projection.
func embedBuildFlops(est ChainEstimate, rank int) float64 {
	iters := float64(embed.DefaultIters)
	return (2*iters + 1) * est.NNZ * float64(rank)
}

// embedCacheKey identifies one embedding: the factorization rank plus the
// chain key of the matrix it factorizes.
func embedCacheKey(rank int, chainKey string) string {
	return "E:" + strconv.Itoa(rank) + ":" + chainKey
}

// parseEmbedKey splits an embedding cache key into its rank and base
// chain key.
func parseEmbedKey(key string) (rank int, chainKey string, err error) {
	body, ok := strings.CutPrefix(key, "E:")
	if !ok {
		return 0, "", fmt.Errorf("core: cache key %q is not an embedding key", key)
	}
	rs, ck, ok := strings.Cut(body, ":")
	if !ok {
		return 0, "", fmt.Errorf("core: embedding key %q has no chain part", key)
	}
	rank, err = strconv.Atoi(rs)
	if err != nil || rank < 1 {
		return 0, "", fmt.Errorf("core: embedding key %q has bad rank %q", key, rs)
	}
	return rank, ck, nil
}

// embedGet returns a cached embedding.
func (e *Engine) embedGet(key string) (*embed.Embedding, bool) {
	e.embedMu.Lock()
	defer e.embedMu.Unlock()
	em, ok := e.embeds[key]
	return em, ok
}

func (e *Engine) embedPut(key string, em *embed.Embedding) {
	e.embedMu.Lock()
	e.embeds[key] = em
	e.embedMu.Unlock()
}

// embedWarm reports whether an embedding is already built. A non-caching
// engine never retains embeddings, so it always reports cold.
func (e *Engine) embedWarm(key string) bool {
	if !e.caching {
		return false
	}
	_, ok := e.embedGet(key)
	return ok
}

// EmbeddingCount reports how many embeddings the engine holds.
func (e *Engine) EmbeddingCount() int {
	e.embedMu.Lock()
	defer e.embedMu.Unlock()
	return len(e.embeds)
}

// ExportEmbeddings returns the engine's built embeddings keyed by
// embedding cache key, for snapshot persistence. Embeddings are immutable
// once built, so the export is cheap and safe under concurrent queries.
func (e *Engine) ExportEmbeddings() map[string]*embed.Embedding {
	e.embedMu.Lock()
	defer e.embedMu.Unlock()
	out := make(map[string]*embed.Embedding, len(e.embeds))
	for k, em := range e.embeds {
		out[k] = em
	}
	return out
}

// ImportEmbeddings installs previously exported embeddings, returning how
// many were admitted. Keys must come from an engine over the same graph
// with the same pruning epsilon (the snapshot layer enforces this with the
// graph fingerprint). Entries whose key does not parse or whose shape does
// not match the key's rank are skipped — safe, they rebuild lazily. A
// non-caching engine ignores the import entirely.
func (e *Engine) ImportEmbeddings(embeds map[string]*embed.Embedding) int {
	if !e.caching {
		return 0
	}
	n := 0
	for k, em := range embeds {
		if em == nil || em.Basis == nil {
			continue
		}
		rank, _, err := parseEmbedKey(k)
		if err != nil || em.Rank != rank || len(em.Vecs) != em.Rows*em.Rank {
			continue
		}
		if br, bc := em.Basis.Dims(); br != em.Dim || bc != em.Rank {
			continue
		}
		e.embedPut(k, em)
		n++
	}
	return n
}

// embedSeed derives a deterministic factorization seed from the embedding
// key, so the same (path, rank) always builds the same embedding on any
// replica — snapshot-shipped and locally built embeddings agree.
func embedSeed(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(h.Sum64() & math.MaxInt64)
}

// opEmbedding returns the rank-r embedding of a path's right half-chain,
// building (and caching) it on first use. Builds poll ctx between
// eigensolver iterations.
func (e *Engine) opEmbedding(ctx context.Context, h halves, rank int) (*embed.Embedding, error) {
	key := embedCacheKey(rank, e.chainCacheKey(h.right()))
	if e.caching {
		if em, ok := e.embedGet(key); ok {
			return em, nil
		}
	}
	pmr, err := e.opMatrixChain(ctx, h.right())
	if err != nil {
		return nil, err
	}
	sp := obs.FromContext(ctx).Start("embed_build")
	em, err := embed.Build(ctx, pmr, rank, embedSeed(key), embedIters)
	if sp != nil {
		sp.SetAttr("key", key).End()
	}
	if err != nil {
		return nil, err
	}
	metEmbedBuilds.Inc()
	if e.caching {
		e.embedPut(key, em)
	}
	return em, nil
}

// pruneLeft applies the Section 4.6 search pruning to a left middle
// distribution: entries below eps times the largest entry are dropped.
// Shared by the exact scan and the approximate re-rank so both score the
// identical pruned distribution.
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

// topKApprox executes the topk-approx plan: project the pruned left
// distribution into the embedding space, over-fetch candidates by
// embedding inner product, then re-rank them through the exact pair
// operators. The re-rank dots the same pruned left vector against the
// same materialized chain rows in the same ascending-index order as
// topKFrom's accumulation, so every returned score is bit-identical to
// the exact plan's score for that target.
func (e *Engine) topKApprox(ctx context.Context, lp LogicalPlan) ([]Scored, error) {
	h := lp.h
	left, err := e.opVectorChain(ctx, lp.Src, h.left())
	if err != nil {
		return nil, err
	}
	left = pruneLeft(left, lp.Eps)

	pmr, err := e.opMatrixChain(ctx, h.right())
	if err != nil {
		return nil, err
	}
	em, err := e.opEmbedding(ctx, h, embedRankFor(lp.Opts, pmr.Cols()))
	if err != nil {
		return nil, err
	}
	var rns []float64
	var ln float64
	if e.normalized {
		ln = left.Norm()
		rns = e.chainRowNorms(e.chainCacheKey(h.right()), pmr)
	}
	q, err := em.Project(left)
	if err != nil {
		return nil, err
	}
	fetch := embedOverFetch(lp.Opts) * lp.K
	sp := obs.FromContext(ctx).Start("embed_candidates")
	cands := em.Candidates(q, fetch, rns)
	if sp != nil {
		sp.SetAttr("fetched", strconv.Itoa(len(cands))).End()
	}

	sp = obs.FromContext(ctx).Start("rerank")
	sel := rank.NewSelector(lp.K)
	for _, b := range cands {
		s := left.Dot(pmr.Row(b))
		if e.normalized {
			if ln == 0 || rns[b] == 0 {
				continue
			}
			s /= ln * rns[b]
		}
		if s != 0 {
			sel.Push(b, s)
		}
	}
	out := sel.Ranked()
	sp.End()
	return out, nil
}

// rewarmEmbeddings carries src's embeddings whose base chain survived a
// rewarm unchanged (same key carried with identical dimensions); every
// other embedding is dropped and rebuilds lazily on next use. Called at
// the end of RewarmFrom with the set of carried chain keys.
func (e *Engine) rewarmEmbeddings(src *Engine, carried map[string]bool) (kept, dropped int) {
	for key, em := range src.ExportEmbeddings() {
		_, ck, err := parseEmbedKey(key)
		if err != nil || !carried[ck] {
			dropped++
			continue
		}
		nm, ok := e.cacheGet(ck)
		if !ok {
			dropped++
			continue
		}
		if r, c := nm.Dims(); r != em.Rows || c != em.Dim {
			dropped++
			continue
		}
		e.embedPut(key, em)
		kept++
	}
	return kept, dropped
}
