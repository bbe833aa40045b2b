package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/sparse"
)

// Incremental chain-matrix maintenance. When a batch of edge/node deltas
// turns graph G into G', Property 2 (U_AB = V'_BA) localizes the damage:
// an edge delta on relation R perturbs only row src of R's forward
// transition matrix and row dst of its inverse. A cached chain matrix row s
// therefore changes only if a walker starting at s could, in the OLD graph,
// reach a perturbed transition row at the step that uses it — every other
// row walks through bit-identical transition rows and lands on bit-identical
// values. RewarmFrom exploits this: it carries every cached chain of the
// old engine into a new engine over G', recomputing just the dirty rows
// through opSubsetChain (whose rows are bit-identical to materialized rows)
// and splicing them in, so the rewarmed cache is bit-for-bit the cache a
// cold engine over G' would build — at a fraction of the multiplication
// work when the delta touches few rows.

// RewarmStats summarizes what RewarmFrom did, for logging and tests.
type RewarmStats struct {
	Carried    int `json:"carried"`     // chains reused unchanged (dimension-padded at most)
	RowPatched int `json:"row_patched"` // chains maintained by row-masked recompute
	Rebuilt    int `json:"rebuilt"`     // chains fully rematerialized
	Dropped    int `json:"dropped"`     // chains abandoned (cold recompute on next use)
	Rows       int `json:"rows"`        // rows recomputed across all row-patched chains
}

func (s RewarmStats) String() string {
	return fmt.Sprintf("carried=%d row_patched=%d (rows=%d) rebuilt=%d dropped=%d",
		s.Carried, s.RowPatched, s.Rows, s.Rebuilt, s.Dropped)
}

// RewarmFrom fills this engine's chain cache from src — an engine over the
// pre-delta graph — given the dirty summary of the delta that produced this
// engine's graph. The receiver is assumed unpublished (not yet serving), src
// may be serving concurrently. A chain depends on the graph alone, so the two
// engines' other options never make their chains differ.
//
// Per cached chain, only the dirty rows are recomputed and spliced in; a
// chain whose dirty rows cannot be told (a prefix is missing) is rebuilt. An
// odd path's halves are ordinary step chains, and their norms come along
// (carryNorms). Failure modes degrade to dropping a chain — always safe, the
// next query rebuilds it cold.
func (e *Engine) RewarmFrom(ctx context.Context, src *Engine, d *hin.Dirty) (RewarmStats, error) {
	var st RewarmStats
	if src == nil || d == nil {
		return st, fmt.Errorf("core: RewarmFrom requires a source engine and a delta summary")
	}
	if !e.caching {
		return st, nil
	}

	chains := src.ExportChains()
	keys := make([]string, 0, len(chains))
	for k := range chains {
		keys = append(keys, k)
	}
	// Shortest chains first so prefixes are warm before the longer chains
	// that could rebuild through them; entries derived from a chain ("T:",
	// "X:") follow their base via the second pass below.
	sort.Slice(keys, func(i, j int) bool { return len(keys[i]) < len(keys[j]) })

	for _, key := range keys {
		if !strings.HasPrefix(key, "C:") {
			continue
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
		c, _, err := parseChainKey(e.g.Schema(), key)
		if err != nil {
			st.Dropped++
			continue
		}
		rows, full := e.chainDirtyRows(src, c, d)
		if full {
			if _, err := e.opMatrixChain(ctx, c); err != nil {
				return st, err
			}
			st.Rebuilt++
			continue
		}
		nRows, nCols := e.chainDims(c)
		nm := chains[key].Resize(nRows, nCols)
		if len(rows) == 0 {
			e.cachePut(key, nm)
			e.carryNorms(src, key, nm, nil, nil)
			st.Carried++
			continue
		}
		sub, err := e.opSubsetChain(ctx, rows, c)
		if err != nil {
			return st, err
		}
		nm = nm.ReplaceRows(rows, sub)
		e.cachePut(key, nm)
		e.carryNorms(src, key, nm, rows, sub.RowNorms())
		st.RowPatched++
		st.Rows += len(rows)
	}

	// Entries derived from a chain ("T:" transposes, "X:" metKey products) are
	// derived again from the rewarmed chain, bit-identical to the cold path's.
	// A chain that went missing (evicted upstream, dropped here) drops them;
	// a "T:" without room (transposeFits) is dropped before it is built.
	for _, key := range keys {
		if strings.HasPrefix(key, "C:") {
			continue
		}
		if base, ok := strings.CutPrefix(key, "T:"); ok && e.warmScan(base) != scanTransposeOnce {
			st.Dropped++
			continue
		}
		if nm, err := e.derive(ctx, key); err == nil && e.cachePut(key, nm) {
			st.Carried++
		} else {
			st.Dropped++
		}
	}
	return st, nil
}

// derive builds a "T:" or "X:" entry from its chain, cached on e.
func (e *Engine) derive(ctx context.Context, key string) (*sparse.Matrix, error) {
	kind, rest, _ := strings.Cut(key, ":")
	mk, base, _ := strings.Cut(rest, ">")
	if kind == "T" {
		base = rest
	}
	pm, ok := e.cacheGet(base)
	if !ok {
		return nil, fmt.Errorf("core: chain %q of %q is gone", base, key)
	}
	if kind == "T" {
		return pm.Transpose(), nil
	}
	step, err := parseStepKey(e.g.Schema(), mk)
	if err != nil {
		return nil, err
	}
	mo, err := e.middleOf(&step)
	if err != nil {
		return nil, err
	}
	return pm.MulCtx(ctx, mo.m)
}

// chainDims returns the shape of a (non-empty) chain's materialized matrix
// on the engine's graph: start-type count × end-type count.
func (e *Engine) chainDims(c chain) (int, int) {
	return e.g.NodeCount(c.start), e.g.NodeCount(c.steps[len(c.steps)-1].To())
}

// chainDirtyRows computes which rows of a chain's matrix the delta
// perturbed, in the new graph's indexing. Row s is dirty iff some step i
// has a perturbed transition row r (d.Rows for forward steps, d.Cols for
// inverse — Property 2) that s's step-(i-1) reaching distribution touches.
// The old engine's cached prefix matrices answer exactly that reachability
// question: a row not yet dirty at step i has an unchanged prefix
// distribution, so consulting the OLD prefix is not an approximation. A
// missing prefix forces a full rebuild (second return true).
func (e *Engine) chainDirtyRows(src *Engine, c chain, d *hin.Dirty) ([]int, bool) {
	dirty := make(map[int]bool)
	for i, step := range c.steps {
		changed := d.Rows[step.Relation.Name]
		if step.Inverse {
			changed = d.Cols[step.Relation.Name]
		}
		if len(changed) == 0 {
			continue
		}
		if i == 0 {
			// The first step's transition rows ARE the chain rows.
			for _, r := range changed {
				dirty[r] = true
			}
			continue
		}
		prefix, ok := src.cacheGet(stepsKey(c.steps[:i]))
		if !ok {
			return nil, true
		}
		changedSet := make(map[int]bool, len(changed))
		for _, r := range changed {
			changedSet[r] = true
		}
		for _, t := range prefix.Triplets() {
			if changedSet[t.Col] {
				dirty[t.Row] = true
			}
		}
	}
	out := make([]int, 0, len(dirty))
	for r := range dirty {
		out = append(out, r)
	}
	sort.Ints(out)
	return out, false
}

// carryNorms carries the cached row norms of a carried or row-patched chain
// nm. Plain norms are patched: untouched rows keep their old (bit-identical)
// norms, appended rows are zero, and recomputed rows take the norms of their
// recomputed values. Norms weighted by a middle relation are recomputed whole
// under that relation rebuilt from the new graph — a write to it moves them
// wherever a row reaches it — so the first odd-path read of the new
// generation finds them as warm as src left them. Absent source norms stay
// absent and rebuild lazily on first use.
func (e *Engine) carryNorms(src *Engine, key string, nm *sparse.Matrix, rows []int, rowNorms []float64) {
	src.mu.Lock()
	old, plain := src.norms[key][""]
	var weighted []string
	for wk := range src.norms[key] {
		if wk != "" {
			weighted = append(weighted, wk)
		}
	}
	src.mu.Unlock()
	e.mu.Lock()
	_, cached := e.reach[key]
	if cached && plain {
		n := make([]float64, nm.Rows())
		copy(n, old)
		for i, r := range rows {
			n[r] = rowNorms[i]
		}
		e.norms[key] = map[string][]float64{"": n}
	}
	e.mu.Unlock()
	for _, wk := range weighted {
		if step, err := parseStepKey(e.g.Schema(), wk[1:]); err == nil && cached {
			if mo, err := e.middleOf(&step); err == nil {
				e.chainRowNorms(key, nm, mo.weights(wk[0]))
			}
		}
	}
}

// parseChainKey reconstructs a chain from its cache key — "C:" plus
// "|"-joined step keys (relation name, "~" marks inverse traversal),
// optionally wrapped in "T:" for transposed entries. Keys are
// self-describing against the schema, so chains imported from a snapshot
// rewarm exactly like locally built ones.
func parseChainKey(s *hin.Schema, key string) (chain, bool, error) {
	rest, transposed := strings.CutPrefix(key, "T:")
	body, ok := strings.CutPrefix(rest, "C:")
	if !ok {
		return chain{}, false, fmt.Errorf("core: cache key %q is not a chain key", key)
	}
	c := chain{side: 'P'}
	for _, part := range strings.Split(body, "|") {
		step, err := parseStepKey(s, part)
		if err != nil {
			return chain{}, false, err
		}
		if n := len(c.steps); n > 0 && c.steps[n-1].To() != step.From() {
			return chain{}, false, fmt.Errorf("core: chain key %q does not chain at %q", key, part)
		}
		c.steps = append(c.steps, step)
	}
	c.start = c.steps[0].From()
	return c, transposed, nil
}

func parseStepKey(s *hin.Schema, k string) (metapath.Step, error) {
	name, inverse := strings.CutSuffix(k, "~")
	rel, err := s.RelationByName(name)
	if err != nil {
		return metapath.Step{}, err
	}
	return metapath.Step{Relation: rel, Inverse: inverse}, nil
}
