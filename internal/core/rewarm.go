package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hetesim/internal/hin"
	"hetesim/internal/metapath"
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
// engine's graph. Both engines must share options; the receiver is assumed
// unpublished (not yet serving), src may be serving concurrently.
//
// Per cached chain: if a relation whose edges changed appears as the chain's
// middle half-step, the chain is rebuilt (middle edge-transition columns are
// indexed by relation instance, so any instance change shifts them
// globally); if the engine prunes, row-masking is unsound (materialized
// chains prune per step, subset recompute does not) and touched chains are
// rebuilt; otherwise only the dirty rows are recomputed and spliced in. Row
// norms are patched the same way. Failure modes degrade to dropping a chain
// — always safe, the next query rebuilds it cold.
func (e *Engine) RewarmFrom(ctx context.Context, src *Engine, d *hin.Dirty) (RewarmStats, error) {
	var st RewarmStats
	if src == nil || d == nil {
		return st, fmt.Errorf("core: RewarmFrom requires a source engine and a delta summary")
	}
	if !e.caching {
		return st, nil
	}
	if e.pruneEps != src.pruneEps {
		return st, fmt.Errorf("core: RewarmFrom across pruning eps %g -> %g", src.pruneEps, e.pruneEps)
	}

	chains := src.ExportChains()
	keys := make([]string, 0, len(chains))
	for k := range chains {
		keys = append(keys, k)
	}
	// Shortest chains first so prefixes are warm before the longer chains
	// that could rebuild through them; "T:" keys sort after their base via
	// the second pass below.
	sort.Slice(keys, func(i, j int) bool { return len(keys[i]) < len(keys[j]) })

	for _, key := range keys {
		if strings.HasPrefix(key, "T:") {
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
		if c.middle != nil && d.Touches(c.middle.Relation.Name) {
			if _, err := e.opMatrixChain(ctx, c); err != nil {
				return st, err
			}
			st.Rebuilt++
			continue
		}
		rows, full := e.chainDirtyRows(src, c, d)
		if full || (e.pruneEps > 0 && len(rows) > 0) {
			if _, err := e.opMatrixChain(ctx, c); err != nil {
				return st, err
			}
			st.Rebuilt++
			continue
		}
		nRows, nCols, err := e.chainDims(c)
		if err != nil {
			st.Dropped++
			continue
		}
		nm := chains[key].Resize(nRows, nCols)
		if len(rows) == 0 {
			e.cachePut(key, nm)
			e.carryNorms(src, key, nRows, nil, nil)
			st.Carried++
			continue
		}
		sub, err := e.opSubsetChain(ctx, rows, c)
		if err != nil {
			return st, err
		}
		nm = nm.ReplaceRows(rows, sub)
		e.cachePut(key, nm)
		e.carryNorms(src, key, nRows, rows, sub.RowNorms())
		st.RowPatched++
		st.Rows += len(rows)
	}

	// Transposed chains ("T:"+key): the cold path caches the transpose of
	// the materialized base chain, so transposing the rewarmed base is
	// bit-identical. A base that went missing (evicted upstream, dropped
	// here) drops the transpose too.
	for _, key := range keys {
		base, ok := strings.CutPrefix(key, "T:")
		if !ok {
			continue
		}
		if nm, ok := e.cacheGet(base); ok {
			e.cachePut(key, nm.Transpose())
			st.Carried++
		} else {
			st.Dropped++
		}
	}
	return st, nil
}

// chainDims returns the shape of a chain's materialized matrix on the
// engine's graph: start-type count × end-type count, or × relation-instance
// count for a middle half-chain.
func (e *Engine) chainDims(c chain) (int, int, error) {
	rows := e.g.NodeCount(e.chainStart(c))
	if c.middle != nil {
		w, err := e.g.Adjacency(c.middle.Relation.Name)
		if err != nil {
			return 0, 0, err
		}
		return rows, w.NNZ(), nil
	}
	if len(c.steps) == 0 {
		return 0, 0, fmt.Errorf("core: chain with no steps and no middle")
	}
	return rows, e.g.NodeCount(c.steps[len(c.steps)-1].To()), nil
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
		prefix, ok := src.cacheGet(e.chainFullKey(c.steps[:i], nil, c.side))
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

// carryNorms patches the cached row norms of a carried or row-patched
// chain: untouched rows keep their old (bit-identical) norms, appended rows
// are zero, and recomputed rows take the norms of their recomputed values.
// Absent source norms stay absent — they rebuild lazily on first use.
func (e *Engine) carryNorms(src *Engine, key string, nRows int, rows []int, rowNorms []float64) {
	src.mu.Lock()
	old, ok := src.norms[key]
	src.mu.Unlock()
	if !ok {
		return
	}
	n := make([]float64, nRows)
	copy(n, old)
	for i, r := range rows {
		n[r] = rowNorms[i]
	}
	e.mu.Lock()
	if _, cached := e.reach[key]; cached {
		e.norms[key] = n
	}
	e.mu.Unlock()
}

// parseChainKey reconstructs a chain from its cache key — "C:" plus
// "|"-joined step keys (relation name, "~" marks inverse traversal) with an
// optional "SE(step)"/"TE(step)" middle suffix, optionally wrapped in "T:"
// for transposed entries. Keys are self-describing against the schema, so
// chains imported from a snapshot rewarm exactly like locally built ones.
func parseChainKey(s *hin.Schema, key string) (chain, bool, error) {
	rest, transposed := strings.CutPrefix(key, "T:")
	body, ok := strings.CutPrefix(rest, "C:")
	if !ok {
		return chain{}, false, fmt.Errorf("core: cache key %q is not a chain key", key)
	}
	c := chain{side: 'P'}
	for _, part := range strings.Split(body, "|") {
		var mk string
		switch {
		case strings.HasPrefix(part, "SE(") && strings.HasSuffix(part, ")"):
			mk, c.side = part[3:len(part)-1], 'L'
		case strings.HasPrefix(part, "TE(") && strings.HasSuffix(part, ")"):
			mk, c.side = part[3:len(part)-1], 'R'
		default:
			if c.middle != nil {
				return chain{}, false, fmt.Errorf("core: chain key %q has steps after the middle suffix", key)
			}
			step, err := parseStepKey(s, part)
			if err != nil {
				return chain{}, false, err
			}
			if n := len(c.steps); n > 0 && c.steps[n-1].To() != step.From() {
				return chain{}, false, fmt.Errorf("core: chain key %q does not chain at %q", key, part)
			}
			c.steps = append(c.steps, step)
			continue
		}
		step, err := parseStepKey(s, mk)
		if err != nil {
			return chain{}, false, err
		}
		c.middle = &step
	}
	if len(c.steps) == 0 && c.middle == nil {
		return chain{}, false, fmt.Errorf("core: empty chain key %q", key)
	}
	if c.middle != nil && len(c.steps) > 0 {
		last := c.steps[len(c.steps)-1].To()
		if c.side == 'L' && c.middle.From() != last {
			return chain{}, false, fmt.Errorf("core: chain key %q middle does not join its left steps", key)
		}
		if c.side == 'R' && c.middle.To() != last {
			return chain{}, false, fmt.Errorf("core: chain key %q middle does not join its right steps", key)
		}
	}
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
