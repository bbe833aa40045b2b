package core

import (
	"context"
	"fmt"
	"maps"
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
// First the per-relation state comes along (carryRelations): transitions of
// relations the delta left alone are carried, those of changed relations are
// row-patched, and odd-path middles of unchanged relations are carried. Then,
// per cached chain, only the dirty rows are recomputed and spliced in; a
// chain whose dirty rows cannot be told (a prefix is missing) is rebuilt. An
// odd path's halves are ordinary step chains, and their norms come along
// (carryNorms); so do the transposes and "X:" products derived from a
// chain, patched where it changed (patchDerived). Failure modes degrade to
// dropping a chain — always safe, the next query rebuilds it cold.
func (e *Engine) RewarmFrom(ctx context.Context, src *Engine, d *hin.Dirty) (RewarmStats, error) {
	var st RewarmStats
	if src == nil || d == nil {
		return st, fmt.Errorf("core: RewarmFrom requires a source engine and a delta summary")
	}
	if !e.caching {
		return st, nil
	}
	e.carryRelations(src, d)

	chains := src.ExportChains()
	keys := make([]string, 0, len(chains))
	for k := range chains {
		keys = append(keys, k)
	}
	// Shortest chains first so prefixes are warm before the longer chains
	// that could rebuild through them; entries derived from a chain ("T:",
	// "X:") follow their base via the second pass below.
	sort.Slice(keys, func(i, j int) bool { return len(keys[i]) < len(keys[j]) })

	// patches[key] is what changed in a carried or row-patched chain: its
	// recomputed rows and their new values (none for a carried chain).
	patches := make(map[string]rowPatch)
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
		p := rowPatch{rows: rows}
		if len(rows) == 0 {
			st.Carried++
		} else {
			if p.sub, err = e.opSubsetChain(ctx, rows, c); err != nil {
				return st, err
			}
			nm = nm.ReplaceRows(rows, p.sub)
			st.RowPatched++
			st.Rows += len(rows)
		}
		e.cachePut(key, nm)
		e.carryNorms(src, key, nm, p)
		patches[key] = p
	}

	// Entries derived from a chain ("T:" transposes, "X:" metKey products)
	// are carried and patched where their chain changed (patchDerived), or
	// derived again from the rewarmed chain when it was rebuilt — either way
	// bit-identical to the cold path's. A chain that went missing (evicted
	// upstream, dropped here) drops them; a "T:" without room
	// (transposeFits) is dropped before it is built.
	for _, key := range keys {
		if strings.HasPrefix(key, "C:") {
			continue
		}
		if base, ok := strings.CutPrefix(key, "T:"); ok && e.warmScan(base) != scanTransposeOnce {
			st.Dropped++
			continue
		}
		nm, err := e.patchDerived(ctx, src, key, chains[key], chains, patches)
		if nm == nil && err == nil {
			nm, err = e.derive(ctx, key)
		}
		if err == nil && e.cachePut(key, nm) {
			st.Carried++
		} else {
			st.Dropped++
		}
	}
	return st, nil
}

// rowPatch is what RewarmFrom changed in one chain: the recomputed rows and
// sub, their new values (row i of sub is row rows[i]); nil for none.
type rowPatch struct {
	rows []int
	sub  *sparse.Matrix
}

// carryRelations brings src's per-relation state over to e, whose graph is
// src's with delta d applied. A transition U of a relation d changed no cell
// of is carried (padded if a type grew: the new rows and columns are empty,
// as a rebuilt one's would be); a changed relation's U is row-patched at its
// dirty source rows, and its inverse's at its dirty target rows, read off
// the new adjacency by a column scan (TransposeRows) — each row normalized
// on its own, so the patched matrix is bit for bit the rebuilt one (Property
// 2: a delta moves one row of each direction). A middle is carried while
// its relation and both its types are unchanged; otherwise middleOf builds
// it again on first use.
func (e *Engine) carryRelations(src *Engine, d *hin.Dirty) {
	src.mu.Lock()
	trans := maps.Clone(src.trans)
	middles := maps.Clone(src.middles)
	src.mu.Unlock()
	s := e.g.Schema()
	for key, u := range trans {
		name, inverse := strings.CutSuffix(key, "~")
		w, err := e.g.Adjacency(name)
		if err != nil {
			continue
		}
		rows, cols := w.Dims()
		dirty := d.Rows[name]
		if inverse {
			rows, cols, dirty = cols, rows, d.Cols[name]
		}
		u = u.Resize(rows, cols)
		switch {
		case len(dirty) == 0:
		case inverse:
			u = u.ReplaceRows(dirty, w.TransposeRows(dirty).RowNormalize())
		default:
			u = u.ReplaceRows(dirty, w.SelectRows(dirty).RowNormalize())
		}
		e.mu.Lock()
		e.trans[key] = u
		e.mu.Unlock()
	}
	for key, mo := range middles {
		name, _ := strings.CutSuffix(key, "~")
		rel, err := s.RelationByName(name)
		if err == nil && len(d.Rows[name]) == 0 && !d.Grown[rel.Source] && !d.Grown[rel.Target] {
			e.mu.Lock()
			e.middles[key] = mo
			e.mu.Unlock()
		}
	}
}

// carriedMiddle returns the middle of step key mk if e carried it from src
// (so its weights and M are src's), else nil.
func (e *Engine) carriedMiddle(src *Engine, mk string) *middle {
	src.mu.Lock()
	old := src.middles[mk]
	src.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if mo := e.middles[mk]; mo != nil && mo == old {
		return mo
	}
	return nil
}

// patchDerived returns a "T:" transpose or an "X:" product carried from
// src and patched where its chain changed, or nil, nil when it must be
// derived whole: its chain was rebuilt, or, for a product, its middle was
// not carried, or, for a transpose, the patch is over an eighth of it. A transpose changes only in the entries of the chain's dirty
// rows: the old ones are deleted and the new ones set, row by row in
// ascending chain-row order (SetCells), as Transpose lays them out. With the
// middle carried, row r of PM_L·M changes only where row r of PM_L did, and
// each row of a product is computed on its own — so either way the patched
// entry is bit-identical to the derived one.
func (e *Engine) patchDerived(ctx context.Context, src *Engine, key string, old *sparse.Matrix, chains map[string]*sparse.Matrix, patches map[string]rowPatch) (*sparse.Matrix, error) {
	kind, mk, base := derivedKey(key)
	p, ok := patches[base]
	if !ok {
		return nil, nil
	}
	pm, ok := e.cacheGet(base)
	if !ok {
		return nil, fmt.Errorf("core: chain %q of %q is gone", base, key)
	}
	if kind == "T" {
		nm := old.Resize(pm.Cols(), pm.Rows())
		if len(p.rows) == 0 {
			return nm, nil
		}
		prev := chains[base]
		n := p.sub.NNZ()
		for _, r := range p.rows {
			if r < prev.Rows() {
				n += prev.RowNNZ(r)
			}
		}
		if 8*n > pm.NNZ() { // sorting that many cells costs more than a transpose
			return nil, nil
		}
		cells := make([]sparse.Triplet, 0, n) // (column, chain row): old entries zeroed, then the new ones
		for i, r := range p.rows {
			if r < prev.Rows() {
				idx, _ := prev.RowEntries(r)
				for _, c := range idx {
					cells = append(cells, sparse.Triplet{Row: c, Col: r})
				}
			}
			idx, val := p.sub.RowEntries(i)
			for k, c := range idx {
				cells = append(cells, sparse.Triplet{Row: c, Col: r, Val: val[k]})
			}
		}
		sort.SliceStable(cells, func(i, j int) bool {
			return cells[i].Row < cells[j].Row || cells[i].Row == cells[j].Row && cells[i].Col < cells[j].Col
		})
		n = 0 // keep the last of each coordinate: the new entry over the old
		for i, c := range cells {
			if i+1 < len(cells) && cells[i+1].Row == c.Row && cells[i+1].Col == c.Col {
				continue
			}
			cells[n] = c
			n++
		}
		return nm.SetCells(nm.Rows(), nm.Cols(), cells[:n]), nil
	}
	mo := e.carriedMiddle(src, mk)
	if mo == nil {
		return nil, nil
	}
	nm := old.Resize(pm.Rows(), mo.m.Cols())
	if len(p.rows) == 0 {
		return nm, nil
	}
	sub, err := p.sub.MulCtx(ctx, mo.m)
	if err != nil {
		return nil, err
	}
	return nm.ReplaceRows(p.rows, sub), nil
}

// derivedKey splits the key of an entry derived from a chain: its kind
// ("T" or "X"), the middle step key of an "X:" product, and the chain key.
func derivedKey(key string) (kind, mk, base string) {
	kind, rest, _ := strings.Cut(key, ":")
	if kind == "T" {
		return kind, "", rest
	}
	mk, base, _ = strings.Cut(rest, ">")
	return kind, mk, base
}

// derive builds a "T:" or "X:" entry from its chain, cached on e.
func (e *Engine) derive(ctx context.Context, key string) (*sparse.Matrix, error) {
	kind, mk, base := derivedKey(key)
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
// distribution, so consulting the OLD prefix is not an approximation; its
// rows are scanned in place. A missing prefix forces a full rebuild (second
// return true).
func (e *Engine) chainDirtyRows(src *Engine, c chain, d *hin.Dirty) ([]int, bool) {
	dirty := make([]bool, e.g.NodeCount(c.start))
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
		hit := make([]bool, prefix.Cols())
		for _, r := range changed {
			if r < len(hit) { // a node the delta added: no old row reaches it
				hit[r] = true
			}
		}
		for r := 0; r < prefix.Rows(); r++ {
			if dirty[r] {
				continue
			}
			idx, _ := prefix.RowEntries(r)
			for _, col := range idx {
				if hit[col] {
					dirty[r] = true
					break
				}
			}
		}
	}
	var out []int
	for r, on := range dirty {
		if on {
			out = append(out, r)
		}
	}
	return out, false
}

// carryNorms carries the cached row norms of a carried or row-patched chain
// nm. Norms are patched — untouched rows keep their old (bit-identical)
// norms, appended rows are zero, and recomputed rows take the norms of
// their recomputed values — when plain, or weighted by a middle carried
// from src (its weights are src's). Norms weighted by a middle that was not
// carried are recomputed whole under the middle rebuilt from the new graph —
// a write to it moves them wherever a row reaches it — so the first
// odd-path read of the new generation finds them as warm as src left them.
// Absent source norms stay absent and rebuild lazily on first use.
func (e *Engine) carryNorms(src *Engine, key string, nm *sparse.Matrix, p rowPatch) {
	e.mu.Lock()
	_, cached := e.reach[key]
	e.mu.Unlock()
	if !cached {
		return
	}
	src.mu.Lock()
	old := maps.Clone(src.norms[key])
	src.mu.Unlock()
	for wk, n := range old {
		var w weights
		if wk != "" {
			step, err := parseStepKey(e.g.Schema(), wk[1:])
			if err != nil {
				continue
			}
			mo := e.carriedMiddle(src, wk[1:])
			if mo == nil {
				if mo, err = e.middleOf(&step); err == nil {
					e.chainRowNorms(key, nm, mo.weights(wk[0]))
				}
				continue
			}
			w = mo.weights(wk[0])
		}
		var vals []float64
		if p.sub != nil {
			vals = p.sub.WeightedRowNorms(w.d)
		}
		patched := n.patched(nm.Rows(), p.rows, vals)
		e.mu.Lock()
		if e.norms[key] == nil {
			e.norms[key] = make(map[string]rowNorms)
		}
		e.norms[key][wk] = patched
		e.mu.Unlock()
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
