package core

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hetesim/internal/datagen"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
)

// scanDirtyRows is the prefix scan chainDirtyRows replaced, kept as its
// oracle: row s of chain c is dirty iff some step i has a changed transition
// row that row s of the old graph's i-step prefix matrix touches — the first
// step's changed rows being chain rows themselves. The prefixes come from
// old, a cold engine over the pre-delta graph, so every one is there; rows
// is the chain's row count in the new graph.
func scanDirtyRows(t *testing.T, old *Engine, c chain, d *hin.Dirty, rows int) []int {
	t.Helper()
	dirty := make([]bool, rows)
	for i, step := range c.steps {
		changed := changedRows(step, d)
		if len(changed) == 0 {
			continue
		}
		if i == 0 {
			for _, r := range changed {
				dirty[r] = true
			}
			continue
		}
		prefix, err := old.opMatrixChain(context.Background(), chain{steps: c.steps[:i], start: c.start, side: c.side})
		if err != nil {
			t.Fatal(err)
		}
		hit := make([]bool, prefix.Cols())
		for _, r := range changed {
			if r < len(hit) { // a node the delta added: no old row reaches it
				hit[r] = true
			}
		}
		for r := 0; r < prefix.Rows(); r++ {
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
	return out
}

// randomBatch returns a batch of one to three ops over rels: upserts of
// random weight, at most one delete of an existing edge, and, one endpoint
// in eight, a node the batch adds (fresh counts them).
func randomBatch(rng *rand.Rand, g *hin.Graph, rels []string, fresh *int) []hin.Op {
	var ops []hin.Op
	for k := 1 + rng.Intn(3); k > 0; k-- {
		rel := rels[rng.Intn(len(rels))]
		r, _ := g.Schema().RelationByName(rel)
		node := func(typ string) string {
			if rng.Intn(8) == 0 {
				*fresh++
				return "new" + itoa(*fresh)
			}
			id, _ := g.NodeID(typ, rng.Intn(g.NodeCount(typ)))
			return id
		}
		src, dst := node(r.Source), node(r.Target)
		adj, _ := g.Adjacency(rel)
		i, err1 := g.NodeIndex(r.Source, src)
		j, err2 := g.NodeIndex(r.Target, dst)
		if err1 == nil && err2 == nil && adj.At(i, j) != 0 && rng.Intn(2) == 0 {
			return append(ops, hin.Op{Kind: hin.OpDeleteEdge, Relation: rel, Src: src, Dst: dst}) // one delete: a second could name the same cell
		}
		ops = append(ops, hin.Op{Kind: hin.OpUpsertEdge, Relation: rel, Src: src, Dst: dst, Weight: []float64{1, 0.5, 2}[rng.Intn(3)]})
	}
	return ops
}

// TestDifferentialDirtyRowsWalk holds the reverse walk to the prefix scan on
// oddGraph and on small ACM: seeded batches of upserts, deletes and grown
// types over every relation the paths cross, each path's full chain and
// both halves (so forward and inverse steps, first and later ones), and the
// scan reading every prefix from a cold engine while the walk reads none.
// The two must name the same dirty rows, chain by chain.
func TestDifferentialDirtyRowsWalk(t *testing.T) {
	acm, err := datagen.ACM(datagen.SmallACMConfig())
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{"AP", "PV", "APVC", "CVPA", "APTP", "APAPVC", "APVPA", "TPAPT", "VPTPV", "CVPAPVC"}
	rels := []string{"writes", "published_in", "part_of", "mentions"}
	for _, tc := range []struct {
		name    string
		g       *hin.Graph
		batches int
	}{{"odd3", oddGraph(3), 12}, {"odd11", oddGraph(11), 12}, {"acm", acm.Graph, 6}} {
		rng := rand.New(rand.NewSource(int64(len(tc.name))))
		g, fresh := tc.g, 0
		dirtyChains, laterStep, grown := 0, 0, 0
		for batch := 0; batch < tc.batches; batch++ {
			ng, d := applyOps(t, g, randomBatch(rng, g, rels, &fresh))
			if len(d.Grown) > 0 {
				grown++
			}
			old := NewEngine(g)
			for _, spec := range specs {
				h := splitPath(metapath.MustParse(g.Schema(), spec))
				for _, c := range []chain{pathChain(metapath.MustParse(g.Schema(), spec)), h.left(), h.right()} {
					if len(c.steps) == 0 {
						continue
					}
					want := scanDirtyRows(t, old, c, d, ng.NodeCount(c.start))
					got := chainDirtyRows(g, c, d)
					if !slices.Equal(got, want) {
						t.Fatalf("%s batch %d %s: walk %v, scan %v (dirty %v / %v)", tc.name, batch, stepsKey(c.steps), got, want, d.Rows, d.Cols)
					}
					if len(want) > 0 {
						dirtyChains++
						if first := changedRows(c.steps[0], d); len(want) > len(first) {
							laterStep++
						}
					}
				}
			}
			g = ng
		}
		if dirtyChains == 0 || laterStep == 0 || grown == 0 {
			t.Fatalf("%s: %d dirty chains, %d dirtied past their first step, %d batches grew a type: the walk went untested",
				tc.name, dirtyChains, laterStep, grown)
		}
	}
}

// TestRewarmPatchesEvictedPrefixes rewarms from an engine that holds long
// chains but none of their prefixes — what a bounded cache leaves after
// evicting them. The walk needs no prefix, so every chain is carried or
// row-patched (the prefix scan rebuilt each whole), nothing is dropped, the
// rewarmed cache holds exactly the chains the source held, and each is bit
// for bit the chain a cold engine over the new graph builds.
func TestRewarmPatchesEvictedPrefixes(t *testing.T) {
	ctx := context.Background()
	ds, err := datagen.ACM(datagen.SmallACMConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	full := NewEngine(g)
	old := NewEngine(g)
	for _, spec := range []string{"APVCVPA", "APTPA", "TPAPT"} {
		c := pathChain(metapath.MustParse(g.Schema(), spec))
		pm, err := full.opMatrixChain(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		old.cachePut(stepsKey(c.steps), pm)
	}
	writes, _ := g.Adjacency("writes")
	mentions, _ := g.Adjacency("mentions")
	wc, _ := writes.RowEntries(5)
	mc, _ := mentions.RowEntries(9)
	id := func(typ string, i int) string { s, _ := g.NodeID(typ, i); return s }
	ng, d := applyOps(t, g, []hin.Op{
		{Kind: hin.OpDeleteEdge, Relation: "writes", Src: id("author", 5), Dst: id("paper", wc[0])},
		{Kind: hin.OpDeleteEdge, Relation: "mentions", Src: id("paper", 9), Dst: id("term", mc[0])},
		{Kind: hin.OpUpsertEdge, Relation: "published_in", Src: id("paper", 4), Dst: id("venue", 2), Weight: 1},
		{Kind: hin.OpUpsertEdge, Relation: "writes", Src: "fresh-author", Dst: id("paper", 3), Weight: 1},
	})
	warm := NewEngine(ng)
	st, err := warm.RewarmFrom(ctx, old, d)
	if err != nil {
		t.Fatal(err)
	}
	if st.RowPatched != 3 || st.Carried != 0 || st.Dropped != 0 || st.Rows == 0 {
		t.Fatalf("rewarm %v: want the 3 chains row-patched, none dropped", st)
	}
	keys := func(e *Engine) []string {
		var ks []string
		for k := range e.ExportChains() {
			if strings.HasPrefix(k, "C:") {
				ks = append(ks, k)
			}
		}
		slices.Sort(ks)
		return ks
	}
	if got, want := keys(warm), keys(old); !slices.Equal(got, want) {
		t.Fatalf("rewarmed chains %v, the source held %v", got, want)
	}
	cold := NewEngine(ng)
	for k, m := range warm.ExportChains() {
		c, _, err := parseChainKey(ng.Schema(), k)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := cold.opMatrixChain(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if !pm.Equal(m) || pm.NNZ() != m.NNZ() {
			t.Errorf("%s diverges from the cold rebuild", k)
		}
	}
}
