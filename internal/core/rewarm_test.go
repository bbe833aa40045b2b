package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hetesim/internal/datagen"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/sparse"
)

// rewarmPaths covers the chain-shape zoo: an even path (pure step chains),
// an odd path whose middle is the mutated relation, and an odd path whose
// middle is a different relation (middle untouched, steps touched).
var rewarmSpecs = []string{"APC", "AP", "APCP"}

func rewarmWarm(t *testing.T, e *Engine, g *hin.Graph) {
	t.Helper()
	ctx := context.Background()
	for _, spec := range rewarmSpecs {
		p := metapath.MustParse(g.Schema(), spec)
		if err := e.Precompute(ctx, p); err != nil {
			t.Fatal(err)
		}
		// Populate a transposed entry too (what top-k scans cache).
		h := splitPath(p)
		if _, err := e.opScanChain(ctx, h.right(), nil); err != nil {
			t.Fatal(err)
		}
	}
}

// compareCaches asserts the rewarmed engine's chain cache is bit-identical
// to the cold engine's, key by key, for every key the rewarmed engine holds.
func compareCaches(t *testing.T, cold, warm *Engine) {
	t.Helper()
	cc, wc := cold.ExportChains(), warm.ExportChains()
	if len(wc) == 0 {
		t.Fatal("rewarmed engine has an empty cache")
	}
	for k, wm := range wc {
		cm, ok := cc[k]
		if !ok {
			t.Errorf("rewarmed cache has %q, cold cache does not", k)
			continue
		}
		if !cm.Equal(wm) {
			t.Errorf("chain %q diverges from the cold rebuild", k)
		}
	}
}

func applyOps(t *testing.T, g *hin.Graph, ops []hin.Op) (*hin.Graph, *hin.Dirty) {
	t.Helper()
	ng, d, err := g.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	return ng, d
}

func TestRewarmBitIdentity(t *testing.T) {
	g := fig4Graph(t)
	old := NewEngine(g)
	rewarmWarm(t, old, g)

	ng, d := applyOps(t, g, []hin.Op{
		{Kind: hin.OpUpsertEdge, Relation: "writes", Src: "Carl", Dst: "p5", Weight: 1},
		{Kind: hin.OpUpsertEdge, Relation: "published_in", Src: "p5", Dst: "KDD", Weight: 1},
		{Kind: hin.OpDeleteEdge, Relation: "writes", Src: "Bob", Dst: "p4"},
		{Kind: hin.OpAddNode, Type: "author", ID: "Dan"},
	})

	warm := NewEngine(ng)
	stats, err := warm.RewarmFrom(context.Background(), old, d)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 0 {
		t.Errorf("dropped %d chains: %s", stats.Dropped, stats)
	}

	cold := NewEngine(ng)
	rewarmWarm(t, cold, ng)
	compareCaches(t, cold, warm)

	// Every key the old engine held must still be present (nothing lost).
	for k := range old.ExportChains() {
		if _, ok := warm.cacheGet(k); !ok {
			t.Errorf("chain %q lost in rewarm", k)
		}
	}

	// The rewarmed engine answers queries identically to the cold engine.
	for _, spec := range rewarmSpecs {
		p := metapath.MustParse(ng.Schema(), spec)
		a, err := cold.AllPairs(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := warm.AllPairs(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("AllPairs(%s) diverges after rewarm", spec)
		}
	}
}

// A delta touching one relation must row-patch the untouched-relation
// chains' rows only — the Property-2 locality the subsystem exists for.
func TestRewarmPatchesOnlyDirtyRows(t *testing.T) {
	g := fig4Graph(t)
	old := NewEngine(g)
	ctx := context.Background()
	p := metapath.MustParse(g.Schema(), "APC")
	if err := old.Precompute(ctx, p); err != nil {
		t.Fatal(err)
	}

	// One new publication venue for p1: only published_in row p1 (forward)
	// and column VLDB (inverse) are perturbed.
	ng, d := applyOps(t, g, []hin.Op{
		{Kind: hin.OpUpsertEdge, Relation: "published_in", Src: "p1", Dst: "VLDB", Weight: 1},
	})

	warm := NewEngine(ng)
	stats, err := warm.RewarmFrom(ctx, old, d)
	if err != nil {
		t.Fatal(err)
	}
	// Left chain "C:writes" never walks published_in: carried untouched.
	// Right chain "C:published_in~" starts at conferences; VLDB is its only
	// dirty row. Nothing needs a full rebuild.
	if stats.Rebuilt != 0 || stats.Dropped != 0 {
		t.Fatalf("stats = %s, want no rebuilds/drops", stats)
	}
	if stats.Carried != 1 || stats.RowPatched != 1 || stats.Rows != 1 {
		t.Fatalf("stats = %s, want 1 carried + 1 chain patched with 1 row", stats)
	}

	cold := NewEngine(ng)
	if err := cold.Precompute(ctx, p); err != nil {
		t.Fatal(err)
	}
	compareCaches(t, cold, warm)

	// Norms were patched, not dropped: present and bit-identical to cold.
	for _, key := range []string{"C:writes", "C:published_in~"} {
		cold.mu.Lock()
		cn, cok := cold.norms[key]
		cold.mu.Unlock()
		warm.mu.Lock()
		wn, wok := warm.norms[key]
		warm.mu.Unlock()
		if !cok || !wok {
			t.Fatalf("norms for %q missing (cold %v, warm %v)", key, cok, wok)
		}
		if !reflect.DeepEqual(cn, wn) {
			t.Errorf("norms for %q diverge", key)
		}
	}
}

// Node-only growth pads cached chains with zero rows/columns — no
// recomputation at all — and stays bit-identical to a cold build.
func TestRewarmNodeGrowthOnly(t *testing.T) {
	g := fig4Graph(t)
	old := NewEngine(g)
	rewarmWarm(t, old, g)
	ng, d := applyOps(t, g, []hin.Op{
		{Kind: hin.OpAddNode, Type: "author", ID: "Dan"},
		{Kind: hin.OpAddNode, Type: "conference", ID: "VLDB"},
	})
	warm := NewEngine(ng)
	stats, err := warm.RewarmFrom(context.Background(), old, d)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowPatched != 0 || stats.Rebuilt != 0 || stats.Dropped != 0 {
		t.Fatalf("stats = %s, want carried only", stats)
	}
	cold := NewEngine(ng)
	rewarmWarm(t, cold, ng)
	compareCaches(t, cold, warm)
}

// A bounded engine rewarmed from an unbounded one that holds "T:" entries
// builds those it has room for and counts the rest dropped, so what it
// reports carried, patched and rebuilt is what it holds.
func TestRewarmBoundedTransposesNeedRoom(t *testing.T) {
	g := fig4Graph(t)
	warmed := NewEngine(g)
	rewarmWarm(t, warmed, g)
	chains, transposes := map[string]*sparse.Matrix{}, 0
	for k, m := range warmed.ExportChains() {
		switch {
		case strings.HasPrefix(k, "C:"):
			chains[k] = m
		case strings.HasPrefix(k, "T:"):
			chains[k] = m
			transposes++
		}
	}
	if transposes < 2 {
		t.Fatalf("the source engine holds %d transposes", transposes)
	}
	old := NewEngine(g)                         // chains and transposes, no odd-path products: nothing is evicted
	for _, kind := range []string{"C:", "T:"} { // a transpose is installed beside its chain
		for k, m := range chains {
			if strings.HasPrefix(k, kind) {
				old.cachePut(k, m)
			}
		}
	}
	ng, d := applyOps(t, g, []hin.Op{
		{Kind: hin.OpUpsertEdge, Relation: "published_in", Src: "p1", Dst: "VLDB", Weight: 1},
	})
	limit := len(chains) - transposes + 1 // every chain, and room for one transpose
	warm := NewEngine(ng, WithCacheLimit(limit))
	stats, err := warm.RewarmFrom(context.Background(), old, d)
	if err != nil {
		t.Fatal(err)
	}
	checkCacheInvariants(t, warm, "rewarmed")
	keys := residentKeys(warm)
	if got := stats.Carried + stats.RowPatched + stats.Rebuilt; got != len(keys) || len(keys) != limit ||
		stats.Dropped != transposes-1 || warm.CacheStats().Evictions != 0 {
		t.Fatalf("stats = %s, evictions %d, resident %v: want carried+row_patched+rebuilt = %d resident and dropped = %d transposes",
			stats, warm.CacheStats().Evictions, keys, limit, transposes-1)
	}
	cold := NewEngine(ng)
	rewarmWarm(t, cold, ng)
	compareCaches(t, cold, warm)
}

func TestParseChainKeyRoundTrip(t *testing.T) {
	g := fig4Graph(t)
	e := NewEngine(g)
	for _, spec := range []string{"APC", "AP", "APCP", "CPA"} {
		p := metapath.MustParse(g.Schema(), spec)
		h := splitPath(p)
		for _, c := range []chain{h.left(), h.right(), pathChain(p)} {
			if len(c.steps) == 0 {
				continue
			}
			key := e.chainCacheKey(c)
			got, transposed, err := parseChainKey(g.Schema(), key)
			if err != nil {
				t.Fatalf("parse(%q): %v", key, err)
			}
			if transposed {
				t.Errorf("parse(%q): spurious transpose", key)
			}
			if e.chainCacheKey(got) != key {
				t.Errorf("parse(%q) re-keys to %q", key, e.chainCacheKey(got))
			}
			gotT, transposed, err := parseChainKey(g.Schema(), "T:"+key)
			if err != nil || !transposed {
				t.Errorf("parse(T:%q): transposed=%v err=%v", key, transposed, err)
			}
			if e.chainCacheKey(gotT) != key {
				t.Errorf("parse(T:%q) re-keys to %q", key, e.chainCacheKey(gotT))
			}
		}
	}
	for _, bad := range []string{"", "C:", "C:unknown_rel", "norms:writes", "C:writes|writes"} {
		if _, _, err := parseChainKey(g.Schema(), bad); err == nil {
			t.Errorf("parse(%q) succeeded", bad)
		}
	}
}

// White-box proof that opMatrixChain actually resumes from a cached prefix:
// poison the one-step prefix and watch the full chain inherit the poison.
func TestMatrixChainResumesFromPrefix(t *testing.T) {
	g := fig4Graph(t)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APC")
	c := pathChain(p)
	poison := sparse.Zeros(g.NodeCount("author"), g.NodeCount("paper"))
	e.cachePut(stepsKey(c.steps[:1]), poison)
	pm, err := e.opMatrixChain(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if pm.NNZ() != 0 {
		t.Fatalf("full chain has %d nonzeros; prefix was not reused", pm.NNZ())
	}
}

// A partially warm chain must be priced at its cold suffix only.
func TestChainColdFlopsPartialWarmth(t *testing.T) {
	g := fig4Graph(t)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APCPA")
	h := splitPath(p)
	cm, err := e.costModelFor(h)
	if err != nil {
		t.Fatal(err)
	}
	if cm.coldLeft != cm.left.Flops {
		t.Fatalf("cold engine: coldLeft = %v, want full %v", cm.coldLeft, cm.left.Flops)
	}

	// Warm the one-step prefix of the left half ("C:writes").
	if _, err := e.ReachableMatrix(context.Background(), metapath.MustParse(g.Schema(), "AP")); err != nil {
		t.Fatal(err)
	}
	cm, err = e.costModelFor(h)
	if err != nil {
		t.Fatal(err)
	}
	if cm.warmLeft {
		t.Fatal("left half unexpectedly fully warm")
	}
	if cm.coldLeft >= cm.left.Flops || cm.coldLeft <= 0 {
		t.Fatalf("partially warm: coldLeft = %v, want in (0, %v)", cm.coldLeft, cm.left.Flops)
	}

	// Fully warm: priced at zero.
	if err := e.Precompute(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	cm, err = e.costModelFor(h)
	if err != nil {
		t.Fatal(err)
	}
	if cm.coldLeft != 0 || cm.coldRight != 0 {
		t.Fatalf("warm engine: cold = %v/%v, want 0/0", cm.coldLeft, cm.coldRight)
	}
}

// TestRewarmCarriesRelationState chains random batches — upserts, deletes
// and node growth over every relation, middles included or left alone — and
// after each rewarm holds every piece of carried or patched state to what a
// cold engine over the new graph builds: transitions, middles, row norms
// plain and weighted, and the chain cache with its "X:" products.
func TestRewarmCarriesRelationState(t *testing.T) {
	ctx := context.Background()
	rels := []string{"writes", "published_in", "part_of", "mentions"}
	for _, seed := range []int64{3, 11} {
		rng := rand.New(rand.NewSource(seed))
		g := oddGraph(seed)
		// warm precomputes every path and leaves each right half's
		// transpose cached, as top-k reads do.
		warmUp := func(e *Engine, g *hin.Graph) {
			for _, spec := range oddPathSpecs {
				p := metapath.MustParse(g.Schema(), spec)
				if err := e.Precompute(ctx, p); err != nil {
					t.Fatal(err)
				}
				if _, err := e.TopKSearch(ctx, p, 0, 3, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		old := NewEngine(g)
		warmUp(old, g)
		fresh, carried, transposes := 0, 0, 0
		for batch := 0; batch < 8; batch++ {
			var ops []hin.Op
			for k := 1 + rng.Intn(3); k > 0; k-- {
				// Every other batch leaves published_in (the middle of
				// APVC, CVPA and APAPVC) alone, so its middle is carried.
				rel := rels[rng.Intn(len(rels))]
				if batch%2 == 0 && rel == "published_in" {
					rel = "writes"
				}
				r, _ := g.Schema().RelationByName(rel)
				node := func(typ string) string {
					if rng.Intn(8) == 0 {
						fresh++
						return "new" + itoa(fresh)
					}
					id, _ := g.NodeID(typ, rng.Intn(g.NodeCount(typ)))
					return id
				}
				src, dst := node(r.Source), node(r.Target)
				adj, _ := g.Adjacency(rel)
				i, err1 := g.NodeIndex(r.Source, src)
				j, err2 := g.NodeIndex(r.Target, dst)
				if err1 == nil && err2 == nil && adj.At(i, j) != 0 && rng.Intn(2) == 0 {
					ops = append(ops, hin.Op{Kind: hin.OpDeleteEdge, Relation: rel, Src: src, Dst: dst})
					break // one delete per batch: a second could name the same cell
				}
				ops = append(ops, hin.Op{Kind: hin.OpUpsertEdge, Relation: rel, Src: src, Dst: dst, Weight: []float64{1, 0.5, 2}[rng.Intn(3)]})
			}
			ng, d := applyOps(t, g, ops)
			warm := NewEngine(ng)
			if _, err := warm.RewarmFrom(ctx, old, d); err != nil {
				t.Fatal(err)
			}
			cold := NewEngine(ng)
			warmUp(cold, ng)
			for key := range warm.ExportChains() {
				if strings.HasPrefix(key, "T:") {
					transposes++
				}
			}
			what := func(s string) string { return "seed " + itoa(int(seed)) + " batch " + itoa(batch) + ": " + s }
			for key, u := range warm.trans {
				if want := cold.trans[key]; want == nil || !u.Equal(want) || u.NNZ() != want.NNZ() {
					t.Fatal(what("transition " + key + " differs from a rebuilt one"))
				}
			}
			for key, mo := range warm.middles {
				if mo == old.middles[key] {
					carried++
				}
				want := cold.middles[key]
				if want == nil || !mo.a.Equal(want.a) || !mo.b.Equal(want.b) || !mo.m.Equal(want.m) ||
					!reflect.DeepEqual(mo.l, want.l) || !reflect.DeepEqual(mo.r, want.r) {
					t.Fatal(what("middle " + key + " differs from a rebuilt one"))
				}
			}
			for key, byW := range warm.norms {
				for wk, n := range byW {
					if want, ok := cold.norms[key][wk]; !ok || !reflect.DeepEqual(n, want) {
						t.Fatal(what("norms " + key + " " + wk + " differ from a rebuilt chain's"))
					}
				}
			}
			compareCaches(t, cold, warm)
			for key := range old.ExportChains() {
				if _, ok := warm.cacheGet(key); !ok {
					t.Fatal(what("entry " + key + " lost in rewarm"))
				}
			}
			g, old = ng, warm
		}
		if carried == 0 || transposes == 0 {
			t.Fatalf("seed %d: %d middles carried, %d transposes rewarmed; the carry went untested", seed, carried, transposes)
		}
	}
}

// TestRewarmPatchesTransposes writes to a network large enough that a
// chain's dirty rows are a small part of it, so its "T:" transpose is
// patched in place rather than derived again, and holds every rewarmed
// transpose to the transpose of the chain a cold engine builds.
func TestRewarmPatchesTransposes(t *testing.T) {
	ctx := context.Background()
	ds, err := datagen.ACM(datagen.SmallACMConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	old := NewEngine(g)
	for _, spec := range []string{"APA", "APVPA", "APTPA", "APVC"} {
		p := metapath.MustParse(g.Schema(), spec)
		if err := old.Precompute(ctx, p); err != nil {
			t.Fatal(err)
		}
		if _, err := old.TopKSearch(ctx, p, 0, 5, 0); err != nil {
			t.Fatal(err)
		}
	}
	id := func(typ string, i int) string { s, _ := g.NodeID(typ, i); return s }
	writes, _ := g.Adjacency("writes")
	mentions, _ := g.Adjacency("mentions")
	wc, _ := writes.RowEntries(3)
	mc, _ := mentions.RowEntries(7)
	ng, d := applyOps(t, g, []hin.Op{
		{Kind: hin.OpDeleteEdge, Relation: "writes", Src: id("author", 3), Dst: id("paper", wc[0])},
		{Kind: hin.OpDeleteEdge, Relation: "mentions", Src: id("paper", 7), Dst: id("term", mc[0])},
		{Kind: hin.OpUpsertEdge, Relation: "mentions", Src: id("paper", 9), Dst: id("term", 11), Weight: 2},
	})
	warm := NewEngine(ng)
	if _, err := warm.RewarmFrom(ctx, old, d); err != nil {
		t.Fatal(err)
	}
	cold := NewEngine(ng)
	checked := 0
	for key, m := range warm.ExportChains() {
		base, ok := strings.CutPrefix(key, "T:")
		if !ok {
			continue
		}
		c, _, err := parseChainKey(ng.Schema(), base)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := cold.opMatrixChain(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if want := pm.Transpose(); !m.Equal(want) || m.NNZ() != want.NNZ() {
			t.Errorf("%s differs from the transpose of the rebuilt chain", key)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no transpose was rewarmed")
	}
}

// TestRewarmAllocatesItsDelta pins what a one-edge write costs the rewarm
// on the paper-scale ACM network warmed with the end-to-end benchmark's
// eight paths (BenchmarkIncrementalWrite's): splices copy the CSR pages
// and norm pages that hold a changed row, not whole matrices — a copy of
// each touched chain would be about 9 MB — so RewarmFrom allocates under
// a megabyte, and the rewarmed engine is still, entry for entry, the one a
// cold engine over the new graph builds.
func TestRewarmAllocatesItsDelta(t *testing.T) {
	ctx := context.Background()
	ds, err := datagen.ACM(datagen.DefaultACMConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	specs := []string{"APA", "AFA", "APVC", "APVPA", "APSPA", "APTPA", "APVCVPA", "CVPA"}
	warmUp := func(e *Engine, g *hin.Graph) {
		for _, spec := range specs {
			if err := e.Precompute(ctx, metapath.MustParse(g.Schema(), spec)); err != nil {
				t.Fatal(err)
			}
		}
	}
	old := NewEngine(g)
	warmUp(old, g)
	writes, _ := g.Adjacency("writes")
	held, _ := writes.RowEntries(7)
	dst := 0 // the first paper author 7 did not write
	for k := 0; k < len(held) && held[k] == dst; k++ {
		dst++
	}
	author, _ := g.NodeID("author", 7)
	paper, _ := g.NodeID("paper", dst)
	ng, d := applyOps(t, g, []hin.Op{{Kind: hin.OpUpsertEdge, Relation: "writes", Src: author, Dst: paper, Weight: 1}})

	var warm *Engine
	least := uint64(math.MaxUint64)
	for trial := 0; trial < 3; trial++ { // the least of three: a stray allocation elsewhere is not the rewarm's
		warm = NewEngine(ng)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st, err := warm.RewarmFrom(ctx, old, d)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if st.RowPatched == 0 || st.Rebuilt != 0 {
			t.Fatalf("rewarm %v: want row-patched chains and none rebuilt", st)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a one-edge write's RewarmFrom allocated %d bytes (%v)", least, d.Rows)
	if least >= 1<<20 {
		t.Errorf("a one-edge write's RewarmFrom allocated %d bytes, want < 1 MB", least)
	}

	cold := NewEngine(ng)
	warmUp(cold, ng)
	compareCaches(t, cold, warm)
	for key, u := range warm.trans {
		if want := cold.trans[key]; want == nil || !u.Equal(want) || u.NNZ() != want.NNZ() {
			t.Errorf("transition %s differs from a rebuilt one", key)
		}
	}
	for key, byW := range warm.norms {
		for wk, n := range byW {
			if want, ok := cold.norms[key][wk]; !ok || !reflect.DeepEqual(n, want) {
				t.Errorf("norms %s %s differ from a rebuilt chain's", key, wk)
			}
		}
	}
}
