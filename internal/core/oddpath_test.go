package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hetesim/internal/datagen"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
)

// Odd-length paths meet on the middle relation R through M = A ⊙ Bᵀ instead
// of on the edge-object type E of Definition 6. These tests hold every entry
// point to the literal construction — the augmented graph with one E node per
// instance of R, each joined to its source and its target with weight √w, and
// the even path through E — and pin the within-build bit-identity contracts
// on odd paths.

// oddGraph is a random weighted bibliographic graph whose middle relations
// have zero-degree nodes on both sides: an author who writes nothing, papers
// without authors, venues or terms, a venue no paper is published in.
func oddGraph(seed int64) *hin.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder(bibSchema())
	n := map[byte]int{'a': 5 + rng.Intn(4), 'p': 10 + rng.Intn(8), 'v': 4 + rng.Intn(3), 'c': 2 + rng.Intn(2), 't': 4 + rng.Intn(4)}
	types := map[byte]string{'a': "author", 'p': "paper", 'v': "venue", 'c': "conference", 't': "term"}
	for _, prefix := range []byte("apvct") {
		for i := 0; i < n[prefix]; i++ {
			b.AddNode(types[prefix], string(prefix)+itoa(i))
		}
	}
	weights := []float64{1, 0.5, 2, 3.25}
	seen := map[string]bool{}
	edge := func(rel string, src, dst string) {
		if k := rel + " " + src + " " + dst; !seen[k] {
			seen[k] = true
			b.AddWeightedEdge(rel, src, dst, weights[rng.Intn(len(weights))])
		}
	}
	pick := func(prefix byte, last int) string { return string(prefix) + itoa(rng.Intn(last)) }
	for i := 0; i < n['p']; i++ {
		p := "p" + itoa(i)
		for k := rng.Intn(3); k > 0; k-- {
			edge("writes", pick('a', n['a']-1), p)
		}
		for k := rng.Intn(3); k > 0 && i%4 != 3; k-- {
			edge("published_in", p, pick('v', n['v']-1))
		}
		for k := rng.Intn(3); k > 0; k-- {
			edge("mentions", p, pick('t', n['t']))
		}
	}
	for i := 0; i < n['v']; i++ {
		edge("part_of", "v"+itoa(i), pick('c', n['c']))
	}
	return b.MustBuild()
}

// literalOdd builds Definition 6 literally for an odd path p over g: a copy of
// g (node indices kept) with an edge-object type E holding one node per
// instance of p's middle relation, in the engine's instance order, and the
// even path through E.
func literalOdd(t *testing.T, g *hin.Graph, p *metapath.Path) (*hin.Graph, *metapath.Path) {
	t.Helper()
	mid := splitPath(p).middle
	if mid == nil {
		t.Fatalf("%s is not an odd path", p)
	}
	rel := mid.Relation
	s := hin.NewSchema()
	for _, ty := range g.Schema().Types() {
		s.MustAddType(ty.Name, ty.Abbrev)
	}
	s.MustAddType("edge_object", 'E')
	for _, r := range g.Schema().Relations() {
		s.MustAddRelation(r.Name, r.Source, r.Target)
	}
	s.MustAddRelation(rel.Name+"_out", rel.Source, "edge_object")
	s.MustAddRelation(rel.Name+"_in", "edge_object", rel.Target)
	b := hin.NewBuilder(s)
	for _, ty := range g.Schema().Types() {
		for _, id := range g.NodeIDs(ty.Name) {
			b.AddNode(ty.Name, id)
		}
	}
	for _, r := range g.Schema().Relations() {
		w, err := g.Adjacency(r.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range w.Triplets() {
			src, _ := g.NodeID(r.Source, tr.Row)
			dst, _ := g.NodeID(r.Target, tr.Col)
			b.AddWeightedEdge(r.Name, src, dst, tr.Val)
		}
	}
	w, _ := g.Adjacency(rel.Name)
	if mid.Inverse {
		w = w.Transpose()
	}
	for k, tr := range w.Triplets() { // instance k: row-major over the effective adjacency
		x, y := tr.Row, tr.Col
		if mid.Inverse {
			x, y = y, x
		}
		src, _ := g.NodeID(rel.Source, x)
		dst, _ := g.NodeID(rel.Target, y)
		e := "e" + itoa(k)
		b.AddNode("edge_object", e)
		b.AddWeightedEdge(rel.Name+"_out", src, e, math.Sqrt(tr.Val))
		b.AddWeightedEdge(rel.Name+"_in", e, dst, math.Sqrt(tr.Val))
	}
	g2 := b.MustBuild()
	at := len(splitPath(p).leftSteps) + 1 // E goes between the middle step's two types
	spec := p.String()
	if len(spec) != len(p.Steps())+1 {
		t.Fatalf("path %s is not in compact notation", spec)
	}
	return g2, metapath.MustParse(g2.Schema(), spec[:at]+"E"+spec[at:])
}

// oddPathSpecs are odd paths of lengths 1, 3 and 5 over oddGraph: length 1 has
// two empty halves (Fig. 5); CVPA crosses its middle relation backwards.
var oddPathSpecs = []string{"AP", "PV", "APVC", "CVPA", "APTP", "APAPVC"}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }

// TestDifferentialOddPaths holds pair, single-source, top-k (eps 0 and 1e-3),
// all-pairs, subset, batch and why on odd paths to the literal Definition 6
// construction, normalized and raw, to 1e-12.
func TestDifferentialOddPaths(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{7, 19} {
		g := oddGraph(seed)
		for _, spec := range oddPathSpecs {
			p := metapath.MustParse(g.Schema(), spec)
			g2, p2 := literalOdd(t, g, p)
			nS, nT := g.NodeCount(p.Source()), g.NodeCount(p.Target())
			for _, norm := range []bool{true, false} {
				what := func(s string, args ...any) string {
					return fmt.Sprintf("seed %d %s normalized %v: ", seed, spec, norm) + fmt.Sprintf(s, args...)
				}
				e, lit := NewEngine(g, WithNormalization(norm)), NewEngine(g2, WithNormalization(norm))

				all, err := e.AllPairs(ctx, p)
				if err != nil {
					t.Fatal(err)
				}
				allLit, err := lit.AllPairs(ctx, p2)
				if err != nil {
					t.Fatal(err)
				}
				if !all.ApproxEqual(allLit, 1e-12) {
					t.Errorf(what("all-pairs disagrees with the literal construction"))
				}
				nonzero := 0
				for s := 0; s < nS; s++ {
					ss, err := e.SingleSourceByIndex(ctx, p, s)
					if err != nil {
						t.Fatal(err)
					}
					ssLit, err := lit.SingleSourceByIndex(ctx, p2, s)
					if err != nil {
						t.Fatal(err)
					}
					for d := 0; d < nT; d++ {
						pair, err := e.PairByIndex(ctx, p, s, d)
						if err != nil {
							t.Fatal(err)
						}
						if !near(pair, allLit.At(s, d)) || !near(ss[d], ssLit[d]) {
							t.Errorf(what("(%d,%d): pair %v, single-source %v; literal %v, %v", s, d, pair, ss[d], allLit.At(s, d), ssLit[d]))
						}
						if pair != 0 {
							nonzero++
						}
					}
					for _, eps := range []float64{0, 1e-3} {
						got, err := e.TopKSearch(ctx, p, s, nT+1, eps)
						if err != nil {
							t.Fatal(err)
						}
						want, err := lit.TopKSearch(ctx, p2, s, nT+1, eps)
						if err != nil {
							t.Fatal(err)
						}
						if !sameScores(got, want) {
							t.Errorf(what("top-k src %d eps %v: %v, literal %v", s, eps, got, want))
						}
					}
					if s%3 == 0 {
						checkWhy(t, e, lit, p, p2, s, nT, what)
					}
				}
				if nonzero == 0 {
					t.Fatal(what("every score is zero; the comparison proves nothing"))
				}

				srcs, dsts := []int{nS - 1, 0, nS / 2}, []int{nT / 2, nT - 1}
				subLit, err := lit.PairsSubset(ctx, p2, srcs, dsts)
				if err != nil {
					t.Fatal(err)
				}
				for _, kind := range []PlanKind{PlanSubsetChain, PlanAllPairs} {
					sub, _, err := NewEngine(g, WithNormalization(norm)).PairsSubsetWithPlan(ctx, p, srcs, dsts, PlanOptions{Force: kind})
					if err != nil {
						t.Fatal(err)
					}
					if !sub.ApproxEqual(subLit, 1e-12) {
						t.Errorf(what("%s subset disagrees with the literal construction", kind))
					}
				}

				qs := oddBatch(g, p, seed)
				res, _, err := NewEngine(g, WithNormalization(norm)).ExecuteBatch(ctx, qs, BatchOptions{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range qs {
					switch q.Kind {
					case BatchPair:
						if !near(res[i].Score, allLit.At(q.Src, q.Dst)) {
							t.Errorf(what("batch pair (%d,%d): %v, literal %v", q.Src, q.Dst, res[i].Score, allLit.At(q.Src, q.Dst)))
						}
					case BatchTopK:
						want, err := lit.TopKSearch(ctx, p2, q.Src, q.K, q.Eps)
						if err != nil {
							t.Fatal(err)
						}
						if !sameScores(res[i].TopK, want) {
							t.Errorf(what("batch top-k src %d eps %v: %v, literal %v", q.Src, q.Eps, res[i].TopK, want))
						}
					}
				}
			}
		}
	}
}

// sameScores compares two rankings as index → score maps to 1e-12: tied and
// nearly tied hits may swap places between the two constructions.
func sameScores(got, want []Scored) bool {
	if len(got) != len(want) {
		return false
	}
	m := make(map[int]float64, len(want))
	for _, h := range want {
		m[h.Index] = h.Score
	}
	for _, h := range got {
		if w, ok := m[h.Index]; !ok || !near(h.Score, w) {
			return false
		}
	}
	return true
}

// checkWhy compares the odd path's contributions with the literal path's,
// whose meeting objects are the E nodes — instance k on both sides.
func checkWhy(t *testing.T, e, lit *Engine, p, p2 *metapath.Path, s, nT int, what func(string, ...any) string) {
	t.Helper()
	ctx := context.Background()
	for d := 0; d < nT; d++ {
		total, cs, err := e.PairContributions(ctx, p, s, d, 1000, false)
		if err != nil {
			t.Fatal(err)
		}
		totalLit, csLit, err := lit.PairContributions(ctx, p2, s, d, 1000, false)
		if err != nil {
			t.Fatal(err)
		}
		if !near(total, totalLit) || len(cs) != len(csLit) {
			t.Fatalf(what("why (%d,%d): total %v over %d instances, literal %v over %d", s, d, total, len(cs), totalLit, len(csLit)))
		}
		byIndex := make(map[int]float64, len(csLit))
		for _, c := range csLit {
			byIndex[c.MiddleIndex] = c.Value
		}
		for _, c := range cs {
			if v, ok := byIndex[c.MiddleIndex]; !ok || !near(c.Value, v) {
				t.Errorf(what("why (%d,%d) instance %d (%s): %v, literal %v", s, d, c.MiddleIndex, c.Label, c.Value, v))
			}
		}
	}
}

// oddBatch is a mixed batch on one odd path: repeated pairs, single-source
// scans and top-ks at eps 0 and 1e-3, so the group shares chain state.
func oddBatch(g *hin.Graph, p *metapath.Path, seed int64) []BatchQuery {
	rng := rand.New(rand.NewSource(seed))
	nS, nT := g.NodeCount(p.Source()), g.NodeCount(p.Target())
	var qs []BatchQuery
	for i := 0; i < 6; i++ {
		qs = append(qs, BatchQuery{Kind: BatchPair, Path: p, Src: rng.Intn(nS), Dst: rng.Intn(nT)})
	}
	for i := 0; i < 2; i++ {
		qs = append(qs, BatchQuery{Kind: BatchSingleSource, Path: p, Src: rng.Intn(nS)})
	}
	for _, eps := range []float64{0, 1e-3} {
		qs = append(qs, BatchQuery{Kind: BatchTopK, Path: p, Src: rng.Intn(nS), K: nT + 1, Eps: eps})
	}
	return qs
}

// TestDifferentialOddPathsBitIdentity pins the within-build contracts on odd
// paths: rented, bought, transposed and non-caching top-k scans agree bit for
// bit; batch equals solo; forced plans equal the auto plan; a precomputed
// path, which reads its left half carried across the middle relation from the
// cache (metKey), answers what a cold engine carries per query.
func TestDifferentialOddPathsBitIdentity(t *testing.T) {
	ctx := context.Background()
	g := oddGraph(7)
	rented := 0
	for _, opts := range [][]Option{nil, {WithNormalization(false)}} {
		for _, spec := range oddPathSpecs {
			p := metapath.MustParse(g.Schema(), spec)
			nS, nT := g.NodeCount(p.Source()), g.NodeCount(p.Target())
			for s := 0; s < nS; s++ {
				// Rent until bought (a source that reaches no target rents
				// forever: there is nothing to score and nothing to buy).
				e := NewEngine(g, opts...)
				first, err := e.TopKSearch(ctx, p, s, nT+1, 0)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2*nT && !e.chainWarm(e.chainCacheKey(splitPath(p).right())); i++ {
					rented++
					got, err := e.TopKSearch(ctx, p, s, nT+1, 0)
					if err != nil {
						t.Fatal(err)
					}
					if !sameHits(got, first) {
						t.Fatalf("%s src %d: a later rented or bought scan differs", spec, s)
					}
				}
				for pass := 0; pass < 2; pass++ { // transpose built, then cached
					got, err := e.TopKSearch(ctx, p, s, nT+1, 0)
					if err != nil {
						t.Fatal(err)
					}
					if !sameHits(got, first) {
						t.Fatalf("%s src %d pass %d: transposed scan differs from the row scan", spec, s, pass)
					}
				}
				nc, err := NewEngine(g, append(opts, WithCaching(false))...).TopKSearch(ctx, p, s, nT+1, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !sameHits(nc, first) {
					t.Fatalf("%s src %d: non-caching scan differs", spec, s)
				}

				auto := NewEngine(g, opts...)
				for d := 0; d < nT; d++ {
					want, err := auto.PairByIndex(ctx, p, s, d)
					if err != nil {
						t.Fatal(err)
					}
					for _, kind := range []PlanKind{PlanPairVectors, PlanSingleVsMatrix, PlanAllPairs} {
						got, _, err := NewEngine(g, opts...).PairWithPlan(ctx, p, s, d, PlanOptions{Force: kind})
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s (%d,%d): forced %s %v, auto %v", spec, s, d, kind, got, want)
						}
					}
				}
				want, err := auto.SingleSourceByIndex(ctx, p, s)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := NewEngine(g, opts...).singleSourceWithPlan(ctx, p, s, PlanOptions{Force: PlanAllPairs})
				if err != nil {
					t.Fatal(err)
				}
				for d := range want {
					if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
						t.Fatalf("%s src %d target %d: forced all-pairs %v, auto %v", spec, s, d, got[d], want[d])
					}
				}
			}
			assertBatchMatchesSolo(t, NewEngine(g, opts...), NewEngine(g, opts...), oddBatch(g, p, 3), 2)
			checkPrecomputedOdd(t, g, p, opts)
		}
	}
	if rented == 0 {
		t.Error("no odd-path top-k rented; the reachable-rows scan went untested")
	}
}

// checkPrecomputedOdd holds every pair, single-source and top-k of a
// precomputed odd path to a cold engine's, bit for bit.
func checkPrecomputedOdd(t *testing.T, g *hin.Graph, p *metapath.Path, opts []Option) {
	t.Helper()
	ctx := context.Background()
	pre, cold := NewEngine(g, opts...), NewEngine(g, opts...)
	if err := pre.Precompute(ctx, p); err != nil {
		t.Fatal(err)
	}
	h := splitPath(p)
	if _, ok := pre.cacheGet(pre.metKey(h)); !ok && len(h.leftSteps) > 0 {
		t.Fatalf("%s: Precompute left PM_L·M uncached", p)
	}
	nT := g.NodeCount(p.Target())
	for s := 0; s < g.NodeCount(p.Source()); s++ {
		for d := 0; d < nT; d++ {
			got, d1, err := pre.PairWithPlan(ctx, p, s, d, PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := cold.PairWithPlan(ctx, p, s, d, PlanOptions{Force: PlanPairVectors})
			if err != nil {
				t.Fatal(err)
			}
			if (d1.Kind != PlanAllPairs && len(h.leftSteps) > 0) || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s (%d,%d): precomputed %s %v, cold %v", p, s, d, d1.Kind, got, want)
			}
		}
		got, err := pre.SingleSourceByIndex(ctx, p, s)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := cold.singleSourceWithPlan(ctx, p, s, PlanOptions{Force: PlanSingleVsMatrix})
		if err != nil {
			t.Fatal(err)
		}
		if scoresHash(got) != scoresHash(want) {
			t.Fatalf("%s src %d: precomputed single-source differs from the cold one", p, s)
		}
		for _, eps := range []float64{0, 1e-3} {
			got, err := pre.TopKSearch(ctx, p, s, nT+1, eps)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewEngine(g, append(opts, WithCaching(false))...).TopKSearch(ctx, p, s, nT+1, eps)
			if err != nil {
				t.Fatal(err)
			}
			if !sameHits(got, want) {
				t.Fatalf("%s src %d eps %v: precomputed top-k %v, non-caching %v", p, s, eps, got, want)
			}
		}
	}
}

// TestDifferentialOddPathsRewarm writes to every middle relation and holds
// the rewarmed engine to a cold one over the new graph, bit for bit.
func TestDifferentialOddPathsRewarm(t *testing.T) {
	ctx := context.Background()
	g := oddGraph(19)
	old := NewEngine(g)
	for _, spec := range oddPathSpecs {
		p := metapath.MustParse(g.Schema(), spec)
		if err := old.Precompute(ctx, p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // leaves the transposed right chain cached
			if _, err := old.TopKSearch(ctx, p, 0, 3, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	ng, d := applyOps(t, g, []hin.Op{
		{Kind: hin.OpUpsertEdge, Relation: "published_in", Src: "p3", Dst: "v0", Weight: 2},
		{Kind: hin.OpUpsertEdge, Relation: "published_in", Src: "p0", Dst: "v1", Weight: 0.5},
		{Kind: hin.OpUpsertEdge, Relation: "mentions", Src: "p1", Dst: "t0", Weight: 3.25},
		{Kind: hin.OpUpsertEdge, Relation: "writes", Src: "a0", Dst: "p2", Weight: 1},
		{Kind: hin.OpUpsertEdge, Relation: "part_of", Src: "v0", Dst: "c1", Weight: 2},
	})
	warm := NewEngine(ng)
	st, err := warm.RewarmFrom(ctx, old, d)
	if err != nil {
		t.Fatal(err)
	}
	if st.RowPatched == 0 {
		t.Fatalf("nothing row-patched (%s); the write missed every odd-path chain", st)
	}
	// Weighted norms of cached chains come along (an empty half's identity is
	// never cached), recomputed under the rewritten middle relations; the
	// reads below hold them to a cold engine's bits.
	weighted := 0
	for key, byW := range old.norms {
		for wk := range byW {
			if strings.HasPrefix(key, "C:@") {
				continue
			}
			if _, ok := warm.norms[key][wk]; wk != "" && !ok {
				t.Errorf("chain %s: norms weighted by %s not carried", key, wk)
			}
			if wk != "" {
				weighted++
			}
		}
	}
	if weighted == 0 {
		t.Fatal("the old engine held no weighted norms; the carry went untested")
	}
	// PM_L·M products (metKey) are rebuilt from the rewarmed chains under the
	// rewritten middle relations: the bits a precompute over the new graph caches.
	pre := NewEngine(ng)
	for _, spec := range oddPathSpecs {
		if err := pre.Precompute(ctx, metapath.MustParse(ng.Schema(), spec)); err != nil {
			t.Fatal(err)
		}
	}
	mets := 0
	for key := range old.ExportChains() {
		if !strings.HasPrefix(key, "X:") {
			continue
		}
		mets++
		got, ok := warm.cacheGet(key)
		want, _ := pre.cacheGet(key)
		if !ok || want == nil || !got.Equal(want) {
			t.Errorf("%s: rewarmed product differs from a precompute over the new graph", key)
		}
	}
	if mets == 0 {
		t.Fatal("the old engine held no PM_L·M products; their rewarm went untested")
	}
	cold := NewEngine(ng)
	for _, spec := range oddPathSpecs {
		p := metapath.MustParse(ng.Schema(), spec)
		a, err := cold.AllPairs(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := warm.AllPairs(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("%s: rewarmed all-pairs differs from the rematerialized one", spec)
		}
		for s := 0; s < ng.NodeCount(p.Source()); s++ {
			k := ng.NodeCount(p.Target()) + 1
			want, err := NewEngine(ng).TopKSearch(ctx, p, s, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := warm.TopKSearch(ctx, p, s, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !sameHits(got, want) {
				t.Errorf("%s src %d: rewarmed top-k %v, cold %v", spec, s, got, want)
			}
		}
	}
}

// scoresHash folds a score vector's float bits.
func scoresHash(s []float64) uint64 {
	h := fnv.New64a()
	for _, x := range s {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			h.Write([]byte{byte(b >> (8 * i))})
		}
	}
	return h.Sum64()
}

// TestDifferentialOddPathsToy is a hand-computed odd-path fixture in the
// spirit of an odd-length meta-path toy graph. The length-1 path S-M runs over
// R = {s1→m1, s1→m2, s2→m2}, every instance its own meeting object. The
// length-3 path S-M-T-M runs over R1 = {s1→m1, s2→m1, s2→m2} and the middle
// relation R2 = {m1→t (w 4), m2→t (w 1)}, whose instances (m1, t) and (m2, t)
// carry √4 = 2 and √1 = 1, so t splits its walkers 2/3 : 1/3:
//
//	HS(s1, m1 | SM)   = (½·1) / (‖(½, ½)‖·1)        = √½
//	HS(s1, m2 | SM)   = (½·½) / (√½·√½)             = ½
//	HS(s2, m2 | SM)   = (1·½) / (1·√½)              = √½
//	HS(s1, m1 | SMTM) = (1·⅔) / (1·√(4/9 + 1/9))    = 2/√5
//	HS(s2, m1 | SMTM) = (½·⅔ + ½·⅓) / (√½·√5/3)     = 3/√10
//
// and the raw scores are the numerators (½, ¼, ½, ⅔, ½).
func TestDifferentialOddPathsToy(t *testing.T) {
	s := hin.NewSchema()
	s.MustAddType("S", 'S')
	s.MustAddType("M", 'M')
	s.MustAddType("T", 'T')
	s.MustAddRelation("R1", "S", "M")
	s.MustAddRelation("R2", "M", "T")
	b := hin.NewBuilder(s)
	b.AddEdge("R1", "s1", "m1")
	b.AddEdge("R1", "s2", "m1")
	b.AddEdge("R1", "s2", "m2")
	b.AddWeightedEdge("R2", "m1", "t", 4)
	b.AddWeightedEdge("R2", "m2", "t", 1)
	g := b.MustBuild()
	s2 := hin.NewSchema()
	s2.MustAddType("S", 'S')
	s2.MustAddType("M", 'M')
	s2.MustAddRelation("R", "S", "M")
	b2 := hin.NewBuilder(s2)
	b2.AddEdge("R", "s1", "m1")
	b2.AddEdge("R", "s1", "m2")
	b2.AddEdge("R", "s2", "m2")
	g1 := b2.MustBuild()
	for _, c := range []struct {
		g              *hin.Graph
		spec, src, dst string
		norm, raw      float64
	}{
		{g1, "SM", "s1", "m1", math.Sqrt(0.5), 0.5},
		{g1, "SM", "s1", "m2", 0.5, 0.25},
		{g1, "SM", "s2", "m2", math.Sqrt(0.5), 0.5},
		{g1, "SM", "s2", "m1", 0, 0},
		{g, "SMTM", "s1", "m1", 2 / math.Sqrt(5), 2.0 / 3},
		{g, "SMTM", "s2", "m1", 3 / math.Sqrt(10), 0.5},
	} {
		p := metapath.MustParse(c.g.Schema(), c.spec)
		for _, norm := range []bool{true, false} {
			want := c.raw
			if norm {
				want = c.norm
			}
			e := NewEngine(c.g, WithNormalization(norm))
			got, err := e.Pair(context.Background(), p, c.src, c.dst)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-15 {
				t.Errorf("HS(%s, %s | %s) normalized %v = %v, by hand %v", c.src, c.dst, c.spec, norm, got, want)
			}
		}
	}
}

// TestOddPathNormsKeyedByMiddle interleaves ACM paths that share half-chains
// across different middle relations — AFAP and APAP share the right chain
// P→A under middles F→A and P→A; APAF shares APAP's left chain — on one
// engine, and holds every answer to a fresh engine per path, bit for bit. A
// norm cache keyed by chain alone serves one path the other's weights.
func TestOddPathNormsKeyedByMiddle(t *testing.T) {
	ctx := context.Background()
	ds, err := datagen.ACM(datagen.ACMConfig{Papers: 120, Authors: 80, Affiliations: 10, Terms: 30, Subjects: 8, Years: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	specs := []string{"AFAP", "APAP", "APAF"}
	shared := NewEngine(g)
	for round := 0; round < 2; round++ {
		for src := 0; src < 12; src++ {
			for _, spec := range specs {
				p := metapath.MustParse(g.Schema(), spec)
				k := g.NodeCount(p.Target()) + 1
				got, err := shared.TopKSearch(ctx, p, src, k, 0)
				if err != nil {
					t.Fatal(err)
				}
				want, err := NewEngine(g).TopKSearch(ctx, p, src, k, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !sameHits(got, want) {
					t.Fatalf("round %d %s src %d: interleaved top-k differs from a fresh engine's", round, spec, src)
				}
				ss, err := shared.SingleSourceByIndex(ctx, p, src)
				if err != nil {
					t.Fatal(err)
				}
				ssFresh, err := NewEngine(g).SingleSourceByIndex(ctx, p, src)
				if err != nil {
					t.Fatal(err)
				}
				for d := range ss {
					if math.Float64bits(ss[d]) != math.Float64bits(ssFresh[d]) {
						t.Fatalf("round %d %s src %d target %d: interleaved %v, fresh %v", round, spec, src, d, ss[d], ssFresh[d])
					}
				}
			}
		}
	}
	for _, spec := range specs {
		p := metapath.MustParse(g.Schema(), spec)
		got, err := shared.AllPairs(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewEngine(g).AllPairs(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: interleaved all-pairs differs from a fresh engine's", spec)
		}
	}
}
