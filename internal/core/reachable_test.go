package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"testing"

	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/obs"
)

// sparseBibGraph is randomBibGraph's schema over a population large and
// sparse enough that few targets can meet a source — what the reachable-rows
// scan is for — with three authors who wrote nothing and two terms no paper
// mentions: sources with an empty middle distribution, targets with a
// zero-norm chain row.
func sparseBibGraph(seed int64) *hin.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder(bibSchema())
	nA, nV, nC, nT := 50+rng.Intn(30), 6+rng.Intn(4), 2+rng.Intn(2), 25+rng.Intn(10)
	id := func(prefix byte, i int) string { return string(prefix) + itoa(i) }
	for i := 0; i < nA; i++ {
		b.AddNode("author", id('a', i))
	}
	for i := 0; i < nT; i++ {
		b.AddNode("term", id('t', i))
	}
	for i, nP := 0, nA+rng.Intn(nA); i < nP; i++ {
		for k := 0; k < 1+rng.Intn(3); k++ {
			b.AddEdge("writes", id('a', rng.Intn(nA-3)), id('p', i))
		}
		b.AddEdge("published_in", id('p', i), id('v', rng.Intn(nV)))
		for k := 0; k < 1+rng.Intn(2); k++ {
			b.AddEdge("mentions", id('p', i), id('t', rng.Intn(nT-2)))
		}
	}
	for i := 0; i < nV; i++ {
		b.AddEdge("part_of", id('v', i), id('c', rng.Intn(nC)))
	}
	return b.MustBuild()
}

// venueGraph is the shape of ACM's APAFA on randomBibGraph's schema: a
// dozen venues of some 80 papers, and papers with one to three authors who
// write two papers each on average. PAPVP's left half (a paper's co-authored papers) is
// short and its right half-chain PVP (one venue, then every paper in it)
// has long rows; PVPAP is the reverse, a long left against short PAP rows;
// APAPVP is odd, so its rented rows are normed by the middle's weights.
func venueGraph(seed int64) *hin.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder(bibSchema())
	nA, nP, nV := 1000+rng.Intn(100), 1000+rng.Intn(100), 12+rng.Intn(3)
	id := func(prefix byte, i int) string { return string(prefix) + itoa(i) }
	for i := 0; i < nP; i++ {
		for k := 0; k < 1+rng.Intn(3); k++ {
			b.AddEdge("writes", id('a', rng.Intn(nA)), id('p', i))
		}
		b.AddEdge("published_in", id('p', i), id('v', rng.Intn(nV)))
		b.AddEdge("mentions", id('p', i), id('t', rng.Intn(10)))
	}
	for i := 0; i < nV; i++ {
		b.AddEdge("part_of", id('v', i), id('c', rng.Intn(3)))
	}
	return b.MustBuild()
}

// buyAtOnce exhausts the rent of p's right half-chain on e, so the next cold
// top-k materializes it — today's row scan, forced.
func buyAtOnce(e *Engine, p *metapath.Path) {
	e.estMu.Lock()
	e.rented[e.chainCacheKey(splitPath(p).right())] = math.Inf(1)
	e.estMu.Unlock()
}

// TestDifferentialTopKReachableRows holds the reachable-rows scan to the
// scans that read the whole right half-chain — the row scan of a chain
// materialized for the query, a non-caching engine's, and the forced
// all-pairs plan — at tolerance 0: the same target ids and the same score
// bits, on random sparse graphs, even paths of 2 to 8 steps, sources with
// and without papers, eps 0 and 1e-3, normalized and raw engines, a
// k-prefix and a k beyond the candidates; and on venueGraph, where the
// kernel scores long candidate rows against a short left and short rows
// against a long left (each side of the dot looked up in the other), even
// and odd. The engine
// under test keeps its rent from source to source, so scans both rent and
// buy; its solo answers must also be what a batch slot on a fresh engine
// answers (lone slots run the solo plan, shared groups the transposed scan).
func TestDifferentialTopKReachableRows(t *testing.T) {
	ctx := context.Background()
	rentedBefore, rowsBefore := scanReachable.count.Value(), scanRows.count.Value()
	emptyLeft, zeroNorm, longRows, longLeft, oddRented := 0, 0, 0, 0, 0
	for _, seed := range []int64{5, 23, 67} {
		rng := rand.New(rand.NewSource(seed + 300))
		for _, fx := range []struct {
			g     *hin.Graph
			specs []string
		}{
			{sparseBibGraph(seed), []string{"APA", "APT", "PAP", "APAPA", "APVPA", "TPAPT", "APVCVPA", "APAPAPAPA"}},
			{venueGraph(seed), []string{"PAPVP", "PVPAP", "APAPVP"}},
		} {
			g := fx.g
			for _, opts := range [][]Option{nil, {WithNormalization(false)}} {
				for _, spec := range fx.specs {
					p := metapath.MustParse(g.Schema(), spec)
					nS, nT := g.NodeCount(p.Source()), g.NodeCount(p.Target())
					auto := NewEngine(g, opts...)
					plain := NewEngine(g, append([]Option{WithCaching(false)}, opts...)...)
					var batch []BatchQuery
					var solo [][]Scored
					for _, src := range []int{rng.Intn(nS), rng.Intn(nS), nS - 1, rng.Intn(nS)} {
						for _, eps := range []float64{0, 1e-3} {
							for _, k := range []int{3, nT + 1} {
								what := fmt.Sprintf("seed %d %s src %d eps %v k %d normalized %v", seed, spec, src, eps, k, opts == nil)
								tctx, tr := obs.NewTrace(ctx)
								got, err := auto.TopKSearch(tctx, p, src, k, eps)
								if err != nil {
									t.Fatal(err)
								}
								rows, entries := scoredRows(tr)
								if rows > 0 && p.Len()%2 == 1 {
									oddRented++ // normed by the middle relation's weights
								}
								if rows > 0 && eps == 0 && p.Len()%2 == 0 {
									left, err := auto.opVectorChain(ctx, src, splitPath(p).left())
									if err != nil {
										t.Fatal(err)
									}
									switch mean, l := entries/rows, left.NNZ(); { // DotEntries' lookups, on the mean row
									case l*bits.Len(uint(mean)) < mean:
										longRows++
									case mean*bits.Len(uint(l)) < l:
										longLeft++
									}
								}
								forced := NewEngine(g, opts...)
								buyAtOnce(forced, p)
								for name, ref := range map[string]*Engine{"materialized row scan": forced, "non-caching engine": plain} {
									want, err := ref.TopKSearch(ctx, p, src, k, eps)
									if err != nil {
										t.Fatal(err)
									}
									if !sameHits(got, want) {
										t.Fatalf("%s: %v, %s %v", what, got, name, want)
									}
								}
								want, _, err := NewEngine(g, opts...).TopKSearchWithPlan(ctx, p, src, k, eps, PlanOptions{Force: PlanAllPairs})
								if err != nil {
									t.Fatal(err)
								}
								if !sameHits(got, want) {
									t.Fatalf("%s: %v, forced all-pairs %v", what, got, want)
								}
								if !forced.chainWarm(forced.chainCacheKey(splitPath(p).right())) {
									t.Fatalf("%s: an exhausted rent did not buy the chain", what)
								}
								if len(got) == 0 {
									emptyLeft++
								}
								if k > nT && len(got) < nT && len(got) > 0 && spec == "APT" {
									zeroNorm++ // the unmentioned terms are among the targets left out
								}
								batch = append(batch, BatchQuery{Kind: BatchTopK, Path: p, Src: src, K: k, Eps: eps})
								solo = append(solo, got)
							}
						}
					}
					for _, queries := range [][]BatchQuery{batch, batch[:1]} { // a shared group, then a lone slot
						res, _, err := NewEngine(g, opts...).ExecuteBatch(ctx, queries, BatchOptions{})
						if err != nil {
							t.Fatal(err)
						}
						for i, r := range res {
							if r.Err != nil || !sameHits(r.TopK, solo[i]) {
								t.Fatalf("seed %d %s batch of %d slot %d (%s): %v %v, solo %v", seed, spec, len(queries), i, r.Plan, r.TopK, r.Err, solo[i])
							}
						}
					}
				}
			}
		}
	}
	rented, rows := scanReachable.count.Value()-rentedBefore, scanRows.count.Value()-rowsBefore
	t.Logf("%d reachable-rows scans (%d on odd paths), %d row scans, %d empty rankings, %d rankings around zero-norm targets, %d scored long rows against a shorter left, %d short rows against a longer left",
		rented, oddRented, rows, emptyLeft, zeroNorm, longRows, longLeft)
	if rented < 100 || rows < 100 || emptyLeft == 0 || zeroNorm == 0 || longRows < 10 || longLeft < 10 || oddRented == 0 {
		t.Fatalf("fixture too thin: %d reachable-rows scans (%d odd), %d row scans, %d sources with no middle support, %d rankings around zero-norm targets, %d long-row and %d long-left scored scans",
			rented, oddRented, rows, emptyLeft, zeroNorm, longRows, longLeft)
	}
}

// scoredRows reads a traced top-k's kernel score span: the candidate rows
// it scored and their entries (0, 0 if it rented nothing).
func scoredRows(tr *obs.Trace) (rows, entries int) {
	for _, sp := range tr.Report(0).Spans {
		if sp.Name == "chain_multiply" && sp.Attrs["kind"] == "score" {
			rows, _ = strconv.Atoi(sp.Attrs["rows"])
			entries, _ = strconv.Atoi(sp.Attrs["entries"])
		}
	}
	return rows, entries
}

// TestDifferentialTopKRentOrBuy pins the rent-or-buy rule with the kernel's flop
// counter. On a ring every APAPA top-k can meet five targets of n, so scans
// rent; n repeated top-ks must materialize the right half-chain exactly once,
// the rent never exceed the chain's cold-flops estimate — total multiply work
// stays within twice that estimate plus one scan — and be forgotten once the
// chain is bought. A top-k that can meet at least half the targets buys at
// once, and a new generation starts every rent at zero.
func TestDifferentialTopKRentOrBuy(t *testing.T) {
	ctx := context.Background()
	mulFlops := obs.Default().Counter("hetesim_sparse_mul_flops_total", "")
	const n = 400
	g := ringGraph(n)
	p := metapath.MustParse(g.Schema(), "APAPA")
	right := splitPath(p).right()
	e := NewEngine(g)
	key := e.chainCacheKey(right)
	est, err := e.estimateChainCached(right, nil)
	if err != nil {
		t.Fatal(err)
	}
	rent := func(e *Engine) float64 {
		e.estMu.Lock()
		defer e.estMu.Unlock()
		return e.rented[key]
	}
	chainFlops := uint64(4 * n) // one SpGEMM: n rows of two papers with two authors each
	start, rents, buys, oneScan := mulFlops.Value(), 0, 0, uint64(0)
	for i := 0; i < n; i++ {
		before := mulFlops.Value()
		hits, err := e.TopKSearch(ctx, p, i, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != 5 {
			t.Fatalf("source %d: %d hits, want the five authors within two papers", i, len(hits))
		}
		switch spent := mulFlops.Value() - before; {
		case spent >= chainFlops:
			buys++
			if rent(e) != 0 {
				t.Fatalf("query %d bought the chain and kept a rent of %v", i, rent(e))
			}
		case spent > 0:
			rents++
			oneScan = spent
		}
		if r := rent(e); r > est.Flops {
			t.Fatalf("query %d: rent %v exceeds the chain's cold-flops estimate %v", i, r, est.Flops)
		}
	}
	if buys != 1 || rents < n/10 {
		t.Fatalf("%d top-ks: %d materializations and %d rented scans, want exactly one buy after a long lease", n, buys, rents)
	}
	if total := mulFlops.Value() - start; float64(total) > 2*est.Flops+float64(oneScan) {
		t.Fatalf("%d multiply flops for %d top-ks, above twice the cold estimate %v plus one scan (%d)", total, n, est.Flops, oneScan)
	}
	if !e.chainWarm(key) || !e.chainWarm("T:"+key) {
		t.Fatal("a hot path did not end up with its chain and transpose cached")
	}

	// Half the targets or more: cheaper to own than to rent, from the first query.
	small := ringGraph(8)
	se := NewEngine(small)
	if _, err := se.TopKSearch(ctx, metapath.MustParse(small.Schema(), "APAPA"), 0, 3, 0); err != nil {
		t.Fatal(err)
	}
	if !se.chainWarm(key) {
		t.Fatal("a top-k meeting five of eight targets rented instead of materializing")
	}

	// A new generation: RewarmFrom carries chains, never rents.
	old := NewEngine(g)
	if _, err := old.TopKSearch(ctx, p, 0, 3, 0); err != nil {
		t.Fatal(err)
	}
	first := rent(old)
	if first <= 0 || old.chainWarm(key) {
		t.Fatalf("first top-k on the ring: rent %v, chain cached %v; want a rented scan", first, old.chainWarm(key))
	}
	ng, dirty, err := g.Apply([]hin.Op{{Kind: hin.OpUpsertEdge, Relation: "writes", Src: "a0", Dst: "p7", Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	next := NewEngine(ng)
	if _, err := next.RewarmFrom(ctx, old, dirty); err != nil {
		t.Fatal(err)
	}
	if r := rent(next); r != 0 {
		t.Fatalf("rewarmed generation starts with a rent of %v", r)
	}
	fresh := NewEngine(ng)
	for _, e := range []*Engine{next, fresh} {
		if _, err := e.TopKSearch(ctx, p, n/2, 3, 0); err != nil {
			t.Fatal(err)
		}
	}
	if r := rent(next); r <= 0 || r != rent(fresh) {
		t.Fatalf("first scan of the new generation left a rent of %v, a fresh engine's %v: not one scan from zero", r, rent(fresh))
	}
}
