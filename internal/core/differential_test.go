package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"hetesim/internal/hin"
	"hetesim/internal/metapath"
)

// Differential tests: independent implementations of the same quantity
// must agree. TopKSearch's candidate-restricted pruned scan is checked
// against a brute-force ranking of the full SingleSourceByIndex vector.

// bruteForceRanking sorts the nonzero entries of a single-source score
// vector exactly the way TopKSearch ranks: descending score, ties by
// ascending index.
func bruteForceRanking(scores []float64) []Scored {
	var out []Scored
	for i, s := range scores {
		if s != 0 {
			out = append(out, Scored{Index: i, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// TestDifferentialTopKBruteForce checks the pruned top-k search against
// brute force. At eps = 0 the two must agree bitwise — same candidates,
// same order, same scores; at small eps the pruning may drop negligible
// middle mass, so scores agree to a tolerance.
func TestDifferentialTopKBruteForce(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{13, 47} {
		g := randomBibGraph(seed)
		rng := rand.New(rand.NewSource(seed + 500))
		for _, engine := range []*Engine{NewEngine(g), NewEngine(g, WithNormalization(false))} {
			for _, spec := range []string{"APA", "APVC", "APT"} {
				p := metapath.MustParse(g.Schema(), spec)
				nS := g.NodeCount(p.Source())
				for trial := 0; trial < 3; trial++ {
					src := rng.Intn(nS)
					scores, err := engine.SingleSourceByIndex(ctx, p, src)
					if err != nil {
						t.Fatal(err)
					}
					want := bruteForceRanking(scores)

					// eps = 0: exact — bitwise identical ranking.
					got, err := engine.TopKSearch(ctx, p, src, len(scores)+1, 0)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("seed %d %s src %d: topk returned %d results, brute force %d",
							seed, spec, src, len(got), len(want))
					}
					for r := range got {
						if got[r] != want[r] {
							t.Fatalf("seed %d %s src %d rank %d: topk %+v, brute force %+v",
								seed, spec, src, r, got[r], want[r])
						}
					}

					// Truncation only truncates: the k-prefix is unchanged.
					short, err := engine.TopKSearch(ctx, p, src, 3, 0)
					if err != nil {
						t.Fatal(err)
					}
					for r := range short {
						if short[r] != want[r] {
							t.Fatalf("seed %d %s src %d: k=3 prefix differs at rank %d", seed, spec, src, r)
						}
					}

					// eps > 0: every surviving score stays close to the
					// exact one and no phantom targets appear.
					for _, eps := range []float64{1e-12, 1e-3} {
						pruned, err := engine.TopKSearch(ctx, p, src, len(scores)+1, eps)
						if err != nil {
							t.Fatal(err)
						}
						for _, hit := range pruned {
							exact := scores[hit.Index]
							if exact == 0 {
								t.Fatalf("seed %d %s src %d eps %v: phantom target %d", seed, spec, src, eps, hit.Index)
							}
							if math.Abs(hit.Score-exact) > 10*eps+1e-12 {
								t.Errorf("seed %d %s src %d eps %v: target %d scored %v, exact %v",
									seed, spec, src, eps, hit.Index, hit.Score, exact)
							}
						}
					}
				}
			}
		}
	}
}

// rentUntilBought runs search on e, and repeats it until the right half-chain
// of p is cached — the buy of the rent-or-buy rule, which a path most of
// whose targets are reachable and an exhausted rent both reach; an empty
// half (a length-1 path) is always at hand — and returns how many searches
// rented first. A search that buys scores the rows of the chain it
// materialized; none of them may leave a "T:" entry.
func rentUntilBought(t *testing.T, e *Engine, p *metapath.Path, search func()) (rents int) {
	t.Helper()
	right := splitPath(p).right()
	for limit := e.g.NodeCount(p.Target()) + 1; rents == 0 || !e.chainWarm(e.chainCacheKey(right)); rents++ {
		if rents > limit {
			t.Fatalf("%s: %d top-k searches and the right half-chain is still rented", p, rents)
		}
		search()
		for key := range e.ExportChains() {
			if strings.HasPrefix(key, "T:") {
				t.Fatalf("%s: a top-k on a cold chain cached a transposed chain", p)
			}
		}
	}
	return rents - 1
}

// TestDifferentialTopKScanChoice pins the four-way scan choice of topKFrom:
// on a fresh engine the first top-ks rent the reachable targets' rows and
// cache nothing, until one buys — scores the chain it just materialized row
// by row and caches no transpose; the next finds that chain cached, builds
// "T:" and scans it; the one after scans the cached "T:". All of them, the
// brute-force ranking of SingleSource and the forced all-pairs plan (cold and
// warm) must agree on ids and float bits — over even and odd paths, eps 0 and
// eps > 0, normalized and raw engines, whole rankings and k-prefixes, with
// tied scores among the hits.
func TestDifferentialTopKScanChoice(t *testing.T) {
	ctx := context.Background()
	same := func(what string, got, want []Scored) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d hits, want %d", what, len(got), len(want))
		}
		for r := range got {
			if got[r].Index != want[r].Index || math.Float64bits(got[r].Score) != math.Float64bits(want[r].Score) {
				t.Fatalf("%s rank %d: %+v, want %+v", what, r, got[r], want[r])
			}
		}
	}
	sawTie, rented := false, 0
	for _, seed := range []int64{3, 29, 71} {
		g := randomBibGraph(seed)
		rng := rand.New(rand.NewSource(seed + 900))
		for _, opts := range [][]Option{nil, {WithNormalization(false)}} {
			for _, spec := range []string{"APA", "APT", "APVC", "APTPA", "APVCVPA", "AP"} {
				p := metapath.MustParse(g.Schema(), spec)
				src := rng.Intn(g.NodeCount(p.Source()))
				all := g.NodeCount(p.Target()) + 1
				for _, eps := range []float64{0, 1e-3, 0.2} {
					what := func(s string) string {
						return fmt.Sprintf("seed %d %s src %d eps %v normalized %v: %s", seed, spec, src, eps, opts == nil, s)
					}
					e := NewEngine(g, opts...)
					var first []Scored
					rented += rentUntilBought(t, e, p, func() {
						got, err := e.TopKSearch(ctx, p, src, all, eps)
						if err != nil {
							t.Fatal(err)
						}
						if first == nil {
							first = got
						}
						same(what("a later rented or bought scan vs the first"), got, first)
					})
					second, err := e.TopKSearch(ctx, p, src, all, eps)
					if err != nil {
						t.Fatal(err)
					}
					if !e.chainWarm("T:" + e.chainCacheKey(splitPath(p).right())) {
						t.Fatal(what("a top-k on a cached chain did not cache its transpose"))
					}
					third, err := e.TopKSearch(ctx, p, src, all, eps)
					if err != nil {
						t.Fatal(err)
					}
					same(what("transposed scan vs row scan"), second, first)
					same(what("cached-transpose scan vs row scan"), third, first)
					for r := 1; r < len(first); r++ {
						sawTie = sawTie || first[r].Score == first[r-1].Score
					}

					prefix, err := NewEngine(g, opts...).TopKSearch(ctx, p, src, 3, eps)
					if err != nil {
						t.Fatal(err)
					}
					same(what("row-scan k=3 prefix"), prefix, first[:min(3, len(first))])

					ap := NewEngine(g, opts...)
					for _, state := range []string{"cold", "warm"} {
						forced, _, err := ap.TopKSearchWithPlan(ctx, p, src, all, eps, PlanOptions{Force: PlanAllPairs})
						if err != nil {
							t.Fatal(err)
						}
						same(what(state+" forced all-pairs vs row scan"), forced, first)
					}
					if eps == 0 {
						scores, err := NewEngine(g, opts...).SingleSourceByIndex(ctx, p, src)
						if err != nil {
							t.Fatal(err)
						}
						same(what("rankScores(SingleSource) vs row scan"), rankScores(scores, all), first)
					}
				}
			}
		}
	}
	if !sawTie {
		t.Error("no tied scores among the compared hits; the tie-break order went untested")
	}
	if rented == 0 {
		t.Error("no top-k rented before it bought; the reachable-rows scan went untested")
	}
}

// TestDifferentialTopKPooledScanConcurrent runs the warm transposed scan —
// whose accumulator, marks and candidate list are pooled kernel scratch,
// nothing cleared between queries — from 8 goroutines on one engine, over
// paths whose target types differ in size (so a scratch taken from the pool
// is wider than, narrower than or exactly what the query needs), and holds
// every answer to the serial one: ids and float bits.
func TestDifferentialTopKPooledScanConcurrent(t *testing.T) {
	ctx := context.Background()
	g := randomBibGraph(83)
	for _, opts := range [][]Option{nil, {WithNormalization(false)}} {
		e := NewEngine(g, opts...)
		type query struct {
			p      *metapath.Path
			src, k int
		}
		var queries []query
		var want [][]Scored
		widths := map[int]bool{}
		for _, spec := range []string{"APA", "APT", "APVC", "APTPA", "APVCVPA", "CVPA", "APVP", "APV"} {
			p := metapath.MustParse(g.Schema(), spec)
			widths[g.NodeCount(p.Target())] = true
			for src := 0; src < g.NodeCount(p.Source()); src++ {
				for _, k := range []int{1, 3, g.NodeCount(p.Target()) + 1} {
					var serial []Scored
					for pass := 0; pass < 3; pass++ { // rented or row scan, then (once bought) transpose built, transpose cached
						got, err := e.TopKSearch(ctx, p, src, k, 0)
						if err != nil {
							t.Fatal(err)
						}
						if pass > 0 && !sameHits(got, serial) {
							t.Fatalf("%s src %d k %d pass %d: %v, first pass %v", spec, src, k, pass, got, serial)
						}
						serial = got
					}
					queries = append(queries, query{p, src, k})
					want = append(want, serial)
				}
			}
		}
		if len(widths) < 3 {
			t.Fatalf("only %d distinct target counts; the scratch would never be regrown", len(widths))
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for round := 0; round < 3; round++ {
					for _, i := range rng.Perm(len(queries)) {
						q := queries[i]
						got, err := e.TopKSearch(ctx, q.p, q.src, q.k, 0)
						if err != nil {
							t.Error(err)
							return
						}
						if !sameHits(got, want[i]) {
							t.Errorf("worker %d: %s src %d k %d = %v, serial %v", w, q.p, q.src, q.k, got, want[i])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

func sameHits(a, b []Scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// ringGraph is n authors and n papers, author i writing papers i and i+1:
// every author has two co-authors whatever n is, so the work of an APA top-k
// is constant and anything that grows with n is the scan's bookkeeping.
func ringGraph(n int) *hin.Graph {
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddRelation("writes", "author", "paper")
	b := hin.NewBuilder(s)
	for i := 0; i < n; i++ {
		b.AddEdge("writes", "a"+itoa(i), "p"+itoa(i))
		b.AddEdge("writes", "a"+itoa(i), "p"+itoa((i+1)%n))
	}
	return b.MustBuild()
}

// TestDifferentialTopKWarmAllocsIndependentOfTargets pins what a warm top-k
// allocates: a small constant number of small objects, the same for 500
// targets and for 50 000 — no dense accumulator, mark array or row copy of
// the target population's size (the parent allocated ~28 bytes a target).
func TestDifferentialTopKWarmAllocsIndependentOfTargets(t *testing.T) {
	ctx := context.Background()
	measure := func(n int) (allocs float64, bytes uint64, hits []Scored) {
		g := ringGraph(n)
		e := NewEngine(g)
		p := metapath.MustParse(g.Schema(), "APA")
		search := func() {
			var err error
			if hits, err = e.TopKSearch(ctx, p, n/2, 10, 0); err != nil {
				t.Fatal(err)
			}
		}
		rents := rentUntilBought(t, e, p, search) // three candidates of n: a long lease
		if rents < n/4 {
			t.Fatalf("ring of %d: bought after %d rented scans, want a rent near n/3", n, rents)
		}
		for i := 0; i < 2; i++ { // transpose, then warm
			search()
		}
		// The minimum over trials is the steady state: a GC cycle empties the
		// scratch pool now and then, and the race detector makes sync.Pool
		// drop a quarter of its Puts.
		allocs, bytes = math.Inf(1), math.MaxUint64
		for trial := 0; trial < 30; trial++ {
			allocs = min(allocs, testing.AllocsPerRun(1, search))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			search()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return allocs, bytes, hits
	}
	smallAllocs, smallBytes, smallHits := measure(500)
	bigAllocs, bigBytes, bigHits := measure(50000)
	if len(smallHits) != 3 || len(bigHits) != 3 || smallHits[0].Index != 250 || bigHits[0].Index != 25000 {
		t.Fatalf("ring APA top-k: %v and %v, want self plus two co-authors", smallHits, bigHits)
	}
	if bigAllocs != smallAllocs || bigAllocs > 64 {
		t.Errorf("warm top-k allocs/op: %v at 500 targets, %v at 50000; want equal and small", smallAllocs, bigAllocs)
	}
	if bigBytes > smallBytes+1024 || bigBytes > 8*1024 {
		t.Errorf("warm top-k bytes/op: %d at 500 targets, %d at 50000; want equal and small", smallBytes, bigBytes)
	}
	t.Logf("warm top-k: %v allocs, %d B/op at 500 targets; %v allocs, %d B/op at 50000", smallAllocs, smallBytes, bigAllocs, bigBytes)
}
