package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hetesim/internal/metapath"
)

// Differential tests: independent implementations of the same quantity
// must agree. TopKSearch's candidate-restricted pruned scan is checked
// against a brute-force ranking of the full SingleSourceByIndex vector,
// and the Monte Carlo estimator against exact propagation.

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

// TestDifferentialMonteCarloPair checks that the sampled-walk estimator of
// Section 4.6 converges to the exact propagated score on pairs with
// non-trivial relevance, under fixed seeds so the test is deterministic.
func TestDifferentialMonteCarloPair(t *testing.T) {
	ctx := context.Background()
	g := randomBibGraph(61)
	e := NewEngine(g)
	for _, spec := range []string{"APVC", "APA"} {
		p := metapath.MustParse(g.Schema(), spec)
		nS, nT := g.NodeCount(p.Source()), g.NodeCount(p.Target())
		checked := 0
		for src := 0; src < nS && checked < 2; src++ {
			for dst := 0; dst < nT && checked < 2; dst++ {
				exact, err := e.PairByIndex(ctx, p, src, dst)
				if err != nil {
					t.Fatal(err)
				}
				if exact < 0.05 {
					continue
				}
				mc, err := e.PairMonteCarlo(ctx, p, src, dst, 80000, 11)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(mc.Score-exact) > 0.1 {
					t.Errorf("%s MC(%d,%d) = %v, exact %v", spec, src, dst, mc.Score, exact)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no pairs with non-trivial scores found", spec)
		}
	}
}

// TestDifferentialTopKScanChoice pins the three-way scan choice of topKFrom:
// on a fresh engine the first top-k scores the chain it just materialized
// row by row and caches no transpose; the second finds that chain cached,
// builds "T:" and scans it; the third scans the cached "T:". All three, the
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
	hasT := func(e *Engine) bool {
		for key := range e.ExportChains() {
			if strings.HasPrefix(key, "T:") {
				return true
			}
		}
		return false
	}
	sawTie := false
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
					first, err := e.TopKSearch(ctx, p, src, all, eps)
					if err != nil {
						t.Fatal(err)
					}
					if hasT(e) {
						t.Fatal(what("a cold top-k cached a transposed chain"))
					}
					second, err := e.TopKSearch(ctx, p, src, all, eps)
					if err != nil {
						t.Fatal(err)
					}
					if !hasT(e) {
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
}
