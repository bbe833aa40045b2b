// Package hetesim's top-level benchmark harness: one benchmark per table
// and figure of the paper's evaluation section (regenerating the same
// rows/series via the internal/exp drivers), the Section 4.6 complexity
// comparison against SimRank, and ablation benches for the design choices
// DESIGN.md calls out (path cache, query plans, pruning, literal edge
// objects). Run with:
//
//	go test -bench=. -benchmem
package hetesim

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"hetesim/internal/baseline"
	"hetesim/internal/core"
	"hetesim/internal/datagen"
	"hetesim/internal/exp"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/relevance"
	"hetesim/internal/snapshot"
)

// benchCtx shares one experiment context (and thus one pair of generated
// datasets) across all paper-table benchmarks.
var benchCtx = sync.OnceValue(func() *exp.Context {
	return exp.NewContext(benchConfig())
})

// benchConfig scales the benchmark datasets so the full suite runs in
// seconds while preserving the planted structure; use cmd/experiments
// -scale full for the paper-scale run recorded in EXPERIMENTS.md.
func benchConfig() exp.Config {
	cfg := exp.SmallConfig()
	cfg.ACM = datagen.ACMConfig{
		Papers: 3000, Authors: 3000, Affiliations: 300,
		Terms: 500, Subjects: 40, Years: 8, Seed: 1,
	}
	cfg.DBLP = datagen.DBLPConfig{
		Papers: 2000, Authors: 2000, Terms: 800,
		LabeledAuthors: 500, LabeledPapers: 100, Seed: 1,
	}
	cfg.TopAuthors = 200
	cfg.ClusterRuns = 2
	cfg.ClusterAuthors = 300
	return cfg
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	ctx := benchCtx()
	// Generate datasets and warm caches outside the timed region.
	if _, err := exp.Run(ctx, id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1AuthorProfile(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkTable2ConfProfile(b *testing.B)         { benchExperiment(b, "table2") }
func BenchmarkTable3SymmetryStudy(b *testing.B)       { benchExperiment(b, "table3") }
func BenchmarkTable4RelatedAuthors(b *testing.B)      { benchExperiment(b, "table4") }
func BenchmarkTable5QueryAUC(b *testing.B)            { benchExperiment(b, "table5") }
func BenchmarkTable6ClusteringNMI(b *testing.B)       { benchExperiment(b, "table6") }
func BenchmarkTable7PathSemantics(b *testing.B)       { benchExperiment(b, "table7") }
func BenchmarkFig6RankDifference(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7ReachableDistribution(b *testing.B) { benchExperiment(b, "fig7") }

// complexityGraph builds a small two-type network with n nodes per type for
// the HeteSim-vs-SimRank comparison: SimRank's whole-network state is
// (T·n)², HeteSim's is n² along one path (Section 4.6).
func complexityGraph(n int) *datagen.Dataset {
	ds, err := datagen.DBLP(datagen.DBLPConfig{
		Papers: n, Authors: n, Terms: n / 2,
		LabeledAuthors: 0, LabeledPapers: 0, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	return ds
}

// BenchmarkComplexityHeteSimVsSimRank regenerates the Section 4.6
// complexity comparison: HeteSim's single-path relevance matrix versus
// whole-network SimRank at matched sizes.
func BenchmarkComplexityHeteSimVsSimRank(b *testing.B) {
	for _, n := range []int{100, 200, 400} {
		ds := complexityGraph(n)
		g := ds.Graph
		p := metapath.MustParse(g.Schema(), "APCPA")
		b.Run(fmt.Sprintf("HeteSim/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := core.NewEngine(g) // cold engine: full computation
				if _, err := e.AllPairs(context.Background(), p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("SimRank/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.SimRankHIN(g, 0.8, 5)
			}
		})
	}
}

// BenchmarkAblationPathCache measures the Section 4.6 materialization
// speedup: single-source queries against cold and warmed path caches.
func BenchmarkAblationPathCache(b *testing.B) {
	ds := complexityGraph(1500)
	g := ds.Graph
	p := metapath.MustParse(g.Schema(), "APCPA")
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := core.NewEngine(g)
			if _, err := e.SingleSourceByIndex(context.Background(), p, i%g.NodeCount("author")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		e := core.NewEngine(g)
		if err := e.Precompute(context.Background(), p); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.SingleSourceByIndex(context.Background(), p, i%g.NodeCount("author")); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationQueryPlans compares the three query plans for the same
// quantity: pair (two sparse vector chains), single-source (vector against
// a materialized half), and all-pairs (full relevance matrix).
func BenchmarkAblationQueryPlans(b *testing.B) {
	ds := complexityGraph(1000)
	g := ds.Graph
	p := metapath.MustParse(g.Schema(), "APCPA")
	e := core.NewEngine(g)
	if err := e.Precompute(context.Background(), p); err != nil {
		b.Fatal(err)
	}
	n := g.NodeCount("author")
	b.Run("pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.PairByIndex(context.Background(), p, i%n, (i*7)%n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single-source", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.SingleSourceByIndex(context.Background(), p, i%n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("all-pairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.AllPairs(context.Background(), p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPruning measures the Section 4.6 truncation speedup:
// exact versus pruned reachable probability chains, built per query the way
// the abl-pruning study builds them (exp.PrunedSingleSource).
func BenchmarkAblationPruning(b *testing.B) {
	ds := complexityGraph(2000)
	g := ds.Graph
	p := metapath.MustParse(g.Schema(), "APCPAPCPA") // long chain: pruning matters
	for _, eps := range []float64{0, 1e-4} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.PrunedSingleSource(g, p, i%g.NodeCount("author"), eps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNormalization measures the cost of the cosine
// normalization (Definition 10) on top of the raw meeting probability.
func BenchmarkAblationNormalization(b *testing.B) {
	ds := complexityGraph(1500)
	g := ds.Graph
	p := metapath.MustParse(g.Schema(), "CPAPC")
	for _, normalized := range []bool{true, false} {
		name := "normalized"
		if !normalized {
			name = "raw"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := core.NewEngine(g, core.WithNormalization(normalized))
				if _, err := e.AllPairs(context.Background(), p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// edgeObjectGraph builds Definition 6 literally for the odd path spec over g:
// a copy of g (node indices kept) with an edge-object type E holding one node
// per instance of the path's middle relation, joined to the instance's source
// and target with weight √w each, and the even path through E.
func edgeObjectGraph(g *hin.Graph, spec string) (*hin.Graph, *metapath.Path) {
	mid := metapath.MustParse(g.Schema(), spec).Decompose().Middle
	rel := mid.Relation
	s := hin.NewSchema()
	for _, ty := range g.Schema().Types() {
		s.MustAddType(ty.Name, ty.Abbrev)
	}
	s.MustAddType("edge_object", 'E')
	for _, r := range g.Schema().Relations() {
		s.MustAddRelation(r.Name, r.Source, r.Target)
	}
	s.MustAddRelation("to_edge", mid.From(), "edge_object")
	s.MustAddRelation("from_edge", "edge_object", mid.To())
	b := hin.NewBuilder(s)
	for _, ty := range g.Schema().Types() {
		for _, id := range g.NodeIDs(ty.Name) {
			b.AddNode(ty.Name, id)
		}
	}
	for _, r := range g.Schema().Relations() {
		w, err := g.Adjacency(r.Name)
		if err != nil {
			panic(err)
		}
		for k, t := range w.Triplets() {
			src, _ := g.NodeID(r.Source, t.Row)
			dst, _ := g.NodeID(r.Target, t.Col)
			b.AddWeightedEdge(r.Name, src, dst, t.Val)
			if r.Name == rel.Name {
				if mid.Inverse {
					src, dst = dst, src
				}
				e := fmt.Sprintf("e%d", k)
				b.AddWeightedEdge("to_edge", src, e, math.Sqrt(t.Val))
				b.AddWeightedEdge("from_edge", e, dst, math.Sqrt(t.Val))
			}
		}
	}
	at := len(spec) / 2 // E goes between the middle step's two types
	g2 := b.MustBuild()
	return g2, metapath.MustParse(g2.Schema(), spec[:at]+"E"+spec[at:])
}

// BenchmarkAblationOddPathEdgeObjects measures what eliminating the edge-object
// type of Definition 6 saves: the odd path CPAP's cold all-pairs, meeting on
// the middle relation (paper → author) through one SpGEMM, against the literal
// augmented graph's even path CPEAP, whose halves are conference × instance
// and paper × instance matrices.
func BenchmarkAblationOddPathEdgeObjects(b *testing.B) {
	g := complexityGraph(1500).Graph
	g2, p2 := edgeObjectGraph(g, "CPAP")
	for _, tc := range []struct {
		name string
		g    *hin.Graph
		p    *metapath.Path
	}{
		{"collapsed-CPAP", g, metapath.MustParse(g.Schema(), "CPAP")},
		{"literal-CPEAP", g2, p2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := core.NewEngine(tc.g)
				if _, err := e.AllPairs(context.Background(), tc.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMonteCarlo compares an exact cold pair query against the
// Section 4.6 Monte Carlo approximation (exp.PairSampler, transitions resolved
// once per path, as the engine kept them cached) at fixed sample counts.
func BenchmarkAblationMonteCarlo(b *testing.B) {
	ds := complexityGraph(2000)
	g := ds.Graph
	p := metapath.MustParse(g.Schema(), "APCPA")
	b.Run("exact-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := core.NewEngine(g, core.WithCaching(false))
			if _, err := e.PairByIndex(context.Background(), p, i%g.NodeCount("author"), (i*13)%g.NodeCount("author")); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, walks := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("montecarlo-%d", walks), func(b *testing.B) {
			s, err := exp.NewPairSampler(g, p)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := s.Estimate(i%g.NodeCount("author"), (i*13)%g.NodeCount("author"), walks, int64(i), false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTopKSearch compares the full single-source scan against
// the candidate-restricted pruned top-k search.
func BenchmarkAblationTopKSearch(b *testing.B) {
	ds := complexityGraph(2000)
	g := ds.Graph
	// APA meets at the large paper type: each author's middle support is
	// tiny, so candidate restriction skips almost every target — the
	// pruned search's winning case.
	p := metapath.MustParse(g.Schema(), "APA")
	e := core.NewEngine(g)
	if err := e.Precompute(context.Background(), p); err != nil {
		b.Fatal(err)
	}
	if _, err := e.TopKSearch(context.Background(), p, 0, 10, 0); err != nil { // warm transpose cache
		b.Fatal(err)
	}
	n := g.NodeCount("author")
	b.Run("single-source-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.SingleSourceByIndex(context.Background(), p, i%n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("topk-pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.TopKSearch(context.Background(), p, i%n, 10, 1e-3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTopKDenseScan times the exact warm top-k scan at its worst case:
// 100k target authors related through only 20 conferences, so the
// candidate-restricted transposed scan still touches nearly every author
// (dense conference-mediated overlap). It is the exact arm of the fixture
// the deleted low-rank topk-approx plan was accepted on and then lost on
// (EXPERIMENTS.md, "Approximate top-k sweep").
func BenchmarkTopKDenseScan(b *testing.B) {
	ds := complexityGraph(100000)
	g := ds.Graph
	p := metapath.MustParse(g.Schema(), "APCPA")
	ctx := context.Background()
	e := core.NewEngine(g)
	if err := e.Precompute(ctx, p); err != nil {
		b.Fatal(err)
	}
	if _, err := e.TopKSearch(ctx, p, 0, 10, 0); err != nil { // warm transpose cache
		b.Fatal(err)
	}
	n := g.NodeCount("author")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.TopKSearch(ctx, p, i%n, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopKColdReachable times a top-k on a path nothing has asked for
// yet, on both sides of the rent-or-buy rule: every query gets a fresh engine
// whose transition matrices are built before the clock starts (a serving
// engine builds them once per graph generation, not per query), so the chain
// cache is cold and nothing else is. The ACM AFAFA meets few targets (a
// source's co-affiliated authors), so the caching engine propagates only
// their rows; APAFA, the cold-adhoc workload's slowest op, rents too, with a
// short left (a source's co-authors) against long candidate rows (every
// author of each co-author's affiliation); on the complexity graph's APCPA a
// source meets two authors in five through 20 conferences — just under the
// rule's one-in-two, where renting and buying cost about the same. Each runs
// against the non-caching engine, which always materializes the right
// half-chain and scans its rows: the first two must win, the third must not
// lose.
func BenchmarkTopKColdReachable(b *testing.B) {
	acm, err := benchCtx().ACM()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		g    *hin.Graph
		spec string
		warm []string // walked once per engine: every transition matrix spec needs, both directions
	}{
		{"acm-AFAFA", acm.Graph, "AFAFA", []string{"AFA"}},
		{"acm-APAFA", acm.Graph, "APAFA", []string{"APA", "AFA"}},
		{"complexity-APCPA", complexityGraph(2000).Graph, "APCPA", []string{"APC", "CPA"}},
	} {
		p := metapath.MustParse(tc.g.Schema(), tc.spec)
		n := tc.g.NodeCount(p.Source())
		for _, arm := range []struct {
			name string
			opts []core.Option
		}{
			{"reachable-rows", nil},
			{"materialize", []core.Option{core.WithCaching(false)}},
		} {
			b.Run(tc.name+"/"+arm.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					e := core.NewEngine(tc.g, arm.opts...)
					for _, w := range tc.warm {
						if _, err := e.ReachableFrom(ctx, metapath.MustParse(tc.g.Schema(), w), 0); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					if _, err := e.TopKSearch(ctx, p, i%n, 10, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTopKColdOdd times a top-k on an odd ACM path nothing has asked for
// yet: every query gets a fresh engine whose per-graph state — transition
// matrices, the middle relation's collapsed form, cost estimates — Explain
// builds before the clock starts, so only the chain cache is cold. APSP, APTP
// and APVP meet on a paper-to-subject, -term or -venue relation: the left half
// (author → paper) crosses it with one SpMV and the scan reads the right half,
// one step back from the target paper.
func BenchmarkTopKColdOdd(b *testing.B) {
	acm, err := benchCtx().ACM()
	if err != nil {
		b.Fatal(err)
	}
	g := acm.Graph
	ctx := context.Background()
	for _, spec := range []string{"APSP", "APTP", "APVP"} {
		p := metapath.MustParse(g.Schema(), spec)
		n := g.NodeCount(p.Source())
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := core.NewEngine(g)
				if _, _, err := e.Explain(p, 1); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := e.TopKSearch(ctx, p, i%n, 10, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// coldCycleOp is one query of BenchmarkTopKColdCycle's replayed cycle.
type coldCycleOp struct {
	p        *metapath.Path
	topk     bool
	src, dst int
	replica  int
}

// coldCycle rebuilds bench/'s cold-adhoc cycle in process: every author path
// of length 2..4 but APTP and APSP, in the benchmark's fixed shuffle, each
// asked as two top-k 10 (half a cycle apart) and one pair, over Zipf(1)
// endpoints drawn from seed 1. Each op carries the replica the router places
// its path on: rendezvous hashing of the path's canonical key (the smaller of
// it and its reverse) over the benchmark fleet's two replica URLs.
func coldCycle(g *hin.Graph) ([]coldCycleOp, error) {
	s := g.Schema()
	var specs []string
	for _, t := range s.Types() {
		paths, err := metapath.Enumerate(s, "author", t.Name, 4, 0)
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			if spec := p.String(); p.Len() >= 2 && spec != "APTP" && spec != "APSP" {
				specs = append(specs, spec)
			}
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })

	rng := rand.New(rand.NewSource(1))
	cdfs := map[string][]float64{}
	node := func(typ string) int {
		cdf, ok := cdfs[typ]
		if !ok {
			cdf = make([]float64, g.NodeCount(typ))
			sum := 0.0
			for i := range cdf {
				sum += 1 / float64(i+1)
				cdf[i] = sum
			}
			for i := range cdf {
				cdf[i] /= sum
			}
			cdfs[typ] = cdf
		}
		return min(sort.SearchFloat64s(cdf, rng.Float64()), len(cdf)-1)
	}
	replicas := []string{"http://127.0.0.1:18601", "http://127.0.0.1:18602"}
	place := func(p *metapath.Path) int {
		key := min(p.String(), p.Reverse().String())
		best, bestScore := 0, uint64(0)
		for i, base := range replicas {
			h := fnv.New64a()
			h.Write([]byte(key + "\x00" + base))
			if sc := h.Sum64(); i == 0 || sc > bestScore {
				best, bestScore = i, sc
			}
		}
		return best
	}
	var ops []coldCycleOp
	for half := 0; half < 2; half++ {
		for i, spec := range specs {
			p := metapath.MustParse(s, spec)
			ops = append(ops, coldCycleOp{p: p, topk: true, src: node(p.Source()), replica: place(p)})
			if i%2 == half {
				src := node(p.Source())
				ops = append(ops, coldCycleOp{p: p, src: src, dst: node(p.Target()), replica: place(p)})
			}
		}
	}
	return ops, nil
}

// paperACM is the paper-scale ACM network bench/ serves.
var paperACM = sync.OnceValues(func() (*datagen.Dataset, error) {
	return datagen.ACM(datagen.DefaultACMConfig())
})

// BenchmarkTopKColdCycle replays the cold-adhoc cycle in process over two
// engines with an 8-entry chain cache, split as the router splits it, on the
// paper-scale ACM network: what the chain cache's eviction policy decides on
// that workload, without the wire. One op is one whole cycle, after a
// warm-up cycle that builds the transitions and brings the caches to their
// steady churn; it reports ms/cycle, the evictions per cycle, and the
// transposes per cycle (top-k scans that transposed a resident chain once,
// hetesim_engine_topk_scan_total{scan="transpose-once"}; the counter is
// process-wide, so the delta also counts any concurrent top-k, of which a
// benchmark run has none).
func BenchmarkTopKColdCycle(b *testing.B) {
	ds, err := paperACM()
	if err != nil {
		b.Fatal(err)
	}
	ops, err := coldCycle(ds.Graph)
	if err != nil {
		b.Fatal(err)
	}
	engines := []*core.Engine{
		core.NewEngine(ds.Graph, core.WithCacheLimit(8)),
		core.NewEngine(ds.Graph, core.WithCacheLimit(8)),
	}
	ctx := context.Background()
	cycle := func() {
		for _, op := range ops {
			e := engines[op.replica]
			var err error
			if op.topk {
				_, _, err = e.TopKSearchWithPlan(ctx, op.p, op.src, 10, 0, core.PlanOptions{})
			} else {
				_, _, err = e.PairWithPlan(ctx, op.p, op.src, op.dst, core.PlanOptions{})
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	evictions := func() int { return engines[0].CacheStats().Evictions + engines[1].CacheStats().Evictions }
	transposes := obs.Default().CounterVec("hetesim_engine_topk_scan_total", "", "scan").With("transpose-once")
	cycle()
	before, transposedBefore := evictions(), transposes.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/cycle")
	b.ReportMetric(float64(evictions()-before)/float64(b.N), "evictions/cycle")
	b.ReportMetric(float64(transposes.Value()-transposedBefore)/float64(b.N), "transposes/cycle")
}

// batchBenchQueries builds the 64 same-path pair queries of the batch
// amortization benchmark: a 16-source × 4-target block of the relevance
// matrix, the shape a recommendation or profile page issues per render.
func batchBenchQueries(g interface{ NodeCount(string) int }, p *metapath.Path) []core.BatchQuery {
	nA := g.NodeCount("author")
	qs := make([]core.BatchQuery, 0, 64)
	for s := 0; s < 16; s++ {
		for d := 0; d < 4; d++ {
			qs = append(qs, core.BatchQuery{
				Kind: core.BatchPair, Path: p,
				Src: (s * 37) % nA, Dst: (d*113 + 19) % nA,
			})
		}
	}
	return qs
}

// BenchmarkBatchPairAmortization is the batch scheduler's acceptance
// benchmark: 64 pair queries on one relevance path, answered sequentially
// (each pays its own vector propagations) versus as one batch (the group
// propagates each distinct source and target row once — Property 2's
// factorization shared 64 ways). Engines are cold per iteration, so the
// ratio isolates the scheduler's amortization, not cache warmth; the warm
// variant shows the residual per-batch cost once chains are cached.
func BenchmarkBatchPairAmortization(b *testing.B) {
	ds := complexityGraph(20000)
	g := ds.Graph
	// The long even path's half-chains (A→P→C→P→A) fan out through the
	// conference type, so each solo pair query pays two genuinely expensive
	// vector propagations — the workload Property 2's factorization is for.
	p := metapath.MustParse(g.Schema(), "APCPAPCPA")
	qs := batchBenchQueries(g, p)
	b.Run("sequential-64-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := core.NewEngine(g)
			for _, q := range qs {
				if _, err := e.PairByIndex(context.Background(), p, q.Src, q.Dst); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch-64-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := core.NewEngine(g)
			results, _, err := e.ExecuteBatch(context.Background(), qs, core.BatchOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range results {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
	})
	b.Run("batch-64-warm", func(b *testing.B) {
		e := core.NewEngine(g)
		if err := e.Precompute(context.Background(), p); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := e.ExecuteBatch(context.Background(), qs, core.BatchOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRelevanceAuto is the auto-relevance subsystem's acceptance
// benchmark: one conference pair scored over an ensemble of three meta
// paths that share the published_in⁻¹ prefix (CPC, CPAPC, CPTPC),
// answered naively (each path is a solo Pair query) versus through
// relevance.Pair (one batch whose one-query groups take the same solo
// plans, plus enumeration and combine). Engines are cold per iteration so
// the ratio is the ensemble's overhead over its paths; the warm variant
// shows the steady-state ensemble cost once chains are cached.
func BenchmarkRelevanceAuto(b *testing.B) {
	ds := complexityGraph(20000)
	g := ds.Graph
	specs := []string{"CPC", "CPAPC", "CPTPC"}
	paths := make([]*metapath.Path, len(specs))
	for i, s := range specs {
		paths[i] = metapath.MustParse(g.Schema(), s)
	}
	nC := g.NodeCount("conference")
	src, dst := 3%nC, 11%nC
	opts := relevance.Options{Paths: specs, MaxPaths: len(specs)}
	b.Run("solo-paths-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := core.NewEngine(g)
			var sum float64
			for _, p := range paths {
				s, err := e.PairByIndex(context.Background(), p, src, dst)
				if err != nil {
					b.Fatal(err)
				}
				sum += s / float64(len(paths))
			}
			_ = sum
		}
	})
	b.Run("ensemble-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := core.NewEngine(g)
			if _, err := relevance.Pair(context.Background(), e, "conference", src, "conference", dst, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ensemble-warm", func(b *testing.B) {
		e := core.NewEngine(g)
		for _, p := range paths {
			if err := e.Precompute(context.Background(), p); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := relevance.Pair(context.Background(), e, "conference", src, "conference", dst, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotBoot measures a boot with and without a snapshot.
// "cold" materializes the working-set chain matrices from the raw graph —
// the Section 4.6 offline computation a fresh process must repeat. "warm"
// is what hetesimd does at startup when -snapshot-path names a matching
// snapshot: parse and checksum the container, validate the graph
// fingerprint, and rebuild the paths it lists in a fresh engine. Chains are
// rebuilt, not stored, so warm is cold plus reading a path list.
func BenchmarkSnapshotBoot(b *testing.B) {
	ds := complexityGraph(3000)
	g := ds.Graph
	// The working set that makes warm starts matter: the long chain's
	// materialization is real SpGEMM work, not a few sparse products.
	specs := []string{"APCPA", "APCPAPCPA"}
	precompute := func(e *core.Engine, specs []string) {
		for _, spec := range specs {
			if err := e.Precompute(context.Background(), metapath.MustParse(g.Schema(), spec)); err != nil {
				b.Fatal(err)
			}
		}
	}

	// Build the snapshot once, outside every timed region.
	fingerprint := g.Fingerprint()
	snap := &snapshot.Snapshot{Fingerprint: fingerprint}
	snapshot.EncodeSpecs(snap, specs)
	var blob bytes.Buffer
	if err := snapshot.Write(&blob, snap); err != nil {
		b.Fatal(err)
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			precompute(core.NewEngine(g), specs)
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := core.NewEngine(g)
			s, err := snapshot.Read(bytes.NewReader(blob.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if err := s.CheckCompat(fingerprint); err != nil {
				b.Fatal(err)
			}
			precompute(e, snapshot.DecodeSpecs(s))
			if e.CacheStats().Chain == 0 {
				b.Fatal("warm boot built no chains")
			}
		}
	})
}

// BenchmarkGraphBuild prices graph construction at paper scale, the step
// every boot waits behind: "acm" generates the ACM network (datagen.ACM,
// node IDs and edges through hin.Builder), "read" decodes that graph's JSON
// file (hin.Read, the -graph boot, reload and resync path).
func BenchmarkGraphBuild(b *testing.B) {
	b.Run("acm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := datagen.ACM(datagen.DefaultACMConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		ds, err := paperACM()
		if err != nil {
			b.Fatal(err)
		}
		var file bytes.Buffer
		if err := hin.Write(&file, ds.Graph); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(file.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hin.Read(bytes.NewReader(file.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalApply is the mutation path's acceptance benchmark.
// A warmed engine serves a bibliographic working set — author relevance
// through conferences (APC, APCPA, and the long APCPAPCPA whose
// conference round-trips make SpGEMM genuinely expensive) and through
// terms (APTPA) — when a tag-edit delta lands: two papers gain a term.
// By Property 2 the delta perturbs only the mentions transition rows of
// those papers, so RewarmFrom recomputes just the co-author rows of the
// term chains and carries every conference chain bit-identically at zero
// multiplication cost, while the baseline rematerializes the whole
// working set from the raw graph — what every mutation would cost if a
// write invalidated the cache. The committed ratio is the "don't rebuild
// the world per edge" guarantee of the admin mutation endpoint.
func BenchmarkIncrementalApply(b *testing.B) {
	ds := complexityGraph(8000)
	g := ds.Graph
	paths := []*metapath.Path{
		metapath.MustParse(g.Schema(), "APC"),
		metapath.MustParse(g.Schema(), "APTPA"),
		metapath.MustParse(g.Schema(), "APCPA"),
		metapath.MustParse(g.Schema(), "APCPAPCPA"),
	}
	warm := func(e *core.Engine) {
		for _, p := range paths {
			if err := e.Precompute(context.Background(), p); err != nil {
				b.Fatal(err)
			}
		}
	}
	old := core.NewEngine(g)
	warm(old)

	ops := []hin.Op{
		{Kind: hin.OpUpsertEdge, Relation: "mentions", Src: "paper0042", Dst: "term0007", Weight: 1},
		{Kind: hin.OpUpsertEdge, Relation: "mentions", Src: "paper0311", Dst: "term0019", Weight: 1},
	}
	ng, dirty, err := g.Apply(ops)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := core.NewEngine(ng)
			st, err := e.RewarmFrom(context.Background(), old, dirty)
			if err != nil {
				b.Fatal(err)
			}
			if st.RowPatched == 0 || st.Carried == 0 {
				b.Fatalf("rewarm did not row-patch and carry: %s", st)
			}
		}
	})
	b.Run("full-rematerialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			warm(core.NewEngine(ng))
		}
	})
}

// BenchmarkIncrementalWrite times the in-engine half of one acked write on
// the paper-scale ACM network, stage by stage: apply (hin.Graph.Apply),
// fingerprint (of the graph Apply returned), rewarm (a new engine
// RewarmFrom one warmed with the end-to-end benchmark's eight warm paths)
// and sequence, all three as the server's write path runs them. fleet is
// sequence against an engine warmed the way serving reads warm one: each
// path precomputed and then asked a top-k, so every right half's "T:"
// transpose is cached and the rewarm patches it too. The batch is fixed: a
// writes upsert, a mentions upsert and a mentions delete. The base graph is
// fingerprinted before the clock, as a serving generation is.
func BenchmarkIncrementalWrite(b *testing.B) {
	ds, err := datagen.ACM(datagen.DefaultACMConfig())
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Graph
	g.Fingerprint()
	ctx := context.Background()
	specs := []string{"APA", "AFA", "APVC", "APVPA", "APSPA", "APTPA", "APVCVPA", "CVPA"}
	old, served := core.NewEngine(g), core.NewEngine(g)
	for _, spec := range specs {
		p := metapath.MustParse(g.Schema(), spec)
		if err := old.Precompute(ctx, p); err != nil {
			b.Fatal(err)
		}
		if err := served.Precompute(ctx, p); err != nil {
			b.Fatal(err)
		}
		if _, err := served.TopKSearch(ctx, p, 0, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
	ops := []hin.Op{
		incrementalUpsert(b, g, "writes", 7, 11),
		incrementalUpsert(b, g, "mentions", 42, 3),
		incrementalUpsert(b, g, "mentions", 99, 0), // one of paper 99's edges, deleted
	}
	ops[2].Kind, ops[2].Weight = hin.OpDeleteEdge, 0
	ng, dirty, err := g.Apply(ops)
	if err != nil {
		b.Fatal(err)
	}
	rewarm := func(ng *hin.Graph, dirty *hin.Dirty, src *core.Engine) {
		if _, err := core.NewEngine(ng).RewarmFrom(ctx, src, dirty); err != nil {
			b.Fatal(err)
		}
	}
	sequence := func(b *testing.B, src *core.Engine) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ng, dirty, err := g.Apply(ops)
			if err != nil {
				b.Fatal(err)
			}
			ng.Fingerprint()
			rewarm(ng, dirty, src)
		}
	}

	b.Run("apply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := g.Apply(ops); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh, _, _ := g.Apply(ops)
			b.StartTimer()
			fresh.Fingerprint()
		}
	})
	b.Run("rewarm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rewarm(ng, dirty, old)
		}
	})
	b.Run("sequence", func(b *testing.B) { sequence(b, old) })
	b.Run("fleet", func(b *testing.B) { sequence(b, served) })
}

// incrementalUpsert returns an upsert of rel from source node src to the
// first target at or after index from: one the source lacks, or, with from
// 0, the source's first neighbor (an edge that exists, for a delete).
func incrementalUpsert(b *testing.B, g *hin.Graph, rel string, src, from int) hin.Op {
	b.Helper()
	r, err := g.Schema().RelationByName(rel)
	if err != nil {
		b.Fatal(err)
	}
	adj, _ := g.Adjacency(rel)
	dst := from
	if from == 0 {
		cols, _ := adj.RowEntries(src)
		dst = cols[0]
	} else {
		for adj.At(src, dst) != 0 {
			dst++
		}
	}
	s, _ := g.NodeID(r.Source, src)
	t, _ := g.NodeID(r.Target, dst)
	return hin.Op{Kind: hin.OpUpsertEdge, Relation: rel, Src: s, Dst: t, Weight: 1}
}

// BenchmarkPlanAuto races the cost-based optimizer against every static
// plan it chooses between, on a mixed pair workload. Cold, auto should
// track pair-vectors (no materialization for a handful of queries); after
// Precompute warms the half-chains, auto should flip to all-pairs row
// lookups. The committed baseline therefore shows auto no slower than the
// best static plan in either regime.
func BenchmarkPlanAuto(b *testing.B) {
	ds := complexityGraph(1000)
	g := ds.Graph
	p := metapath.MustParse(g.Schema(), "APCPA")
	n := g.NodeCount("author")
	plans := []core.PlanKind{core.PlanAuto, core.PlanPairVectors, core.PlanSingleVsMatrix, core.PlanAllPairs}
	for _, kind := range plans {
		b.Run("cold/"+string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := core.NewEngine(g)
				if _, _, err := e.PairWithPlan(context.Background(), p, i%n, (i*7)%n,
					core.PlanOptions{Force: kind}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, kind := range plans {
		b.Run("warm/"+string(kind), func(b *testing.B) {
			e := core.NewEngine(g)
			if err := e.Precompute(context.Background(), p); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.PairWithPlan(context.Background(), p, i%n, (i*7)%n,
					core.PlanOptions{Force: kind}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
