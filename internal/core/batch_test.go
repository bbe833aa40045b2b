package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"hetesim/internal/metapath"
)

// batchWorkload builds the mixed query set of the equivalence tests:
// even- and odd-path pairs, single-source scans, and top-k searches
// (exact and pruned), with repeated sources so groups genuinely share rows.
func batchWorkload(tb testing.TB, seed int64, e *Engine) []BatchQuery {
	tb.Helper()
	g := e.Graph()
	rng := rand.New(rand.NewSource(seed))
	mustPath := func(spec string) *metapath.Path {
		return metapath.MustParse(g.Schema(), spec)
	}
	even := mustPath("APVCVPA")
	odd := mustPath("APVC")
	ssPath := mustPath("APV")
	tkPath := mustPath("APA")

	nA := g.NodeCount("author")
	nC := g.NodeCount("conference")
	var qs []BatchQuery
	for i := 0; i < 20; i++ {
		qs = append(qs, BatchQuery{Kind: BatchPair, Path: even, Src: rng.Intn(nA), Dst: rng.Intn(nA)})
	}
	for i := 0; i < 6; i++ {
		qs = append(qs, BatchQuery{Kind: BatchPair, Path: odd, Src: rng.Intn(nA), Dst: rng.Intn(nC)})
	}
	for i := 0; i < 4; i++ {
		qs = append(qs, BatchQuery{Kind: BatchSingleSource, Path: ssPath, Src: rng.Intn(nA)})
	}
	for i := 0; i < 4; i++ {
		eps := 0.0
		if i%2 == 1 {
			eps = 1e-3
		}
		qs = append(qs, BatchQuery{Kind: BatchTopK, Path: tkPath, Src: rng.Intn(nA), K: 3, Eps: eps})
	}
	return qs
}

// assertBatchMatchesSolo runs the workload through ExecuteBatch on one
// fresh engine and through the solo entry points on another, and demands
// bit-identical scores — the scheduler's core contract.
func assertBatchMatchesSolo(t *testing.T, batchEngine, soloEngine *Engine, qs []BatchQuery, workers int) BatchStats {
	t.Helper()
	ctx := context.Background()
	results, stats, err := batchEngine.ExecuteBatch(ctx, qs, BatchOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(qs) {
		t.Fatalf("got %d results for %d queries", len(results), len(qs))
	}
	for i, q := range qs {
		res := results[i]
		if res.Err != nil {
			t.Fatalf("query %d (%s %s): %v", i, q.Kind, q.Path, res.Err)
		}
		switch q.Kind {
		case BatchPair:
			want, err := soloEngine.PairByIndex(ctx, q.Path, q.Src, q.Dst)
			if err != nil {
				t.Fatal(err)
			}
			if res.Score != want {
				t.Errorf("query %d pair(%d,%d|%s): batch %v, solo %v (must be bit-identical)",
					i, q.Src, q.Dst, q.Path, res.Score, want)
			}
		case BatchSingleSource:
			want, err := soloEngine.SingleSourceByIndex(ctx, q.Path, q.Src)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Scores) != len(want) {
				t.Fatalf("query %d: %d scores, want %d", i, len(res.Scores), len(want))
			}
			for b := range want {
				if res.Scores[b] != want[b] {
					t.Errorf("query %d single_source(%d|%s) target %d: batch %v, solo %v",
						i, q.Src, q.Path, b, res.Scores[b], want[b])
				}
			}
		case BatchTopK:
			want, err := soloEngine.TopKSearch(ctx, q.Path, q.Src, q.K, q.Eps)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.TopK) != len(want) {
				t.Fatalf("query %d: %d hits, want %d", i, len(res.TopK), len(want))
			}
			for r := range want {
				if res.TopK[r] != want[r] {
					t.Errorf("query %d topk(%d|%s) rank %d: batch %+v, solo %+v",
						i, q.Src, q.Path, r, res.TopK[r], want[r])
				}
			}
		}
	}
	return stats
}

// TestBatchMatchesSoloBitIdentical is the scheduler's equivalence
// guarantee: a batch on a cold engine scores every query bit-identically
// to the same queries issued alone, normalized and raw alike.
func TestBatchMatchesSoloBitIdentical(t *testing.T) {
	for _, seed := range []int64{71, 72} {
		g := randomBibGraph(seed)
		qs := batchWorkload(t, seed+100, NewEngine(g))

		stats := assertBatchMatchesSolo(t, NewEngine(g), NewEngine(g), qs, 4)
		if stats.Queries != len(qs) {
			t.Errorf("stats.Queries = %d, want %d", stats.Queries, len(qs))
		}
		if stats.Groups != 4 {
			t.Errorf("stats.Groups = %d, want 4 (one per distinct path)", stats.Groups)
		}
		if stats.SharedQueries != len(qs) {
			t.Errorf("stats.SharedQueries = %d, want %d (every group has >1 query)", stats.SharedQueries, len(qs))
		}
		if stats.ChainBuilds == 0 {
			t.Error("cold batch reported zero chain builds")
		}

		rawBatch := NewEngine(g, WithNormalization(false))
		rawSolo := NewEngine(g, WithNormalization(false))
		assertBatchMatchesSolo(t, rawBatch, rawSolo, qs, 2)
	}
}

// TestBatchSingletonGroupsUseSoloPlan: a batch of one query per path takes
// the solo plan (no shared state, nothing to amortize) and still answers
// identically — also when the paths share a half-chain prefix (APA, APVPA and
// APTPA all start with "writes"), the multi-path relevance ensemble's shape.
func TestBatchSingletonGroupsUseSoloPlan(t *testing.T) {
	g := randomBibGraph(73)
	e := NewEngine(g)
	var qs []BatchQuery
	for _, spec := range []string{"APA", "APVPA", "APTPA", "VCV"} {
		qs = append(qs, BatchQuery{Kind: BatchPair, Path: metapath.MustParse(g.Schema(), spec), Src: 0, Dst: 1})
	}
	results, stats, err := e.ExecuteBatch(context.Background(), qs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewEngine(g)
	for i, q := range qs {
		if results[i].Err != nil {
			t.Fatal(results[i].Err)
		}
		if results[i].Shared || results[i].Plan != "solo" {
			t.Errorf("%s: singleton group reported shared=%v plan=%q", q.Path, results[i].Shared, results[i].Plan)
		}
		want, err := fresh.PairByIndex(context.Background(), q.Path, q.Src, q.Dst)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Score != want {
			t.Errorf("%s: singleton batch score %v, solo %v", q.Path, results[i].Score, want)
		}
	}
	if stats.Groups != len(qs) || stats.SharedQueries != 0 || stats.ChainBuilds != 0 || stats.RowSteps != 0 {
		t.Errorf("stats = %+v, want %d groups, 0 shared, 0 builds, 0 row steps", stats, len(qs))
	}
}

// TestBatchPartialFailure: one bad query fails in place; its siblings —
// including ones in the same group — still succeed, and the batch-level
// error stays nil.
func TestBatchPartialFailure(t *testing.T) {
	g := randomBibGraph(74)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APA")
	nA := g.NodeCount("author")
	qs := []BatchQuery{
		{Kind: BatchPair, Path: p, Src: 0, Dst: 1},
		{Kind: BatchPair, Path: p, Src: nA + 5, Dst: 0}, // source out of range
		{Kind: BatchTopK, Path: p, Src: 0, K: 0},        // k must be positive
		{Kind: BatchKind("bogus"), Path: p, Src: 0},     // unknown kind
		{Kind: BatchPair, Path: nil, Src: 0, Dst: 0},    // no path
		{Kind: BatchPair, Path: p, Src: 1, Dst: 0},
	}
	results, _, err := e.ExecuteBatch(context.Background(), qs, BatchOptions{})
	if err != nil {
		t.Fatalf("batch-level error for per-query failures: %v", err)
	}
	for _, i := range []int{1, 2, 3, 4} {
		if results[i].Err == nil {
			t.Errorf("query %d: want an error", i)
		}
	}
	for _, i := range []int{0, 5} {
		if results[i].Err != nil {
			t.Errorf("query %d failed alongside its bad siblings: %v", i, results[i].Err)
		}
	}
	want, err := NewEngine(g).PairByIndex(context.Background(), p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Score != want {
		t.Errorf("surviving query scored %v, solo %v", results[0].Score, want)
	}
}

// TestBatchWarmReuse: after Precompute the group preparation is pure cache
// reuse — zero chain builds, every query still shared.
func TestBatchWarmReuse(t *testing.T) {
	g := randomBibGraph(75)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APVCVPA")
	if err := e.Precompute(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	nA := g.NodeCount("author")
	var qs []BatchQuery
	for i := 0; i < 8; i++ {
		qs = append(qs, BatchQuery{Kind: BatchPair, Path: p, Src: i % nA, Dst: (i + 1) % nA})
	}
	results, stats, err := e.ExecuteBatch(context.Background(), qs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ChainBuilds != 0 {
		t.Errorf("warm batch performed %d chain builds, want 0", stats.ChainBuilds)
	}
	if stats.SharedQueries != len(qs) {
		t.Errorf("SharedQueries = %d, want %d", stats.SharedQueries, len(qs))
	}
	solo := NewEngine(g)
	for i, q := range qs {
		if results[i].Err != nil {
			t.Fatal(results[i].Err)
		}
		want, err := solo.PairByIndex(context.Background(), p, q.Src, q.Dst)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Score != want {
			t.Errorf("warm query %d: batch %v, solo %v", i, results[i].Score, want)
		}
	}
}

// TestBatchGroupingStats pins the amortization arithmetic: 64 queries on
// one path plus 3 on another form exactly two groups.
func TestBatchGroupingStats(t *testing.T) {
	g := randomBibGraph(76)
	e := NewEngine(g)
	pairPath := metapath.MustParse(g.Schema(), "APTPA")
	ssPath := metapath.MustParse(g.Schema(), "APV")
	nA := g.NodeCount("author")
	var qs []BatchQuery
	for i := 0; i < 64; i++ {
		qs = append(qs, BatchQuery{Kind: BatchPair, Path: pairPath, Src: i % nA, Dst: (i * 3) % nA})
	}
	for i := 0; i < 3; i++ {
		qs = append(qs, BatchQuery{Kind: BatchSingleSource, Path: ssPath, Src: i % nA})
	}
	_, stats, err := e.ExecuteBatch(context.Background(), qs, BatchOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries != 67 || stats.Groups != 2 {
		t.Fatalf("stats = %+v, want 67 queries in 2 groups", stats)
	}
	if stats.Amortization != 67.0/2 {
		t.Errorf("Amortization = %v, want %v", stats.Amortization, 67.0/2)
	}
}

// TestBatchPrecanceledContext: a context canceled before any work starts
// is the one batch-level failure.
func TestBatchPrecanceledContext(t *testing.T) {
	g := randomBibGraph(77)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APA")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := e.ExecuteBatch(ctx, []BatchQuery{{Kind: BatchPair, Path: p, Src: 0, Dst: 0}}, BatchOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestBatchPerQueryTimeout: an already-expired per-query budget fails
// every query with DeadlineExceeded — individually, not at batch level.
func TestBatchPerQueryTimeout(t *testing.T) {
	g := randomBibGraph(78)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APVCVPA")
	var qs []BatchQuery
	for i := 0; i < 4; i++ {
		qs = append(qs, BatchQuery{Kind: BatchPair, Path: p, Src: 0, Dst: i % g.NodeCount("author")})
	}
	results, _, err := e.ExecuteBatch(context.Background(), qs, BatchOptions{PerQueryTimeout: time.Nanosecond})
	if err != nil {
		t.Fatalf("per-query deadlines must not fail the batch: %v", err)
	}
	for i, res := range results {
		if !errors.Is(res.Err, context.DeadlineExceeded) {
			t.Errorf("query %d: err = %v, want context.DeadlineExceeded", i, res.Err)
		}
	}
}

// TestBatchEquivalentPathSpellingsShareAGroup: grouping is by canonical
// chain keys, so the same path parsed from different spellings lands in
// one group.
func TestBatchEquivalentPathSpellingsShareAGroup(t *testing.T) {
	g := randomBibGraph(79)
	e := NewEngine(g)
	p1 := metapath.MustParse(g.Schema(), "APA")
	p2 := metapath.MustParse(g.Schema(), "author>paper>author")
	qs := []BatchQuery{
		{Kind: BatchPair, Path: p1, Src: 0, Dst: 1},
		{Kind: BatchPair, Path: p2, Src: 1, Dst: 0},
	}
	_, stats, err := e.ExecuteBatch(context.Background(), qs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Groups != 1 {
		t.Errorf("Groups = %d, want 1 (spellings of the same path)", stats.Groups)
	}
	if stats.SharedQueries != 2 {
		t.Errorf("SharedQueries = %d, want 2", stats.SharedQueries)
	}
}
