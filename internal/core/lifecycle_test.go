package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"hetesim/internal/hin"
	"hetesim/internal/metapath"
)

// denseBipartiteGraph builds a complete bipartite a↔b graph big enough
// that a long relevance path takes noticeable wall-clock time, so
// cancellation mid-computation is observable.
func denseBipartiteGraph(tb testing.TB, n int) *hin.Graph {
	tb.Helper()
	s := hin.NewSchema()
	s.MustAddType("a", 'A')
	s.MustAddType("b", 'B')
	s.MustAddRelation("r", "a", "b")
	b := hin.NewBuilder(s)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.AddWeightedEdge("r", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", j), float64(1+(i+j)%7))
		}
	}
	return b.MustBuild()
}

// longPath returns the zig-zag path (AB)^k A of 2k steps over the dense
// bipartite schema.
func longPath(tb testing.TB, g *hin.Graph, k int) *metapath.Path {
	tb.Helper()
	spec := ""
	for i := 0; i < k; i++ {
		spec += "AB"
	}
	spec += "A"
	return metapath.MustParse(g.Schema(), spec)
}

func TestPrecanceledContext(t *testing.T) {
	g := fig4Graph(t)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APC")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.AllPairs(ctx, p); !errors.Is(err, context.Canceled) {
		t.Errorf("AllPairs on canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := e.SingleSource(ctx, p, "Tom"); !errors.Is(err, context.Canceled) {
		t.Errorf("SingleSource on canceled ctx: err = %v, want context.Canceled", err)
	}
	if err := e.Precompute(ctx, p); !errors.Is(err, context.Canceled) {
		t.Errorf("Precompute on canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestCancelStopsAllPairs cancels a long chain-matrix computation
// mid-flight and asserts the engine goroutine observably stops within
// 100ms of the cancel — the acceptance bound for the query lifecycle.
func TestCancelStopsAllPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// Small dense blocks keep each multiply step (the cancellation poll
	// interval) well under 100ms even with -race instrumentation, while
	// the long path keeps the whole chain running for seconds.
	g := denseBipartiteGraph(t, 120)
	e := NewEngine(g)
	p := longPath(t, g, 200)

	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		err  error
		done time.Time
	}
	ch := make(chan result, 1)
	go func() {
		_, err := e.AllPairs(ctx, p)
		ch <- result{err: err, done: time.Now()}
	}()

	// Let the chain get going, then pull the plug.
	time.Sleep(50 * time.Millisecond)
	canceledAt := time.Now()
	cancel()

	select {
	case res := <-ch:
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("AllPairs returned err = %v, want context.Canceled (graph too small to outlive the cancel?)", res.err)
		}
		if lag := res.done.Sub(canceledAt); lag > 100*time.Millisecond {
			t.Errorf("AllPairs returned %v after cancel, want < 100ms", lag)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AllPairs did not return within 5s of cancel")
	}
}

// TestCancelStopsSingleSource does the same for the vector chain.
func TestCancelStopsSingleSource(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	g := denseBipartiteGraph(t, 300)
	e := NewEngine(g)
	p := longPath(t, g, 400)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.SingleSource(ctx, p, "a0")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	canceledAt := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("SingleSource returned err = %v, want context.Canceled", err)
		}
		if lag := time.Since(canceledAt); lag > 100*time.Millisecond {
			t.Errorf("SingleSource returned %v after cancel, want < 100ms", lag)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SingleSource did not return within 5s of cancel")
	}
}

// TestCancelStopsPairsSubset cancels mid-way through the subset plan's
// final cross product. The half-chains here are single transitions (cheap,
// uninterruptible), so the whole runtime sits in subL·subRᵀ — the multiply
// that runs in ctx-polled row blocks precisely so this cancel can land.
func TestCancelStopsPairsSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	g := denseBipartiteGraph(t, 400)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "ABA")
	all := make([]int, g.NodeCount("a"))
	for i := range all {
		all[i] = i
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.PairsSubset(ctx, p, all, all)
		done <- err
	}()
	time.Sleep(25 * time.Millisecond)
	canceledAt := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("PairsSubset returned err = %v, want context.Canceled (graph too small to outlive the cancel?)", err)
		}
		if lag := time.Since(canceledAt); lag > 100*time.Millisecond {
			t.Errorf("PairsSubset returned %v after cancel, want < 100ms", lag)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PairsSubset did not return within 5s of cancel")
	}
}

func TestDeadlineExceededSurfaces(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	g := denseBipartiteGraph(t, 120)
	e := NewEngine(g)
	p := longPath(t, g, 200)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := e.AllPairs(ctx, p); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("AllPairs past deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestWithCacheLimit checks eviction keeps the chain-matrix cache bounded
// without changing any score.
func TestWithCacheLimit(t *testing.T) {
	g := fig4Graph(t)
	unlimited := NewEngine(g)
	limited := NewEngine(g, WithCacheLimit(2))
	ctx := context.Background()

	specs := []string{"APC", "APA", "CPC", "APCPA", "CPAPC", "APCPC"}
	for _, spec := range specs {
		p := metapath.MustParse(g.Schema(), spec)
		want, err := unlimited.SingleSource(ctx, p, firstNode(t, g, p.Source()))
		if err != nil {
			t.Fatalf("%s unlimited: %v", spec, err)
		}
		got, err := limited.SingleSource(ctx, p, firstNode(t, g, p.Source()))
		if err != nil {
			t.Fatalf("%s limited: %v", spec, err)
		}
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-12 {
				t.Fatalf("%s: limited engine diverges at %d: %v vs %v", spec, i, got[i], want[i])
			}
		}
		if reach := limited.CacheStats().Chain; reach > 2 {
			t.Fatalf("%s: reach cache holds %d entries, limit is 2", spec, reach)
		}
	}
	if reach := unlimited.CacheStats().Chain; reach <= 2 {
		t.Fatalf("unlimited engine cached only %d chain matrices; workload too small to test eviction", reach)
	}
	if ev := limited.CacheStats().Evictions; ev == 0 {
		t.Error("limited engine reports zero evictions after exceeding the cache limit")
	}
	if ev := unlimited.CacheStats().Evictions; ev != 0 {
		t.Errorf("unlimited engine reports %d evictions", ev)
	}
}

func firstNode(tb testing.TB, g *hin.Graph, typeName string) string {
	tb.Helper()
	ids := g.NodeIDs(typeName)
	if len(ids) == 0 {
		tb.Fatalf("no nodes of type %s", typeName)
	}
	return ids[0]
}

// TestConcurrentQueriesWithEviction hammers one cache-limited engine from
// many goroutines over distinct paths, so queries race against evictions.
// Top-k queries reuse chains and cache their transposes while there is room,
// so "T:" puts race against the evictions of their chains. Run under -race
// this is the cache-consistency stress test.
func TestConcurrentQueriesWithEviction(t *testing.T) {
	g := fig4Graph(t)
	e := NewEngine(g, WithCacheLimit(2))
	ctx := context.Background()
	specs := []string{"APC", "APA", "CPC", "APCPA", "CPAPC", "PAP", "PCP"}

	var wg sync.WaitGroup
	errs := make(chan error, 1)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				spec := specs[(w+i)%len(specs)]
				p := metapath.MustParse(g.Schema(), spec)
				var err error
				if (w+i)%3 == 0 {
					_, err = e.TopKSearch(ctx, p, i%g.NodeCount(p.Source()), 2, 0)
				} else {
					_, err = e.SingleSource(ctx, p, firstNode(t, g, p.Source()))
				}
				if err != nil {
					select {
					case errs <- fmt.Errorf("%s: %w", spec, err):
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if reach := e.CacheStats().Chain; reach > 2 {
		t.Errorf("reach cache holds %d entries after stress, limit is 2", reach)
	}
}
