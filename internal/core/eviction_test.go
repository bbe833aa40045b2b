package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hetesim/internal/hin"
	"hetesim/internal/metapath"
)

// resident reports whether key is in e's chain cache, without counting as a
// hit.
func resident(e *Engine, key string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.reach[key]
	return ok
}

// residentKeys lists e's chain-cache keys in order.
func residentKeys(e *Engine) []string {
	keys := make([]string, 0)
	for k := range e.ExportChains() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkCacheInvariants fails t unless e's chain cache is within its limit,
// holds no "T:" transpose without its chain, keeps norms only for resident
// chains and empty chains' identities, and counts its bytes right.
func checkCacheInvariants(t *testing.T, e *Engine, where string) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cacheLimit > 0 && len(e.reach) > e.cacheLimit {
		t.Fatalf("%s: %d chain entries resident, limit %d", where, len(e.reach), e.cacheLimit)
	}
	var bytes int64
	for k, ent := range e.reach {
		bytes += matrixBytes(ent.m)
		if base, ok := strings.CutPrefix(k, "T:"); ok {
			if _, ok := e.reach[base]; !ok {
				t.Fatalf("%s: %s resident without its chain", where, k)
			}
		}
	}
	for k := range e.norms {
		if _, ok := e.reach[k]; !ok && !strings.HasPrefix(k, "C:@") {
			t.Fatalf("%s: norms kept for evicted %s", where, k)
		}
	}
	if bytes != e.chainBytes {
		t.Fatalf("%s: chainBytes %d, resident entries hold %d", where, e.chainBytes, bytes)
	}
}

// evictionOp is one query of a seeded stream. A top-k asks for k hits (4 when
// k is 0) pruned below eps; a raw query scores by Definition 3.
type evictionOp struct {
	spec            string
	topk, prec, raw bool
	src, dst, k     int
	eps             float64
}

// evictionStream draws n pair, top-k and precompute queries over even and
// odd paths, repeating paths so chains are reused, transposed and evicted.
func evictionStream(g *hin.Graph, seed int64, n int) []evictionOp {
	specs := []string{"APA", "APVCVPA", "APTPA", "CVPA", "APVC", "AP", "APV", "APT", "APVCV", "TPA", "APVPA", "VPAPV"}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]evictionOp, n)
	for i := range ops {
		p := metapath.MustParse(g.Schema(), specs[rng.Intn(len(specs))])
		ops[i] = evictionOp{
			spec: p.String(),
			topk: rng.Intn(2) == 0,
			prec: rng.Intn(10) == 0,
			src:  rng.Intn(g.NodeCount(p.Source())),
			dst:  rng.Intn(g.NodeCount(p.Target())),
		}
	}
	return ops
}

// runEvictionOp answers one stream op as a string of result ids and score
// bits.
func runEvictionOp(t *testing.T, e *Engine, op evictionOp) string {
	t.Helper()
	ctx := context.Background()
	p := metapath.MustParse(e.g.Schema(), op.spec)
	if op.prec {
		if err := e.Precompute(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	opts := PlanOptions{Raw: op.raw}
	if !op.topk {
		s, _, err := e.PairWithPlan(ctx, p, op.src, op.dst, opts)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", math.Float64bits(s))
	}
	k := op.k
	if k == 0 {
		k = 4
	}
	top, _, err := e.TopKSearchWithPlan(ctx, p, op.src, k, op.eps, opts)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, s := range top {
		fmt.Fprintf(&b, "%d:%x ", s.Index, math.Float64bits(s.Score))
	}
	return b.String()
}

// One seeded stream of pair and top-k queries over even and odd paths gives
// the same ids and score bits under every cache limit, and every query leaves
// the cache within its invariants.
func TestEvictionStreamBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := oddGraph(seed)
		ops := evictionStream(g, seed, 300)
		unbounded := NewEngine(g)
		want := make([]string, len(ops))
		for i, op := range ops {
			want[i] = runEvictionOp(t, unbounded, op)
		}
		for _, limit := range []int{1, 2, 8} {
			e := NewEngine(g, WithCacheLimit(limit))
			for i, op := range ops {
				if got := runEvictionOp(t, e, op); got != want[i] {
					t.Fatalf("seed %d limit %d op %d %+v: got %s, unbounded %s", seed, limit, i, op, got, want[i])
				}
				checkCacheInvariants(t, e, fmt.Sprintf("seed %d limit %d op %d", seed, limit, i))
			}
			if e.CacheStats().Evictions == 0 {
				t.Errorf("seed %d limit %d: the stream evicted nothing", seed, limit)
			}
		}
	}
}

// A seeded stream of repeated top-k and pair queries over even and odd paths,
// normalized and raw, pruned and not, returns the unbounded engine's ids and
// score bits under every cache limit. A top-k that finds its right
// half-chain resident scans it through a transpose only while the cache has
// room for one: never under a one-entry limit, where it scans the chain's
// rows, and, under a limit the stream's working set fits in, as the
// unbounded engine does.
func TestDifferentialTopKBoundedCache(t *testing.T) {
	specs := []string{"APA", "APVPA", "APTPA", "APVC", "CVPA", "APT", "APAP", "VPAPV"}
	transposeScans := func() uint64 { return scanTransposeOnce.count.Value() + scanTransposed.count.Value() }
	for _, seed := range []int64{4, 5, 6} {
		g := oddGraph(seed)
		rng := rand.New(rand.NewSource(seed))
		ops := make([]evictionOp, 400)
		for i := range ops {
			p := metapath.MustParse(g.Schema(), specs[rng.Intn(len(specs))])
			ops[i] = evictionOp{
				spec: p.String(), topk: rng.Intn(3) > 0, raw: rng.Intn(4) == 0,
				src: rng.Intn(g.NodeCount(p.Source())), dst: rng.Intn(g.NodeCount(p.Target())),
				k: 1 + rng.Intn(g.NodeCount(p.Target())+1), eps: []float64{0, 0, 1e-3}[rng.Intn(3)],
			}
		}
		before := transposeScans()
		unbounded := NewEngine(g)
		want := make([]string, len(ops))
		for i, op := range ops {
			want[i] = runEvictionOp(t, unbounded, op)
		}
		unboundedScans := transposeScans() - before
		if unboundedScans == 0 {
			t.Fatalf("seed %d: the unbounded engine never transposed a reused chain", seed)
		}
		for _, limit := range []int{1, 2, 8, 64} {
			e := NewEngine(g, WithCacheLimit(limit))
			before, scans := transposeScans(), map[*scanKind]int{}
			for i, op := range ops {
				right := e.chainCacheKey(splitPath(metapath.MustParse(g.Schema(), op.spec)).right())
				if op.topk {
					scans[e.warmScan(right)]++
				}
				if got := runEvictionOp(t, e, op); got != want[i] {
					t.Fatalf("seed %d limit %d op %d %+v: got %s, unbounded %s", seed, limit, i, op, got, want[i])
				}
				checkCacheInvariants(t, e, fmt.Sprintf("seed %d limit %d op %d", seed, limit, i))
			}
			moved := transposeScans() - before
			switch {
			case limit == 1 && moved != 0:
				t.Errorf("seed %d limit 1: %d transpose scans beside a chain that fills the cache", seed, moved)
			case limit < 64 && scans[scanRows] == 0:
				t.Errorf("seed %d limit %d: no top-k scanned the rows of a resident chain", seed, limit)
			case limit == 64 && (moved != unboundedScans || scans[scanRows] != 0):
				t.Errorf("seed %d limit 64: %d transpose scans, %d row scans of resident chains; the unbounded engine ran %d and none",
					seed, moved, scans[scanRows], unboundedScans)
			}
		}
	}
}

// cachePut never evicts the entry it installs, installs a transpose only
// beside its chain and while that evicts nothing, and every put leaves the
// cache within its invariants: a transpose only beside its chain, norms only
// for resident chains.
func TestCachePutKeepsInstalledEntry(t *testing.T) {
	g := randomBibGraph(5)
	ctx := context.Background()
	src := NewEngine(g)
	for _, spec := range []string{"APVCVPA", "APTPA", "APA", "CVPA", "APVPA"} {
		p := metapath.MustParse(g.Schema(), spec)
		if err := src.Precompute(ctx, p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // the second top-k transposes the right chain
			if _, err := src.TopKSearch(ctx, p, 0, 3, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	chains := src.ExportChains()
	keys := make([]string, 0, len(chains))
	for k := range chains {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, limit := range []int{1, 2, 3, 5} {
		e := NewEngine(g, WithCacheLimit(limit))
		rng := rand.New(rand.NewSource(int64(limit)))
		for i := 0; i < 400; i++ {
			key := keys[rng.Intn(len(keys))]
			base, transposed := strings.CutPrefix(key, "T:")
			kept := !transposed || resident(e, key) || (resident(e, base) && len(residentKeys(e)) < limit)
			evictions := e.CacheStats().Evictions
			e.cachePut(key, chains[key])
			if got := resident(e, key); got != kept {
				t.Fatalf("limit %d put %d: %s resident = %v, want %v", limit, i, key, got, kept)
			}
			if transposed && e.CacheStats().Evictions != evictions {
				t.Fatalf("limit %d put %d: installing %s evicted", limit, i, key)
			}
			if strings.HasPrefix(key, "C:") {
				e.chainRowNorms(key, chains[key], weights{})
			}
			checkCacheInvariants(t, e, fmt.Sprintf("limit %d put %d (%s)", limit, i, key))
		}
	}
}

// hotColdGraph joins authors to hubs completely (the relation "hot") and to
// one of ten spokes each by a private relation: a chain over "hot" costs n³
// flops per step after the first, a spoke round trip a few per author.
func hotColdGraph(n int) *hin.Graph {
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("hub", 'H')
	s.MustAddRelation("hot", "author", "hub")
	for i := 0; i < 10; i++ {
		s.MustAddType(fmt.Sprintf("spoke%d", i), byte('0'+i))
		s.MustAddRelation(fmt.Sprintf("cold%d", i), "author", fmt.Sprintf("spoke%d", i))
	}
	b := hin.NewBuilder(s)
	for a := 0; a < n; a++ {
		for h := 0; h < n; h++ {
			b.AddEdge("hot", fmt.Sprintf("a%d", a), fmt.Sprintf("h%d", h))
		}
		for i := 0; i < 10; i++ {
			b.AddEdge(fmt.Sprintf("cold%d", i), fmt.Sprintf("a%d", a), fmt.Sprintf("s%d_%d", i, a%3))
		}
	}
	return b.MustBuild()
}

// A chain that is expensive to rebuild and asked for again between bursts of
// cheap one-off chains stays resident: insertion-order eviction drops it once
// a burst outnumbers the limit, GreedyDual-Size drops the one-offs.
func TestHotExpensiveChainStaysResident(t *testing.T) {
	g := hotColdGraph(30)
	ctx := context.Background()
	e := NewEngine(g, WithCacheLimit(4))
	hot := metapath.MustParse(g.Schema(), "AHAH")
	hotKey := stepsKey(hot.Steps())
	if _, err := e.ReachableMatrix(ctx, hot); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 3; i++ { // three one-off spoke chains and their prefixes
			spoke := byte('0' + (3*round+i)%10)
			cold := metapath.MustParse(g.Schema(), string([]byte{'A', spoke, 'A'}))
			if round > 2 { // the spokes come round again: longer chains stay one-off
				cold = metapath.MustParse(g.Schema(), string([]byte{'A', spoke, 'A', spoke, 'A'}))
			}
			if _, err := e.ReachableMatrix(ctx, cold); err != nil {
				t.Fatal(err)
			}
			checkCacheInvariants(t, e, fmt.Sprintf("round %d burst %d", round, i))
		}
		if !resident(e, hotKey) {
			t.Fatalf("round %d: hot chain %s evicted by one-off chains; resident %v", round, hotKey, residentKeys(e))
		}
		if _, err := e.ReachableMatrix(ctx, hot); err != nil { // the hit refreshes its credit
			t.Fatal(err)
		}
	}
}

// matrixBytes prices a CSR matrix as its column indices and values plus its
// row offsets, and ChainBytes sums it over the resident entries.
func TestChainBytes(t *testing.T) {
	g := randomBibGraph(3)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APVCVPA")
	if err := e.Precompute(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, m := range e.ExportChains() {
		want += 16*int64(m.NNZ()) + 8*int64(m.Rows()+1)
	}
	if got := e.CacheStats().ChainBytes; got != want || got == 0 {
		t.Fatalf("ChainBytes = %d, want %d", got, want)
	}
	e.ClearCache()
	if got := e.CacheStats().ChainBytes; got != 0 {
		t.Fatalf("ChainBytes after ClearCache = %d", got)
	}
}
