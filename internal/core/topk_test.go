package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/rank"
)

func TestTopKSearchExactMatchesSingleSource(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBibGraph(seed)
		e := NewEngine(g)
		p := metapath.MustParse(g.Schema(), testPaths[rng.Intn(len(testPaths))])
		src := rng.Intn(g.NodeCount(p.Source()))
		k := 1 + rng.Intn(5)
		got, err := e.TopKSearch(context.Background(), p, src, k, 0)
		if err != nil {
			return false
		}
		ss, err := e.SingleSourceByIndex(context.Background(), p, src)
		if err != nil {
			return false
		}
		// Reference: sort all nonzero scores descending, ties by index.
		type pair struct {
			i int
			v float64
		}
		var ref []pair
		for i, v := range ss {
			if v != 0 {
				ref = append(ref, pair{i, v})
			}
		}
		for i := 1; i < len(ref); i++ { // insertion sort, small n
			for j := i; j > 0 && (ref[j].v > ref[j-1].v ||
				(ref[j].v == ref[j-1].v && ref[j].i < ref[j-1].i)); j-- {
				ref[j], ref[j-1] = ref[j-1], ref[j]
			}
		}
		want := k
		if want > len(ref) {
			want = len(ref)
		}
		if len(got) != want {
			return false
		}
		for i := range got {
			if got[i].Index != ref[i].i || math.Abs(got[i].Score-ref[i].v) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTopKSearchUnnormalized(t *testing.T) {
	g := randomBibGraph(17)
	e := NewEngine(g, WithNormalization(false))
	p := metapath.MustParse(g.Schema(), "APVC")
	got, err := e.TopKSearch(context.Background(), p, 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	ss, _ := e.SingleSourceByIndex(context.Background(), p, 0)
	for _, s := range got {
		if math.Abs(ss[s.Index]-s.Score) > 1e-12 {
			t.Errorf("unnormalized score mismatch at %d", s.Index)
		}
	}
}

func TestTopKSearchPrunedStaysClose(t *testing.T) {
	g := randomBibGraph(19)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APVCVPA")
	exact, err := e.TopKSearch(context.Background(), p, 0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := e.TopKSearch(context.Background(), p, 0, 5, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) == 0 {
		t.Fatal("pruned search returned nothing")
	}
	// The top result must survive light pruning.
	if pruned[0].Index != exact[0].Index {
		t.Errorf("pruned top = %d, exact top = %d", pruned[0].Index, exact[0].Index)
	}
	if math.Abs(pruned[0].Score-exact[0].Score) > 1e-2 {
		t.Errorf("pruned top score %v vs exact %v", pruned[0].Score, exact[0].Score)
	}
}

func TestTopKSearchValidation(t *testing.T) {
	g := randomBibGraph(23)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APVC")
	if _, err := e.TopKSearch(context.Background(), p, 0, 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := e.TopKSearch(context.Background(), p, 0, 3, 1.5); err == nil {
		t.Error("eps>=1 accepted")
	}
	if _, err := e.TopKSearch(context.Background(), p, 0, 3, -0.1); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := e.TopKSearch(context.Background(), p, -1, 3, 0); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("bad src err = %v", err)
	}
}

func TestTopKSearchOnlyReturnsPositiveOverlap(t *testing.T) {
	// A dangling author shares no middle support: empty result.
	b := hin.NewBuilder(fig4Schema())
	b.AddEdge("writes", "Tom", "p1")
	b.AddEdge("published_in", "p1", "KDD")
	b.AddNode("author", "Idle")
	g := b.MustBuild()
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APC")
	idle, _ := g.NodeIndex("author", "Idle")
	got, err := e.TopKSearch(context.Background(), p, idle, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("dangling author results = %v, want none", got)
	}
}

// A non-caching engine must not keep what a top-k builds: not the chain, not
// its transpose (which the transposed-chain operator used to store whatever
// the caching option said).
func TestTopKNonCachingEngineStoresNoChain(t *testing.T) {
	g := randomBibGraph(23)
	e := NewEngine(g, WithCaching(false))
	for _, spec := range []string{"APVCVPA", "APT", "APVC"} {
		p := metapath.MustParse(g.Schema(), spec)
		for i := 0; i < 2; i++ {
			if _, err := e.TopKSearch(context.Background(), p, 0, 3, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := e.CacheStats().Chain; n != 0 {
		t.Errorf("non-caching engine holds %d chain matrices after top-k, want 0", n)
	}
}

// Under a one-entry cache a cold top-k still multiplies its right chain
// exactly once: one SpGEMM per transition after the first (which seeds the
// chain). The prefix and full-chain puts evict each other, so a second lookup
// of the chain for the norms — what topKFrom used to do — would rebuild it.
func TestTopKCacheLimitOneMaterializesOnce(t *testing.T) {
	g := randomBibGraph(23)
	mulTotal := obs.Default().Counter("hetesim_sparse_mul_total", "")
	for _, tc := range []struct {
		spec        string
		transitions int // right chain steps
	}{{"APVCVPA", 3}, {"APVC", 1}, {"APT", 1}} {
		e := NewEngine(g, WithCacheLimit(1))
		p := metapath.MustParse(g.Schema(), tc.spec)
		before := mulTotal.Value()
		if _, err := e.TopKSearch(context.Background(), p, 0, 3, 0); err != nil {
			t.Fatal(err)
		}
		if got, want := mulTotal.Value()-before, uint64(tc.transitions-1); got != want {
			t.Errorf("%s: cold top-k ran %d SpGEMMs, want %d", tc.spec, got, want)
		}
	}
}

// rankScores ranks a dense score vector exactly the way topKFrom ranks: zeros
// dropped, the rest through the one selector.
func rankScores(scores []float64, k int) []Scored {
	sel := rank.NewSelector(k)
	for i, s := range scores {
		if s != 0 {
			sel.Push(i, s)
		}
	}
	return sel.Ranked()
}
