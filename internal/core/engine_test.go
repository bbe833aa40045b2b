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
)

// fig4Schema is the simple network of Fig. 4: authors write papers that are
// published directly in conferences.
func fig4Schema() *hin.Schema {
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("conference", 'C')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("published_in", "paper", "conference")
	return s
}

// fig4Graph reconstructs the Fig. 4 example: all of Tom's papers are in KDD.
func fig4Graph(t *testing.T) *hin.Graph {
	t.Helper()
	b := hin.NewBuilder(fig4Schema())
	b.AddEdge("writes", "Tom", "p1")
	b.AddEdge("writes", "Tom", "p2")
	b.AddEdge("writes", "Mary", "p2")
	b.AddEdge("writes", "Mary", "p3")
	b.AddEdge("writes", "Bob", "p4")
	b.AddEdge("published_in", "p1", "KDD")
	b.AddEdge("published_in", "p2", "KDD")
	b.AddEdge("published_in", "p3", "SIGMOD")
	b.AddEdge("published_in", "p4", "SIGMOD")
	return b.MustBuild()
}

func TestExample2TomKDD(t *testing.T) {
	// Example 2 of the paper: HeteSim(Tom, KDD | APC) = 0.5 before
	// normalization — Tom and KDD each reach {p1, p2} with probability
	// 0.5, so the meeting probability is 0.5.
	g := fig4Graph(t)
	e := NewEngine(g, WithNormalization(false))
	p := metapath.MustParse(g.Schema(), "APC")
	got, err := e.Pair(context.Background(), p, "Tom", "KDD")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("HeteSim(Tom, KDD | APC) = %v, want 0.5", got)
	}
	// Normalized, Tom's and KDD's paper distributions coincide: cosine 1.
	en := NewEngine(g)
	got, err = en.Pair(context.Background(), p, "Tom", "KDD")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("normalized HeteSim(Tom, KDD | APC) = %v, want 1", got)
	}
	// Tom is not related to SIGMOD via APC (Section 4.2).
	got, err = en.Pair(context.Background(), p, "Tom", "SIGMOD")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("HeteSim(Tom, SIGMOD | APC) = %v, want 0", got)
	}
}

// fig5Graph reconstructs the atomic-relation example of Fig. 5: a bipartite
// A-B graph where a2 connects b2, b3, b4 and b3 connects only a2.
func fig5Graph(t *testing.T) *hin.Graph {
	t.Helper()
	s := hin.NewSchema()
	s.MustAddType("A", 'A')
	s.MustAddType("B", 'B')
	s.MustAddRelation("r", "A", "B")
	b := hin.NewBuilder(s)
	b.AddEdge("r", "a1", "b1")
	b.AddEdge("r", "a1", "b2")
	b.AddEdge("r", "a2", "b2")
	b.AddEdge("r", "a2", "b3")
	b.AddEdge("r", "a2", "b4")
	b.AddEdge("r", "a3", "b4")
	return b.MustBuild()
}

func TestFig5Decomposition(t *testing.T) {
	g := fig5Graph(t)
	p := metapath.MustParse(g.Schema(), "AB")

	// Fig. 5(c): unnormalized HeteSim of a2 is (0, 0.17, 0.33, 0.17).
	e := NewEngine(g, WithNormalization(false))
	rel, err := e.AllPairs(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := g.NodeIndex("A", "a2")
	want := []float64{0, 1.0 / 6, 1.0 / 3, 1.0 / 6}
	for j, w := range want {
		if got := rel.At(a2, j); math.Abs(got-w) > 1e-12 {
			t.Errorf("unnormalized HS(a2, b%d) = %v, want %v", j+1, got, w)
		}
	}
	// The un-normalized measure violates identity of indiscernibles: the
	// analogue of self-relatedness (b3, reachable only from a2) is 1/3,
	// not 1 — the flaw Fig. 5 highlights and normalization fixes.

	// Fig. 5(d): normalized values.
	en := NewEngine(g)
	reln, err := en.AllPairs(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// HS(a2,b3) = (1/3) / ((1/sqrt3)*1) = 1/sqrt3.
	if got, w := reln.At(a2, 2), 1/math.Sqrt(3); math.Abs(got-w) > 1e-12 {
		t.Errorf("normalized HS(a2, b3) = %v, want %v", got, w)
	}
	// HS(a2,b2) = (1/6) / ((1/sqrt3)*(1/sqrt2)) = sqrt6/6.
	if got, w := reln.At(a2, 1), math.Sqrt(6)/6; math.Abs(got-w) > 1e-12 {
		t.Errorf("normalized HS(a2, b2) = %v, want %v", got, w)
	}
	// b3 is more related to a2 than b2 and b4 are, because b3 connects
	// only a2 — the Example 3 observation.
	if !(reln.At(a2, 2) > reln.At(a2, 1)) {
		t.Error("HS(a2,b3) should exceed HS(a2,b2)")
	}
}

func TestEdgeObjectLiteralEquivalence(t *testing.T) {
	// Definition 6 inserts an edge-object type E literally. Build the
	// augmented graph by hand and verify the engine's algebraic shortcut
	// (the collapsed middle relation M) gives identical scores on A[r]B as
	// the literal even path A-E-B on the augmented graph.
	g := fig5Graph(t)
	s2 := hin.NewSchema()
	s2.MustAddType("A", 'A')
	s2.MustAddType("E", 'E')
	s2.MustAddType("B", 'B')
	s2.MustAddRelation("ro", "A", "E")
	s2.MustAddRelation("ri", "E", "B")
	b := hin.NewBuilder(s2)
	w, _ := g.Adjacency("r")
	for k, tr := range w.Triplets() {
		ai, _ := g.NodeID("A", tr.Row)
		bi, _ := g.NodeID("B", tr.Col)
		eid := string(rune('e')) + string(rune('0'+k))
		b.AddEdge("ro", ai, eid)
		b.AddEdge("ri", eid, bi)
	}
	g2 := b.MustBuild()

	e1 := NewEngine(g)
	e2 := NewEngine(g2)
	p1 := metapath.MustParse(g.Schema(), "AB")
	p2 := metapath.MustParse(g2.Schema(), "AEB")
	for i := 0; i < g.NodeCount("A"); i++ {
		for j := 0; j < g.NodeCount("B"); j++ {
			v1, err := e1.PairByIndex(context.Background(), p1, i, j)
			if err != nil {
				t.Fatal(err)
			}
			v2, err := e2.PairByIndex(context.Background(), p2, i, j)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(v1-v2) > 1e-12 {
				t.Errorf("literal vs algebraic mismatch at (%d,%d): %v vs %v", i, j, v1, v2)
			}
		}
	}
}

func TestEdgeObjectLiteralEquivalenceLongPath(t *testing.T) {
	// Definition 6 on a length-3 path: APVC decomposes through the PV
	// relation. Build the literal augmented graph where each paper→venue
	// instance becomes paper→E→venue, making the path APEVC (length 4,
	// meeting at E), and verify identical scores.
	g := randomBibGraph(77)
	s2 := hin.NewSchema()
	s2.MustAddType("author", 'A')
	s2.MustAddType("paper", 'P')
	s2.MustAddType("pubedge", 'E')
	s2.MustAddType("venue", 'V')
	s2.MustAddType("conference", 'C')
	s2.MustAddRelation("writes", "author", "paper")
	s2.MustAddRelation("pub_out", "paper", "pubedge")
	s2.MustAddRelation("pub_in", "pubedge", "venue")
	s2.MustAddRelation("part_of", "venue", "conference")
	b := hin.NewBuilder(s2)
	copyRel := func(name string, srcType, dstType string) {
		w, err := g.Adjacency(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range w.Triplets() {
			src, _ := g.NodeID(srcType, tr.Row)
			dst, _ := g.NodeID(dstType, tr.Col)
			b.AddWeightedEdge(name, src, dst, tr.Val)
		}
	}
	// Pre-register nodes in original index order so indices line up.
	for _, ty := range []string{"author", "paper", "venue", "conference"} {
		for _, id := range g.NodeIDs(ty) {
			b.AddNode(ty, id)
		}
	}
	copyRel("writes", "author", "paper")
	copyRel("part_of", "venue", "conference")
	pub, _ := g.Adjacency("published_in")
	for k, tr := range pub.Triplets() {
		pid, _ := g.NodeID("paper", tr.Row)
		vid, _ := g.NodeID("venue", tr.Col)
		eid := "e" + itoa(k)
		b.AddEdge("pub_out", pid, eid)
		b.AddEdge("pub_in", eid, vid)
	}
	g2 := b.MustBuild()

	p1 := metapath.MustParse(g.Schema(), "APVC")
	p2 := metapath.MustParse(g2.Schema(), "APEVC")
	e1 := NewEngine(g)
	e2 := NewEngine(g2)
	all1, err := e1.AllPairs(context.Background(), p1)
	if err != nil {
		t.Fatal(err)
	}
	all2, err := e2.AllPairs(context.Background(), p2)
	if err != nil {
		t.Fatal(err)
	}
	if !all1.ApproxEqual(all2, 1e-10) {
		t.Error("literal length-3 edge-object insertion disagrees with the engine's factorization")
	}
}

func TestEdgeObjectWeightedEquivalence(t *testing.T) {
	// Property 1's proof splits a weighted relation instance w as sqrt(w)
	// on each half-edge. Verify the engine's factorization matches the
	// literal weighted construction.
	s := hin.NewSchema()
	s.MustAddType("A", 'A')
	s.MustAddType("B", 'B')
	s.MustAddRelation("r", "A", "B")
	b := hin.NewBuilder(s)
	b.AddWeightedEdge("r", "a1", "b1", 4)
	b.AddWeightedEdge("r", "a1", "b2", 1)
	b.AddWeightedEdge("r", "a2", "b2", 9)
	b.AddWeightedEdge("r", "a2", "b3", 2.25)
	g := b.MustBuild()

	s2 := hin.NewSchema()
	s2.MustAddType("A", 'A')
	s2.MustAddType("E", 'E')
	s2.MustAddType("B", 'B')
	s2.MustAddRelation("ro", "A", "E")
	s2.MustAddRelation("ri", "E", "B")
	b2 := hin.NewBuilder(s2)
	w, _ := g.Adjacency("r")
	for k, tr := range w.Triplets() {
		ai, _ := g.NodeID("A", tr.Row)
		bi, _ := g.NodeID("B", tr.Col)
		eid := "e" + itoa(k)
		sq := math.Sqrt(tr.Val)
		b2.AddWeightedEdge("ro", ai, eid, sq)
		b2.AddWeightedEdge("ri", eid, bi, sq)
	}
	g2 := b2.MustBuild()

	p1 := metapath.MustParse(g.Schema(), "AB")
	p2 := metapath.MustParse(g2.Schema(), "AEB")
	for _, normalized := range []bool{true, false} {
		e1 := NewEngine(g, WithNormalization(normalized))
		e2 := NewEngine(g2, WithNormalization(normalized))
		for i := 0; i < g.NodeCount("A"); i++ {
			for j := 0; j < g.NodeCount("B"); j++ {
				v1, err := e1.PairByIndex(context.Background(), p1, i, j)
				if err != nil {
					t.Fatal(err)
				}
				v2, err := e2.PairByIndex(context.Background(), p2, i, j)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(v1-v2) > 1e-12 {
					t.Errorf("normalized=%v (%d,%d): %v vs %v", normalized, i, j, v1, v2)
				}
			}
		}
	}
}

// bibSchema is the author–paper–venue–conference–term schema of the random
// test graphs.
func bibSchema() *hin.Schema {
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("venue", 'V')
	s.MustAddType("conference", 'C')
	s.MustAddType("term", 'T')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("published_in", "paper", "venue")
	s.MustAddRelation("part_of", "venue", "conference")
	s.MustAddRelation("mentions", "paper", "term")
	return s
}

// randomBibGraph generates a random ACM-style graph for property tests.
func randomBibGraph(seed int64) *hin.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder(bibSchema())
	nA, nP, nV, nC, nT := 4+rng.Intn(6), 8+rng.Intn(10), 3+rng.Intn(4), 2+rng.Intn(3), 3+rng.Intn(5)
	id := func(prefix byte, i int) string { return string(prefix) + itoa(i) }
	for i := 0; i < nP; i++ {
		// Each paper gets 1-3 authors, a venue, and 1-2 terms.
		for k := 0; k < 1+rng.Intn(3); k++ {
			b.AddEdge("writes", id('a', rng.Intn(nA)), id('p', i))
		}
		b.AddEdge("published_in", id('p', i), id('v', rng.Intn(nV)))
		for k := 0; k < 1+rng.Intn(2); k++ {
			b.AddEdge("mentions", id('p', i), id('t', rng.Intn(nT)))
		}
	}
	for i := 0; i < nV; i++ {
		b.AddNode("venue", id('v', i))
		b.AddEdge("part_of", id('v', i), id('c', rng.Intn(nC)))
	}
	return b.MustBuild()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}

var testPaths = []string{"AP", "APV", "APVC", "APA", "APVCVPA", "APTPA", "CVPA", "VPA", "APT", "TPA", "APVCV"}

func TestProperty3Symmetry(t *testing.T) {
	// HeteSim(a, b | P) = HeteSim(b, a | P^-1) for arbitrary paths —
	// the paper's headline symmetry property.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBibGraph(seed)
		e := NewEngine(g)
		spec := testPaths[rng.Intn(len(testPaths))]
		p := metapath.MustParse(g.Schema(), spec)
		fwd, err := e.AllPairs(context.Background(), p)
		if err != nil {
			return false
		}
		bwd, err := e.AllPairs(context.Background(), p.Reverse())
		if err != nil {
			return false
		}
		return fwd.ApproxEqual(bwd.Transpose(), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestProperty4SelfMaximum(t *testing.T) {
	// Normalized HeteSim lies in [0,1]; on a symmetric path every node
	// with any reachable middle distribution has self-relatedness 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBibGraph(seed)
		e := NewEngine(g)
		symPaths := []string{"APA", "APVCVPA", "APTPA"}
		p := metapath.MustParse(g.Schema(), symPaths[rng.Intn(len(symPaths))])
		rel, err := e.AllPairs(context.Background(), p)
		if err != nil {
			return false
		}
		n := g.NodeCount("author")
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := rel.At(i, j)
				if v < -1e-12 || v > 1+1e-12 {
					return false
				}
			}
			// Authors with no papers have zero distributions; skip.
			if deg, _ := g.Degree("writes", i); deg == 0 {
				continue
			}
			if math.Abs(rel.At(i, i)-1) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQueryPlansAgree(t *testing.T) {
	// Pair, SingleSource and AllPairs are three plans for the same
	// quantity and must agree to numerical precision on every pair.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBibGraph(seed)
		e := NewEngine(g)
		spec := testPaths[rng.Intn(len(testPaths))]
		p := metapath.MustParse(g.Schema(), spec)
		all, err := e.AllPairs(context.Background(), p)
		if err != nil {
			return false
		}
		nS := g.NodeCount(p.Source())
		nT := g.NodeCount(p.Target())
		for trial := 0; trial < 5; trial++ {
			i := rng.Intn(nS)
			ss, err := e.SingleSourceByIndex(context.Background(), p, i)
			if err != nil {
				return false
			}
			j := rng.Intn(nT)
			pv, err := e.PairByIndex(context.Background(), p, i, j)
			if err != nil {
				return false
			}
			if math.Abs(ss[j]-all.At(i, j)) > 1e-10 || math.Abs(pv-all.At(i, j)) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestUnnormalizedPlansAgreeToo(t *testing.T) {
	g := randomBibGraph(99)
	e := NewEngine(g, WithNormalization(false))
	p := metapath.MustParse(g.Schema(), "APVC")
	all, err := e.AllPairs(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NodeCount("author"); i++ {
		ss, err := e.SingleSourceByIndex(context.Background(), p, i)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ss {
			if math.Abs(ss[j]-all.At(i, j)) > 1e-12 {
				t.Fatalf("plan mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestReachableMatrixIsSubStochastic(t *testing.T) {
	// PM_P rows are probability distributions (sum 1) except where a walk
	// dead-ends (sum 0 contribution): row sums are always in [0, 1].
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBibGraph(seed)
		e := NewEngine(g)
		p := metapath.MustParse(g.Schema(), testPaths[rng.Intn(len(testPaths))])
		pm, err := e.ReachableMatrix(context.Background(), p)
		if err != nil {
			return false
		}
		for _, s := range pm.RowSums() {
			if s < -1e-12 || s > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReachableFromMatchesMatrix(t *testing.T) {
	g := randomBibGraph(7)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APVC")
	pm, err := e.ReachableMatrix(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NodeCount("author"); i++ {
		v, err := e.ReachableFrom(context.Background(), p, i)
		if err != nil {
			t.Fatal(err)
		}
		if !v.ApproxEqual(pm.Row(i), 1e-12) {
			t.Fatalf("ReachableFrom(%d) disagrees with matrix row", i)
		}
	}
}

func TestCachingSemantics(t *testing.T) {
	g := randomBibGraph(3)
	p := metapath.MustParse(g.Schema(), "APVCVPA")

	cold := NewEngine(g, WithCaching(false))
	warm := NewEngine(g)
	if err := warm.Precompute(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if warm.CacheSize() == 0 {
		t.Error("Precompute cached nothing")
	}
	a, err := cold.AllPairs(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := warm.AllPairs(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !a.ApproxEqual(b, 1e-12) {
		t.Error("cached and uncached results differ")
	}
	warm.ClearCache()
	if got := warm.CacheSize(); got != 0 {
		t.Errorf("CacheSize after clear = %d", got)
	}
}

func TestPrefixCacheSharedAcrossPaths(t *testing.T) {
	g := randomBibGraph(4)
	e := NewEngine(g)
	// APVCVPA's left half is APVC's reachable prefix; computing the long
	// path first must let the short path reuse cached prefixes.
	long := metapath.MustParse(g.Schema(), "APVCVPA")
	if err := e.Precompute(context.Background(), long); err != nil {
		t.Fatal(err)
	}
	before := e.CacheSize()
	short := metapath.MustParse(g.Schema(), "APV")
	if _, err := e.ReachableMatrix(context.Background(), short); err != nil {
		t.Fatal(err)
	}
	if e.CacheSize() != before {
		t.Errorf("APV reachable matrix should be a cache hit (size %d -> %d)",
			before, e.CacheSize())
	}
}

func TestPairsSubsetMatchesAllPairs(t *testing.T) {
	g := randomBibGraph(13)
	p := metapath.MustParse(g.Schema(), "APVCVPA")
	for _, normalized := range []bool{true, false} {
		e := NewEngine(g, WithNormalization(normalized))
		all, err := e.AllPairs(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NodeCount("author")
		srcs := []int{0, n - 1, 1}
		dsts := []int{n - 1, 0}
		sub, err := e.PairsSubset(context.Background(), p, srcs, dsts)
		if err != nil {
			t.Fatal(err)
		}
		for a, i := range srcs {
			for b, j := range dsts {
				if math.Abs(sub.At(a, b)-all.At(i, j)) > 1e-12 {
					t.Fatalf("normalized=%v: subset (%d,%d) = %v, want %v",
						normalized, a, b, sub.At(a, b), all.At(i, j))
				}
			}
		}
	}
	e := NewEngine(g)
	if _, err := e.PairsSubset(context.Background(), p, []int{-1}, []int{0}); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("bad src subset err = %v", err)
	}
	if _, err := e.PairsSubset(context.Background(), p, []int{0}, []int{999}); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("bad dst subset err = %v", err)
	}
}

func TestErrorPaths(t *testing.T) {
	g := fig4Graph(t)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APC")
	if _, err := e.Pair(context.Background(), p, "Nobody", "KDD"); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("unknown src err = %v", err)
	}
	if _, err := e.Pair(context.Background(), p, "Tom", "ICML"); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("unknown dst err = %v", err)
	}
	if _, err := e.PairByIndex(context.Background(), p, -1, 0); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("bad index err = %v", err)
	}
	if _, err := e.SingleSourceByIndex(context.Background(), p, 100); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("bad single-source index err = %v", err)
	}
	if _, err := e.SingleSource(context.Background(), p, "Nobody"); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("bad single-source id err = %v", err)
	}
	if _, err := e.ReachableFrom(context.Background(), p, 100); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("bad reachable index err = %v", err)
	}
}

func TestDanglingNodesScoreZero(t *testing.T) {
	// An author with no papers has no out-neighbors: Definition 3 sets
	// the relevance to 0 for every target.
	b := hin.NewBuilder(fig4Schema())
	b.AddEdge("writes", "Tom", "p1")
	b.AddEdge("published_in", "p1", "KDD")
	b.AddNode("author", "Idle")
	g := b.MustBuild()
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APC")
	got, err := e.Pair(context.Background(), p, "Idle", "KDD")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("dangling author score = %v, want 0", got)
	}
}

func TestConcurrentQueries(t *testing.T) {
	g := randomBibGraph(21)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APVCVPA")
	want, err := e.AllPairs(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	e.ClearCache()
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < g.NodeCount("author"); i++ {
				ss, err := e.SingleSourceByIndex(context.Background(), p, i)
				if err != nil {
					done <- err
					return
				}
				for j := range ss {
					if math.Abs(ss[j]-want.At(i, j)) > 1e-10 {
						done <- errors.New("concurrent result mismatch")
						return
					}
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestOddPathLeftRightDimensionsAgree(t *testing.T) {
	// For odd paths the left half ends at the middle relation's source type
	// and the right half at its target type; the collapsed middle M joins
	// them with one entry per relation instance, so left·M and the right
	// half agree in width.
	g := randomBibGraph(5)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APVC") // middle step = published_in
	h := splitPath(p)
	if h.middle == nil {
		t.Fatal("APVC must decompose with a middle step")
	}
	pml, err := e.opMatrixChain(context.Background(), h.left())
	if err != nil {
		t.Fatal(err)
	}
	pmr, err := e.opMatrixChain(context.Background(), h.right())
	if err != nil {
		t.Fatal(err)
	}
	mo, err := e.middleOf(h.middle)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := g.Adjacency("published_in")
	if pml.Cols() != g.NodeCount("paper") || pmr.Cols() != g.NodeCount("venue") {
		t.Errorf("half widths: left %d, right %d, want papers %d and venues %d",
			pml.Cols(), pmr.Cols(), g.NodeCount("paper"), g.NodeCount("venue"))
	}
	if r, c := mo.m.Dims(); r != pml.Cols() || c != pmr.Cols() || mo.m.NNZ() != w.NNZ() {
		t.Errorf("M is %dx%d with %d entries, want %dx%d with the relation's %d instances",
			r, c, mo.m.NNZ(), pml.Cols(), pmr.Cols(), w.NNZ())
	}
}
