package exp

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
)

// Tests of the sampled-walk estimator (PairSampler) of Section 4.6 on the
// small fixture graphs the engine's own tests use, rebuilt here.

func fig4Schema() *hin.Schema {
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("conference", 'C')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("published_in", "paper", "conference")
	return s
}

// fig4Graph is the paper's Fig. 4 example: all of Tom's papers are in KDD.
func fig4Graph() *hin.Graph {
	b := hin.NewBuilder(fig4Schema())
	for _, e := range [][2]string{{"Tom", "p1"}, {"Tom", "p2"}, {"Mary", "p2"}, {"Mary", "p3"}, {"Bob", "p4"}} {
		b.AddEdge("writes", e[0], e[1])
	}
	for _, e := range [][2]string{{"p1", "KDD"}, {"p2", "KDD"}, {"p3", "SIGMOD"}, {"p4", "SIGMOD"}} {
		b.AddEdge("published_in", e[0], e[1])
	}
	return b.MustBuild()
}

// fig5Graph is the paper's Fig. 5 atomic relation A → B.
func fig5Graph() *hin.Graph {
	s := hin.NewSchema()
	s.MustAddType("A", 'A')
	s.MustAddType("B", 'B')
	s.MustAddRelation("r", "A", "B")
	b := hin.NewBuilder(s)
	for _, e := range [][2]string{{"a1", "b1"}, {"a1", "b2"}, {"a2", "b2"}, {"a2", "b3"}, {"a2", "b4"}, {"a3", "b4"}} {
		b.AddEdge("r", e[0], e[1])
	}
	return b.MustBuild()
}

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

// randomBibGraph generates a random ACM-style 0/1 graph.
func randomBibGraph(seed int64) *hin.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder(bibSchema())
	nA, nP, nV, nC, nT := 4+rng.Intn(6), 8+rng.Intn(10), 3+rng.Intn(4), 2+rng.Intn(3), 3+rng.Intn(5)
	id := func(prefix byte, i int) string { return string(prefix) + strconv.Itoa(i) }
	for i := 0; i < nP; i++ {
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

// oddGraph generates a random weighted ACM-style graph with dangling nodes on
// every type, for odd and even paths alike.
func oddGraph(seed int64) *hin.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder(bibSchema())
	n := map[byte]int{'a': 5 + rng.Intn(4), 'p': 10 + rng.Intn(8), 'v': 4 + rng.Intn(3), 'c': 2 + rng.Intn(2), 't': 4 + rng.Intn(4)}
	types := map[byte]string{'a': "author", 'p': "paper", 'v': "venue", 'c': "conference", 't': "term"}
	for _, prefix := range []byte("apvct") {
		for i := 0; i < n[prefix]; i++ {
			b.AddNode(types[prefix], string(prefix)+strconv.Itoa(i))
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
	pick := func(prefix byte, last int) string { return string(prefix) + strconv.Itoa(rng.Intn(last)) }
	for i := 0; i < n['p']; i++ {
		p := "p" + strconv.Itoa(i)
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
		edge("part_of", "v"+strconv.Itoa(i), pick('c', n['c']))
	}
	return b.MustBuild()
}

// sample estimates one pair, failing the test on a sampler error.
func sample(t *testing.T, g *hin.Graph, spec string, src, dst, walks int, seed int64, raw bool) float64 {
	t.Helper()
	s, err := NewPairSampler(g, metapath.MustParse(g.Schema(), spec))
	if err != nil {
		t.Fatal(err)
	}
	score, err := s.Estimate(src, dst, walks, seed, raw)
	if err != nil {
		t.Fatal(err)
	}
	return score
}

func TestPairMonteCarloConvergesRaw(t *testing.T) {
	// Example 2 exactly: unnormalized HeteSim(Tom, KDD | APC) = 0.5.
	if got := sample(t, fig4Graph(), "APC", 0, 0, 200000, 1, true); math.Abs(got-0.5) > 0.01 {
		t.Errorf("raw estimate = %v, want ~0.5", got)
	}
}

func TestPairMonteCarloConvergesNormalized(t *testing.T) {
	g := randomBibGraph(41)
	e := core.NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APVC")
	checked := 0
	for src := 0; src < g.NodeCount("author") && checked < 3; src++ {
		for dst := 0; dst < g.NodeCount("conference") && checked < 3; dst++ {
			exact, err := e.PairByIndex(t.Context(), p, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if exact < 0.05 {
				continue
			}
			if got := sample(t, g, "APVC", src, dst, 150000, 7, false); math.Abs(got-exact) > 0.08 {
				t.Errorf("estimate(%d,%d) = %v, exact %v", src, dst, got, exact)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no pairs with non-trivial scores found")
	}
}

func TestPairMonteCarloOddPath(t *testing.T) {
	// Fig. 5 graph, atomic relation: normalized HS(a2, b3) = 1/sqrt(3).
	g := fig5Graph()
	a2, _ := g.NodeIndex("A", "a2")
	b3, _ := g.NodeIndex("B", "b3")
	if got, want := sample(t, g, "AB", a2, b3, 200000, 3, false), 1/math.Sqrt(3); math.Abs(got-want) > 0.03 {
		t.Errorf("odd-path estimate = %v, want ~%v", got, want)
	}
}

func TestPairMonteCarloDeterministicBySeed(t *testing.T) {
	g := randomBibGraph(43)
	if a, b := sample(t, g, "APVC", 0, 0, 1000, 9, false), sample(t, g, "APVC", 0, 0, 1000, 9, false); a != b {
		t.Errorf("same seed produced different estimates: %v, %v", a, b)
	}
}

func TestPairMonteCarloZeroRelatedness(t *testing.T) {
	g := fig4Graph()
	tom, _ := g.NodeIndex("author", "Tom")
	sigmod, _ := g.NodeIndex("conference", "SIGMOD")
	if got := sample(t, g, "APC", tom, sigmod, 5000, 1, false); got != 0 {
		t.Errorf("disjoint supports estimate = %v, want 0", got)
	}
}

func TestPairMonteCarloValidation(t *testing.T) {
	g := fig4Graph()
	s, err := NewPairSampler(g, metapath.MustParse(g.Schema(), "APC"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Estimate(0, 0, 1, 1, false); err == nil {
		t.Error("walks=1 accepted")
	}
	if _, err := s.Estimate(99, 0, 10, 1, false); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("bad src err = %v", err)
	}
	if _, err := s.Estimate(0, 99, 10, 1, false); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("bad dst err = %v", err)
	}
}

func TestPairMonteCarloDanglingSource(t *testing.T) {
	b := hin.NewBuilder(fig4Schema())
	b.AddEdge("writes", "Tom", "p1")
	b.AddEdge("published_in", "p1", "KDD")
	b.AddNode("author", "Idle")
	g := b.MustBuild()
	idle, _ := g.NodeIndex("author", "Idle")
	kdd, _ := g.NodeIndex("conference", "KDD")
	if got := sample(t, g, "APC", idle, kdd, 1000, 1, false); got != 0 {
		t.Errorf("dangling estimate = %v, want 0", got)
	}
}

// TestDifferentialMonteCarloPair checks that the estimator converges to the
// engine's exact score on pairs with non-trivial relevance, under fixed seeds
// so the test is deterministic.
func TestDifferentialMonteCarloPair(t *testing.T) {
	g := randomBibGraph(61)
	e := core.NewEngine(g)
	for _, spec := range []string{"APVC", "APA"} {
		p := metapath.MustParse(g.Schema(), spec)
		nS, nT := g.NodeCount(p.Source()), g.NodeCount(p.Target())
		checked := 0
		for src := 0; src < nS && checked < 2; src++ {
			for dst := 0; dst < nT && checked < 2; dst++ {
				exact, err := e.PairByIndex(t.Context(), p, src, dst)
				if err != nil {
					t.Fatal(err)
				}
				if exact < 0.05 {
					continue
				}
				if got := sample(t, g, spec, src, dst, 80000, 11, false); math.Abs(got-exact) > 0.1 {
					t.Errorf("%s estimate(%d,%d) = %v, exact %v", spec, src, dst, got, exact)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no pairs with non-trivial scores found", spec)
		}
	}
}

// TestDifferentialOddPathsMonteCarloFixedSeed pins the estimator's bits (3000
// walks, seed 42, on oddGraph(7)), raw and normalized, on odd paths — where
// walkers sample rows of A and B, the rows of U_SE and U_TE value for value
// and in the same order, so these equal the edge-object build's estimates —
// and on even ones. Every value was recorded by the engine's sampler before
// it moved here, so the ablation tables stay bit-identical.
func TestDifferentialOddPathsMonteCarloFixedSeed(t *testing.T) {
	g := oddGraph(7)
	pairs := []struct {
		raw      bool
		spec     string
		src, dst int
		bits     uint64
	}{
		{false, "AP", 3, 7, 0x3fd277223277275e},
		{false, "AP", 3, 13, 0x3fe3a0569062e2d5},
		{false, "AP", 4, 0, 0x3fdd2188e952ec3d},
		{false, "PV", 2, 2, 0x3fcc4be574e94334},
		{false, "PV", 4, 2, 0x3fe7ec6d670f5ca9},
		{false, "PV", 6, 2, 0x3fd0a9d374b6756d},
		{false, "APVC", 0, 2, 0x3fe30c1fceb3b5b6},
		{false, "APVC", 1, 1, 0x3fbc44e5d3793638},
		{false, "APVC", 5, 1, 0x3fbb4efca4260b4f},
		{false, "CVPA", 1, 1, 0x3fc06d7c6a2cf504},
		{false, "CVPA", 1, 5, 0x3fc06ef84376e5cd},
		{false, "CVPA", 2, 0, 0x3fe3746e8a806828},
		{false, "APTP", 0, 0, 0x3fcc7ad8127c3897},
		{false, "APTP", 0, 4, 0x3fb0ed53e947377b},
		{false, "APTP", 1, 7, 0x3fc85310ec8f0f75},
		{false, "APAPVC", 0, 2, 0x3fea4c61ac0e58b5},
		{false, "APAPVC", 1, 1, 0x3fca4669046ed135},
		{false, "APAPVC", 3, 1, 0x3f910638ef8c29ae},
		{true, "AP", 3, 7, 0x3fbf2fa3a34f6c96},
		{true, "AP", 3, 13, 0x3fd0c8feca1668e0},
		{true, "AP", 4, 0, 0x3fc8a94d242e6bdd},
		{true, "PV", 2, 2, 0x3fb3848221f564e3},
		{true, "PV", 4, 2, 0x3fd756b2dbd19423},
		{true, "PV", 6, 2, 0x3fc04189374bc6a8},
		{true, "APVC", 0, 2, 0x3fd7619f0fb38a95},
		{true, "APVC", 1, 1, 0x3fa01308d963e3bd},
		{true, "APVC", 5, 1, 0x3f8f822bbecaab8a},
		{true, "CVPA", 1, 1, 0x3fa2d371d2c30f85},
		{true, "CVPA", 1, 5, 0x3f9225a0eb0e4809},
		{true, "CVPA", 2, 0, 0x3fd787d9c54a6921},
		{true, "APTP", 0, 0, 0x3fb8d4fdf3b645a2},
		{true, "APTP", 0, 4, 0x3fa2c5f92c5f92c6},
		{true, "APTP", 1, 7, 0x3fa681935a2c0d16},
		{true, "APAPVC", 0, 2, 0x3fbb3585dbee01b9},
		{true, "APAPVC", 1, 1, 0x3f91b67ac28592c3},
		{true, "APAPVC", 3, 1, 0x3f61b1d92b7fe08b},
		{false, "APA", 0, 3, 0x3febe05ea8f159a6},
		{false, "APA", 1, 5, 0x3fd246912016702a},
		{false, "APA", 3, 4, 0x3f96d2e333dce554},
		{true, "APA", 0, 3, 0x3fe21f671529a486},
		{true, "APA", 1, 5, 0x3fbe70e2c12ad81b},
		{true, "APA", 3, 4, 0x3f7b21c475e6362a},
		{false, "VPA", 1, 3, 0x3fdddeb33dc358f0},
		{false, "VPA", 2, 5, 0x3fa9841626e9870a},
		{true, "VPA", 1, 3, 0x3fc9d4b1fd0df515},
		{true, "VPA", 2, 5, 0x3f9220d296c993ec},
		{false, "APTPA", 0, 4, 0x3fde2750798b2448},
		{false, "APTPA", 1, 4, 0x3feb959493c04bb9},
		{false, "APTPA", 3, 5, 0x3fc0e3cb3f6ea31b},
		{true, "APTPA", 0, 4, 0x3fb72015d867c3ed},
		{true, "APTPA", 1, 4, 0x3faf92cd6e0c3539},
		{true, "APTPA", 3, 5, 0x3f8bdedc523438a5},
	}
	for _, c := range pairs {
		got := sample(t, g, c.spec, c.src, c.dst, 3000, 42, c.raw)
		if math.Float64bits(got) != c.bits {
			t.Errorf("%s (%d,%d) raw %v: %v, recorded %v", c.spec, c.src, c.dst, c.raw, got, math.Float64frombits(c.bits))
		}
	}
}
