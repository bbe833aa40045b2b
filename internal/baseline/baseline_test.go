package baseline

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/sparse"
)

func fig4Graph(t *testing.T) *hin.Graph {
	t.Helper()
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("conference", 'C')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("published_in", "paper", "conference")
	b := hin.NewBuilder(s)
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

func TestPCRWValuesAndAsymmetry(t *testing.T) {
	g := fig4Graph(t)
	m := NewPCRWFromEngine(core.NewEngine(g))
	apc := metapath.MustParse(g.Schema(), "APC")
	cpa := apc.Reverse()

	// All of Tom's papers are in KDD: forward PCRW is 1.
	fwd, err := m.Pair(context.Background(), apc, "Tom", "KDD")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fwd-1) > 1e-12 {
		t.Errorf("PCRW(Tom, KDD | APC) = %v, want 1", fwd)
	}
	// Backward: KDD reaches p1 (sole author Tom) and p2 (Tom or Mary):
	// 1/2·1 + 1/2·1/2 = 0.75. The asymmetry Table 3 demonstrates.
	bwd, err := m.Pair(context.Background(), cpa, "KDD", "Tom")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bwd-0.75) > 1e-12 {
		t.Errorf("PCRW(KDD, Tom | CPA) = %v, want 0.75", bwd)
	}
	if fwd == bwd {
		t.Error("PCRW should be asymmetric on this pair")
	}

	// HeteSim on the same pair is symmetric by Property 3.
	e := core.NewEngine(g)
	h1, _ := e.Pair(context.Background(), apc, "Tom", "KDD")
	h2, _ := e.Pair(context.Background(), cpa, "KDD", "Tom")
	if math.Abs(h1-h2) > 1e-12 {
		t.Errorf("HeteSim asymmetric: %v vs %v", h1, h2)
	}
}

func TestPCRWPlansAgree(t *testing.T) {
	g := fig4Graph(t)
	m := NewPCRWFromEngine(core.NewEngine(g))
	p := metapath.MustParse(g.Schema(), "APC")
	all, err := m.AllPairs(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NodeCount("author"); i++ {
		ss, err := m.SingleSourceByIndex(context.Background(), p, i)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ss {
			pv, err := m.PairByIndex(context.Background(), p, i, j)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ss[j]-all.At(i, j)) > 1e-12 || math.Abs(pv-ss[j]) > 1e-12 {
				t.Fatalf("PCRW plans disagree at (%d,%d)", i, j)
			}
		}
	}
	if _, err := m.Pair(context.Background(), p, "Nobody", "KDD"); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("unknown node err = %v", err)
	}
	if _, err := m.PairByIndex(context.Background(), p, 0, 99); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("bad index err = %v", err)
	}
}

func TestPCRWRowsAreDistributions(t *testing.T) {
	g := fig4Graph(t)
	m := NewPCRWFromEngine(core.NewEngine(g))
	p := metapath.MustParse(g.Schema(), "APC")
	all, _ := m.AllPairs(context.Background(), p)
	for i, s := range all.RowSums() {
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("PCRW row %d sums to %v, want 1 (no dead ends here)", i, s)
		}
	}
}

// pathSimReference is PathSim by its definition: the full n×n count matrix
// M of p, the product of the raw adjacency matrices along the whole path,
// and 2·M(a,b) / (M(a,a) + M(b,b)) over its stored entries. The measure
// itself never builds M; the tests hold it to this.
func pathSimReference(t *testing.T, g *hin.Graph, p *metapath.Path) *sparse.Matrix {
	t.Helper()
	var cnt *sparse.Matrix
	for _, s := range p.Steps() {
		w, err := g.Adjacency(s.Relation.Name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Inverse {
			w = w.Transpose()
		}
		if cnt == nil {
			cnt = w
		} else {
			cnt = cnt.Mul(w)
		}
	}
	n, _ := cnt.Dims()
	var out []sparse.Triplet
	for _, tr := range cnt.Triplets() {
		out = append(out, sparse.Triplet{Row: tr.Row, Col: tr.Col,
			Val: 2 * tr.Val / (cnt.At(tr.Row, tr.Row) + cnt.At(tr.Col, tr.Col))})
	}
	return sparse.New(n, n, out)
}

func TestPathSimKnownValues(t *testing.T) {
	g := fig4Graph(t)
	m := NewPathSim(g)
	apa := metapath.MustParse(g.Schema(), "APA")
	// Count matrix: Tom-Tom 2, Tom-Mary 1, Mary-Mary 2, Bob-Bob 1.
	got, err := m.Pair(context.Background(), apa, "Tom", "Mary")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("PathSim(Tom, Mary | APA) = %v, want 0.5", got)
	}
	self, _ := m.Pair(context.Background(), apa, "Tom", "Tom")
	if math.Abs(self-1) > 1e-12 {
		t.Errorf("PathSim self = %v, want 1", self)
	}
	zero, _ := m.Pair(context.Background(), apa, "Tom", "Bob")
	if zero != 0 {
		t.Errorf("PathSim(Tom, Bob) = %v, want 0", zero)
	}
}

func TestPathSimRejectsAsymmetricPaths(t *testing.T) {
	g := fig4Graph(t)
	m := NewPathSim(g)
	apc := metapath.MustParse(g.Schema(), "APC")
	if _, err := m.SingleSourceByIndex(context.Background(), apc, 0); !errors.Is(err, ErrAsymmetricPath) {
		t.Errorf("SingleSourceByIndex on APC err = %v, want ErrAsymmetricPath", err)
	}
	if _, err := m.Pair(context.Background(), apc, "Tom", "KDD"); !errors.Is(err, ErrAsymmetricPath) {
		t.Errorf("Pair on APC err = %v", err)
	}
	if _, err := m.PairByIndex(context.Background(), apc, 0, 0); !errors.Is(err, ErrAsymmetricPath) {
		t.Errorf("PairByIndex on APC err = %v", err)
	}
}

func TestPathSimMatrixSymmetricWithUnitDiagonal(t *testing.T) {
	g := fig4Graph(t)
	m := NewPathSim(g)
	apa := metapath.MustParse(g.Schema(), "APA")
	all := pathSimReference(t, g, apa)
	if !all.ApproxEqual(all.Transpose(), 1e-12) {
		t.Error("PathSim matrix not symmetric")
	}
	n := g.NodeCount("author")
	for i := 0; i < n; i++ {
		if math.Abs(all.At(i, i)-1) > 1e-12 {
			t.Errorf("PathSim(%d,%d) = %v, want 1", i, i, all.At(i, i))
		}
	}
	ss, err := m.SingleSource(context.Background(), apa, "Tom")
	if err != nil {
		t.Fatal(err)
	}
	for j := range ss {
		if math.Abs(ss[j]-all.At(0, j)) > 1e-12 {
			t.Fatalf("SingleSource disagrees with AllPairs at %d", j)
		}
	}
}

func TestPathSimSubsetMatchesAllPairs(t *testing.T) {
	g := fig4Graph(t)
	m := NewPathSim(g)
	apa := metapath.MustParse(g.Schema(), "APA")
	all := pathSimReference(t, g, apa)
	idx := []int{2, 0}
	sub, err := m.Subset(context.Background(), apa, idx)
	if err != nil {
		t.Fatal(err)
	}
	for a, i := range idx {
		for b, j := range idx {
			if math.Abs(sub.At(a, b)-all.At(i, j)) > 1e-12 {
				t.Errorf("Subset(%d,%d) = %v, want %v", a, b, sub.At(a, b), all.At(i, j))
			}
		}
	}
	if _, err := m.Subset(context.Background(), apa, []int{99}); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("bad subset index err = %v", err)
	}
	apc := metapath.MustParse(g.Schema(), "APC")
	if _, err := m.Subset(context.Background(), apc, idx); !errors.Is(err, ErrAsymmetricPath) {
		t.Errorf("asymmetric subset err = %v", err)
	}
}

func randomBipartite(rng *rand.Rand, nA, nB int) *sparse.Matrix {
	var ts []sparse.Triplet
	for i := 0; i < nA; i++ {
		deg := 1 + rng.Intn(3)
		for k := 0; k < deg; k++ {
			ts = append(ts, sparse.Triplet{Row: i, Col: rng.Intn(nB), Val: 1})
		}
	}
	return sparse.New(nA, nB, ts)
}

func bipartiteGraph(w *sparse.Matrix) *hin.Graph {
	s := hin.NewSchema()
	s.MustAddType("A", 'A')
	s.MustAddType("B", 'B')
	s.MustAddRelation("r", "A", "B")
	b := hin.NewBuilder(s)
	nA, nB := w.Dims()
	for i := 0; i < nA; i++ {
		b.AddNode("A", "a"+strconv.Itoa(i))
	}
	for j := 0; j < nB; j++ {
		b.AddNode("B", "b"+strconv.Itoa(j))
	}
	for _, t := range w.Triplets() {
		b.AddWeightedEdge("r", "a"+strconv.Itoa(t.Row), "b"+strconv.Itoa(t.Col), t.Val)
	}
	return b.MustBuild()
}

func TestProperty5SimRankConnection(t *testing.T) {
	// Property 5: on a bipartite graph with C = 1, the k-th iterate of
	// the pairwise random-walk recursion equals the unnormalized
	// HeteSim(a1, a2 | (R R^-1)^k) for every k.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomBipartite(rng, 3+rng.Intn(4), 3+rng.Intn(4))
		g := bipartiteGraph(w)
		e := core.NewEngine(g, core.WithNormalization(false))
		nA, _ := w.Dims()
		for k := 1; k <= 3; k++ {
			// Build the path A(BA)^k: "ABA", "ABABA", ...
			spec := "A" + strings.Repeat("BA", k)
			p := metapath.MustParse(g.Schema(), spec)
			hs, err := e.AllPairs(context.Background(), p)
			if err != nil {
				return false
			}
			sr := SimRankBipartiteRecursion(w, k)
			for i := 0; i < nA; i++ {
				for j := 0; j < nA; j++ {
					if math.Abs(hs.At(i, j)-sr[i][j]) > 1e-10 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSimRankBasics(t *testing.T) {
	// Two nodes pointed at by a common node become similar.
	adj := sparse.FromDense([][]float64{
		{0, 1, 1},
		{0, 0, 0},
		{0, 0, 0},
	})
	s := SimRank(adj, 0.8, 10)
	if s[0][0] != 1 || s[1][1] != 1 {
		t.Error("diagonal must be 1")
	}
	if math.Abs(s[1][2]-0.8) > 1e-12 {
		t.Errorf("s(1,2) = %v, want 0.8 (single common in-neighbor)", s[1][2])
	}
	if s[1][2] != s[2][1] {
		t.Error("SimRank must be symmetric")
	}
	if s[0][1] != 0 {
		t.Errorf("s(0,1) = %v, want 0 (node 0 has no in-neighbors)", s[0][1])
	}
}

func TestSimRankPanicsOnNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SimRank(sparse.Zeros(2, 3), 0.8, 1)
}

func TestSimRankBipartiteBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := randomBipartite(rng, 5, 6)
	res := SimRankBipartite(w, 0.8, 8)
	for i := range res.A {
		if math.Abs(res.A[i][i]-1) > 1e-12 {
			t.Errorf("A diag %d = %v", i, res.A[i][i])
		}
		for j := range res.A[i] {
			if res.A[i][j] < -1e-12 || res.A[i][j] > 1+1e-12 {
				t.Errorf("A(%d,%d) = %v outside [0,1]", i, j, res.A[i][j])
			}
			if math.Abs(res.A[i][j]-res.A[j][i]) > 1e-12 {
				t.Error("A not symmetric")
			}
		}
	}
	for j := range res.B {
		if math.Abs(res.B[j][j]-1) > 1e-12 {
			t.Errorf("B diag %d = %v", j, res.B[j][j])
		}
	}
}

func TestGlobalGraph(t *testing.T) {
	g := fig4Graph(t)
	adj, nodes, offsets := GlobalGraph(g)
	if len(nodes) != g.TotalNodes() {
		t.Fatalf("global nodes = %d, want %d", len(nodes), g.TotalNodes())
	}
	n, m := adj.Dims()
	if n != len(nodes) || m != len(nodes) {
		t.Fatalf("global adjacency %dx%d", n, m)
	}
	if !adj.ApproxEqual(adj.Transpose(), 0) {
		t.Error("global adjacency must be symmetric (R and R^-1)")
	}
	// Tom's global row must connect to p1 and p2.
	tom, _ := g.NodeIndex("author", "Tom")
	p1, _ := g.NodeIndex("paper", "p1")
	if adj.At(offsets["author"]+tom, offsets["paper"]+p1) != 1 {
		t.Error("missing Tom->p1 in global graph")
	}
}

func TestPCRWSharesEngineCaches(t *testing.T) {
	g := fig4Graph(t)
	e := core.NewEngine(g)
	m := NewPCRWFromEngine(e)
	p := metapath.MustParse(g.Schema(), "APC")
	if _, err := m.AllPairs(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if e.CacheSize() == 0 {
		t.Error("PCRW via shared engine should populate its caches")
	}
}
