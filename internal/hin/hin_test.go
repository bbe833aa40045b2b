package hin

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// bibSchema builds the ACM-style schema of Fig. 3(a) in the paper.
func bibSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
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

func TestSchemaTypeLookups(t *testing.T) {
	s := bibSchema(t)
	if !s.HasType("author") || s.HasType("movie") {
		t.Error("HasType wrong")
	}
	name, err := s.TypeByAbbrev('V')
	if err != nil || name != "venue" {
		t.Errorf("TypeByAbbrev(V) = %q, %v", name, err)
	}
	if _, err := s.TypeByAbbrev('X'); !errors.Is(err, ErrUnknownType) {
		t.Errorf("TypeByAbbrev(X) err = %v, want ErrUnknownType", err)
	}
}

func TestSchemaDuplicateRejection(t *testing.T) {
	s := bibSchema(t)
	if err := s.AddType("author", 0); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate type err = %v", err)
	}
	if err := s.AddType("area", 'A'); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate abbrev err = %v", err)
	}
	if err := s.AddRelation("writes", "author", "paper"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate relation err = %v", err)
	}
	if err := s.AddRelation("loves", "author", "movie"); !errors.Is(err, ErrUnknownType) {
		t.Errorf("relation with unknown type err = %v", err)
	}
}

func TestRelationBetween(t *testing.T) {
	s := bibSchema(t)
	rel, inv, err := s.RelationBetween("author", "paper")
	if err != nil || rel.Name != "writes" || inv {
		t.Errorf("author->paper = %v inv=%v err=%v", rel, inv, err)
	}
	rel, inv, err = s.RelationBetween("paper", "author")
	if err != nil || rel.Name != "writes" || !inv {
		t.Errorf("paper->author = %v inv=%v err=%v; want inverse of writes", rel, inv, err)
	}
	if _, _, err := s.RelationBetween("author", "conference"); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("author->conference err = %v", err)
	}
	// Ambiguity: add a second author->paper relation.
	s.MustAddRelation("reviews", "author", "paper")
	if _, _, err := s.RelationBetween("author", "paper"); !errors.Is(err, ErrAmbiguous) {
		t.Errorf("ambiguous err = %v", err)
	}
}

func toyGraph(t *testing.T) *Graph {
	t.Helper()
	// The Fig. 4 toy network: Tom/Mary/Bob write papers published in
	// KDD/SIGMOD venues of KDD/SIGMOD conferences.
	b := NewBuilder(bibSchema(t))
	b.AddEdge("writes", "Tom", "p1")
	b.AddEdge("writes", "Tom", "p2")
	b.AddEdge("writes", "Mary", "p2")
	b.AddEdge("writes", "Mary", "p3")
	b.AddEdge("writes", "Bob", "p4")
	b.AddEdge("published_in", "p1", "KDD09")
	b.AddEdge("published_in", "p2", "KDD10")
	b.AddEdge("published_in", "p3", "SIGMOD10")
	b.AddEdge("published_in", "p4", "SIGMOD10")
	b.AddEdge("part_of", "KDD09", "KDD")
	b.AddEdge("part_of", "KDD10", "KDD")
	b.AddEdge("part_of", "SIGMOD10", "SIGMOD")
	return b.MustBuild()
}

func TestBuilderAndGraphAccessors(t *testing.T) {
	g := toyGraph(t)
	if got := g.NodeCount("author"); got != 3 {
		t.Errorf("author count = %d, want 3", got)
	}
	if got := g.NodeCount("movie"); got != 0 {
		t.Errorf("unknown type count = %d, want 0", got)
	}
	if got := g.TotalNodes(); got != 3+4+3+2 {
		t.Errorf("TotalNodes = %d, want 12", got)
	}
	if got := g.TotalEdges(); got != 12 {
		t.Errorf("TotalEdges = %d, want 12", got)
	}
	i, err := g.NodeIndex("author", "Mary")
	if err != nil || i != 1 {
		t.Errorf("NodeIndex(Mary) = %d, %v", i, err)
	}
	id, err := g.NodeID("author", 1)
	if err != nil || id != "Mary" {
		t.Errorf("NodeID(1) = %q, %v", id, err)
	}
	if _, err := g.NodeIndex("author", "Zed"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node err = %v", err)
	}
	if _, err := g.NodeID("author", 9); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("bad index err = %v", err)
	}
	if _, err := g.NodeIndex("movie", "x"); !errors.Is(err, ErrUnknownType) {
		t.Errorf("unknown type err = %v", err)
	}
	if _, err := g.NodeIndex("author", "Tom"); err != nil {
		t.Errorf("known node err = %v", err)
	}
	ids := g.NodeIDs("conference")
	if !reflect.DeepEqual(ids, []string{"KDD", "SIGMOD"}) {
		t.Errorf("conference IDs = %v", ids)
	}
}

func TestAdjacencyAndNeighbors(t *testing.T) {
	g := toyGraph(t)
	w, err := g.Adjacency("writes")
	if err != nil {
		t.Fatal(err)
	}
	r, c := w.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("writes dims = %dx%d, want 3x4", r, c)
	}
	tom, _ := g.NodeIndex("author", "Tom")
	deg, err := g.Degree("writes", tom)
	if err != nil || deg != 2 {
		t.Errorf("Degree(Tom) = %d, %v", deg, err)
	}
	nb, err := g.Neighbors("writes", tom)
	if err != nil || !reflect.DeepEqual(nb, []int{0, 1}) {
		t.Errorf("Neighbors(Tom) = %v, %v", nb, err)
	}
	if _, err := g.Adjacency("nope"); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("unknown relation err = %v", err)
	}
	if _, err := g.Degree("writes", 99); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("bad degree index err = %v", err)
	}
	if _, err := g.Neighbors("writes", -1); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("bad neighbors index err = %v", err)
	}
}

func TestBuilderDuplicateEdgeSumsWeight(t *testing.T) {
	b := NewBuilder(bibSchema(t))
	b.AddEdge("writes", "Tom", "p1")
	b.AddWeightedEdge("writes", "Tom", "p1", 2)
	g := b.MustBuild()
	w, _ := g.Adjacency("writes")
	if got := w.At(0, 0); got != 3 {
		t.Errorf("summed weight = %v, want 3", got)
	}
}

func TestBuilderRejectsInvalidWeights(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		b := NewBuilder(bibSchema(t))
		b.AddWeightedEdge("writes", "Tom", "p1", w)
		if _, err := b.Build(); err == nil {
			t.Errorf("weight %v accepted", w)
		}
	}
}

func TestBuilderErrorsStick(t *testing.T) {
	b := NewBuilder(bibSchema(t))
	b.AddEdge("nope", "a", "b")
	if b.Err() == nil {
		t.Fatal("expected builder error")
	}
	b.AddEdge("writes", "Tom", "p1") // ignored after error
	if _, err := b.Build(); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("Build err = %v", err)
	}
	b2 := NewBuilder(bibSchema(t))
	if got := b2.AddNode("movie", "x"); got != -1 {
		t.Errorf("AddNode on unknown type = %d, want -1", got)
	}
	if b2.Err() == nil {
		t.Error("expected error for unknown type")
	}
}

func TestEmptyRelationGetsEmptyMatrix(t *testing.T) {
	b := NewBuilder(bibSchema(t))
	b.AddEdge("writes", "Tom", "p1")
	g := b.MustBuild()
	m, err := g.Adjacency("mentions")
	if err != nil {
		t.Fatal(err)
	}
	r, c := m.Dims()
	if r != 1 || c != 0 || m.NNZ() != 0 {
		t.Errorf("mentions = %dx%d nnz=%d, want 1x0 empty", r, c, m.NNZ())
	}
}

func TestGraphStatsAndSchemaString(t *testing.T) {
	g := toyGraph(t)
	st := g.Stats()
	for _, want := range []string{"author=3", "paper=4", "writes=5"} {
		if !strings.Contains(st, want) {
			t.Errorf("Stats %q missing %q", st, want)
		}
	}
	ss := g.Schema().String()
	if !strings.Contains(ss, "author(A)") || !strings.Contains(ss, "writes:author->paper") {
		t.Errorf("Schema.String = %q", ss)
	}
}

func TestGraphRoundTripJSON(t *testing.T) {
	g := toyGraph(t)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.TotalNodes() != g.TotalNodes() || g2.TotalEdges() != g.TotalEdges() {
		t.Fatalf("round trip changed size: %s vs %s", g2.Stats(), g.Stats())
	}
	for _, typ := range []string{"author", "paper", "venue", "conference"} {
		if !reflect.DeepEqual(g2.NodeIDs(typ), g.NodeIDs(typ)) {
			t.Errorf("%s IDs changed: %v vs %v", typ, g2.NodeIDs(typ), g.NodeIDs(typ))
		}
	}
	for _, rel := range g.Schema().Relations() {
		a, _ := g.Adjacency(rel.Name)
		b, _ := g2.Adjacency(rel.Name)
		if !a.Equal(b) {
			t.Errorf("relation %s adjacency changed", rel.Name)
		}
	}
}

func TestGraphRoundTripWeights(t *testing.T) {
	b := NewBuilder(bibSchema(t))
	b.AddWeightedEdge("writes", "Tom", "p1", 2.5)
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := g2.Adjacency("writes")
	if got := w.At(0, 0); got != 2.5 {
		t.Errorf("weight after round trip = %v, want 2.5", got)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("expected decode error")
	}
	if _, err := Read(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("expected version error")
	}
	bad := `{"version":1,"types":[{"name":"a"},{"name":"b"}],
	 "relations":[{"name":"r","source":"a","target":"b"}],
	 "nodes":{"a":["x"],"b":["y"]},
	 "edges":{"r":[{"s":5,"t":0}]}}`
	if _, err := Read(strings.NewReader(bad)); err == nil {
		t.Error("expected out-of-range edge error")
	}
}
