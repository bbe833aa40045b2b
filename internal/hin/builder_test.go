package hin

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestBuilderIndexPath adds edges by index and by ID to two builders and
// holds the graphs equal, then checks every refusal of the index path: an
// index outside its type's current node count, an unknown relation, and a
// weight that is not positive and finite.
func TestBuilderIndexPath(t *testing.T) {
	byID := NewBuilder(bibSchema(t))
	byID.AddEdge("writes", "Tom", "p1")
	byID.AddWeightedEdge("writes", "Mary", "p1", 2.5)
	byID.AddEdge("published_in", "p1", "KDD'10")
	byIndex := NewBuilder(bibSchema(t))
	tom, mary := byIndex.AddNode("author", "Tom"), byIndex.AddNode("author", "Mary")
	p1, kdd := byIndex.AddNode("paper", "p1"), byIndex.AddNode("venue", "KDD'10")
	byIndex.AddEdgeIndex("writes", tom, p1, 1)
	byIndex.AddEdgeIndex("writes", mary, p1, 2.5)
	byIndex.AddEdgeIndex("published_in", p1, kdd, 1)
	g1, g2 := byID.MustBuild(), byIndex.MustBuild()
	if g1.Fingerprint() != g2.Fingerprint() || g1.Stats() != g2.Stats() {
		t.Fatalf("index path built %s, ID path %s", g2.Stats(), g1.Stats())
	}

	refusals := []struct {
		name     string
		rel      string
		src, dst int
		w        float64
		is       error
	}{
		{"negative source", "writes", -1, 0, 1, ErrUnknownNode},
		{"source past count", "writes", 2, 0, 1, ErrUnknownNode},
		{"target past count", "writes", 0, 1, 1, ErrUnknownNode},
		{"type with no nodes", "mentions", 0, 0, 1, ErrUnknownNode},
		{"unknown relation", "cites", 0, 0, 1, ErrUnknownRelation},
		{"zero weight", "writes", 0, 0, 0, nil},
		{"negative weight", "writes", 0, 0, -1, nil},
		{"NaN weight", "writes", 0, 0, math.NaN(), nil},
		{"infinite weight", "writes", 0, 0, math.Inf(1), nil},
	}
	for _, r := range refusals {
		b := NewBuilder(bibSchema(t))
		b.AddNode("author", "Tom")
		b.AddNode("author", "Mary")
		b.AddNode("paper", "p1")
		b.AddEdgeIndex(r.rel, r.src, r.dst, r.w)
		err := b.Err()
		if err == nil || (r.is != nil && !errors.Is(err, r.is)) {
			t.Errorf("%s: Err() = %v, want %v", r.name, err, r.is)
		}
		if _, berr := b.Build(); berr != err {
			t.Errorf("%s: Build err = %v, want the first error %v", r.name, berr, err)
		}
	}
}

// TestBuilderSpent checks that a builder refuses every call after its
// Build, and that none of them reaches the graph it built.
func TestBuilderSpent(t *testing.T) {
	b := NewBuilder(bibSchema(t))
	b.AddEdge("writes", "Tom", "p1")
	b.AddEdge("writes", "Mary", "p1")
	g := b.MustBuild()
	ids := g.NodeIDs("author")
	before, _ := g.Adjacency("writes")
	fp := g.Fingerprint()

	if i := b.AddNode("author", "Bob"); i != -1 {
		t.Errorf("AddNode on a spent builder = %d, want -1", i)
	}
	b.AddEdge("writes", "Bob", "p2")
	b.AddWeightedEdge("writes", "Tom", "p2", 2)
	b.AddEdgeIndex("writes", 0, 0, 1)
	if b.Err() == nil {
		t.Error("spent builder reports no error")
	}
	if _, err := b.Build(); err == nil {
		t.Error("second Build succeeded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustBuild on a spent builder did not panic")
			}
		}()
		b.MustBuild()
	}()

	if got := g.NodeIDs("author"); !reflect.DeepEqual(got, ids) {
		t.Errorf("author IDs moved: %v, were %v", got, ids)
	}
	for i, id := range ids {
		if j, err := g.NodeIndex("author", id); err != nil || j != i {
			t.Errorf("NodeIndex(%q) = %d, %v, want %d", id, j, err, i)
		}
	}
	for _, n := range [][2]string{{"author", "Bob"}, {"paper", "p2"}} {
		if _, err := g.NodeIndex(n[0], n[1]); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("a spent builder's node %s %q reached the graph", n[0], n[1])
		}
	}
	if after, _ := g.Adjacency("writes"); !reflect.DeepEqual(after.Triplets(), before.Triplets()) {
		t.Errorf("writes moved: %v, was %v", after.Triplets(), before.Triplets())
	}
	if g.Fingerprint() != fp {
		t.Error("fingerprint moved")
	}
}
