package hin

import (
	"errors"
	"reflect"
	"testing"
)

func TestApplyUpsertReplacesWeight(t *testing.T) {
	g := toyGraph(t)
	ng, d, err := g.Apply([]Op{
		{Kind: OpUpsertEdge, Relation: "writes", Src: "Tom", Dst: "p1", Weight: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	adj, _ := ng.Adjacency("writes")
	if got := adj.At(0, 0); got != 3 {
		t.Errorf("upsert over existing edge: weight = %v, want 3 (replace, not sum)", got)
	}
	if old, _ := g.Adjacency("writes"); old.At(0, 0) != 1 {
		t.Error("Apply mutated the receiver graph")
	}
	if !reflect.DeepEqual(d.Rows["writes"], []int{0}) || !reflect.DeepEqual(d.Cols["writes"], []int{0}) {
		t.Errorf("dirty = rows %v cols %v, want [0]/[0]", d.Rows["writes"], d.Cols["writes"])
	}
	if len(d.Grown) != 0 {
		t.Errorf("no nodes added, but Grown = %v", d.Grown)
	}
}

// The central divergence guard: the applied graph must be indistinguishable
// from building the mutated graph cold — same fingerprint, hence bit-equal
// adjacency and node ordering.
func TestApplyMatchesColdRebuild(t *testing.T) {
	g := toyGraph(t)
	ng, d, err := g.Apply([]Op{
		{Kind: OpUpsertEdge, Relation: "writes", Src: "Carl", Dst: "p5", Weight: 2},
		{Kind: OpUpsertEdge, Relation: "published_in", Src: "p5", Dst: "SIGMOD10", Weight: 1},
		{Kind: OpDeleteEdge, Relation: "writes", Src: "Bob", Dst: "p4"},
		{Kind: OpAddNode, Type: "term", ID: "graphs"},
	})
	if err != nil {
		t.Fatal(err)
	}

	b := NewBuilder(bibSchema(t))
	b.AddEdge("writes", "Tom", "p1")
	b.AddEdge("writes", "Tom", "p2")
	b.AddEdge("writes", "Mary", "p2")
	b.AddEdge("writes", "Mary", "p3")
	b.AddNode("author", "Bob") // edge deleted, node remains
	b.AddNode("paper", "p4")
	b.AddEdge("published_in", "p1", "KDD09")
	b.AddEdge("published_in", "p2", "KDD10")
	b.AddEdge("published_in", "p3", "SIGMOD10")
	b.AddEdge("published_in", "p4", "SIGMOD10")
	b.AddEdge("part_of", "KDD09", "KDD")
	b.AddEdge("part_of", "KDD10", "KDD")
	b.AddEdge("part_of", "SIGMOD10", "SIGMOD")
	b.AddWeightedEdge("writes", "Carl", "p5", 2)
	b.AddEdge("published_in", "p5", "SIGMOD10")
	b.AddNode("term", "graphs")
	cold := b.MustBuild()

	if ng.Fingerprint() != cold.Fingerprint() {
		t.Fatalf("applied fingerprint %016x != cold rebuild %016x", ng.Fingerprint(), cold.Fingerprint())
	}

	if !reflect.DeepEqual(d.Rows["writes"], []int{2, 3}) { // Bob=2, Carl=3
		t.Errorf("writes dirty rows = %v, want [2 3]", d.Rows["writes"])
	}
	if !reflect.DeepEqual(d.Cols["writes"], []int{3, 4}) { // p4=3, p5=4
		t.Errorf("writes dirty cols = %v, want [3 4]", d.Cols["writes"])
	}
	if !reflect.DeepEqual(d.Rows["published_in"], []int{4}) { // p5
		t.Errorf("published_in dirty rows = %v, want [4]", d.Rows["published_in"])
	}
	wantGrown := map[string]bool{"author": true, "paper": true, "term": true}
	if !reflect.DeepEqual(d.Grown, wantGrown) {
		t.Errorf("Grown = %v, want %v", d.Grown, wantGrown)
	}
	if len(d.Rows["part_of"]) != 0 || len(d.Cols["part_of"]) != 0 {
		t.Error("part_of reported touched")
	}
}

func TestApplySharesUntouchedState(t *testing.T) {
	g := toyGraph(t)
	ng, _, err := g.Apply([]Op{
		{Kind: OpDeleteEdge, Relation: "writes", Src: "Bob", Dst: "p4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"published_in", "part_of", "mentions"} {
		oldA, _ := g.Adjacency(rel)
		newA, _ := ng.Adjacency(rel)
		if oldA != newA {
			t.Errorf("untouched relation %q was copied", rel)
		}
	}
	oldW, _ := g.Adjacency("writes")
	newW, _ := ng.Adjacency("writes")
	if oldW == newW {
		t.Error("touched relation shares its matrix with the old graph")
	}
	// No growth: node tables stay shared.
	if &g.nodes["author"][0] != &ng.nodes["author"][0] {
		t.Error("node table copied without growth")
	}
}

func TestApplyNodeGrowthPadsRelations(t *testing.T) {
	g := toyGraph(t)
	ng, d, err := g.Apply([]Op{
		{Kind: OpAddNode, Type: "paper", ID: "p9"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every relation over "paper" must be padded to the new dimension even
	// though its edges are untouched.
	for _, rel := range []string{"writes", "published_in", "mentions"} {
		adj, _ := ng.Adjacency(rel)
		r, c := adj.Dims()
		relMeta, _ := ng.Schema().RelationByName(rel)
		if wr, wc := ng.NodeCount(relMeta.Source), ng.NodeCount(relMeta.Target); r != wr || c != wc {
			t.Errorf("%s dims = %dx%d, want %dx%d", rel, r, c, wr, wc)
		}
	}
	if len(d.Rows) != 0 || len(d.Cols) != 0 {
		t.Errorf("node-only growth reported edge dirt: %v %v", d.Rows, d.Cols)
	}
	if !d.Grown["paper"] {
		t.Error("paper not reported grown")
	}
	// Idempotent: re-adding an existing node is a no-op with no dirt.
	ng2, d2, err := ng.Apply([]Op{{Kind: OpAddNode, Type: "paper", ID: "p9"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Grown) != 0 {
		t.Errorf("re-add reported growth: %v", d2.Grown)
	}
	if ng2.Fingerprint() != ng.Fingerprint() {
		t.Error("re-add changed the graph")
	}
}

func TestApplyRejectsInvalidOps(t *testing.T) {
	g := toyGraph(t)
	cases := []struct {
		name string
		ops  []Op
		want error
	}{
		{"empty batch", nil, ErrBadOp},
		{"unknown kind", []Op{{Kind: 0}}, ErrBadOp},
		{"unknown relation", []Op{{Kind: OpUpsertEdge, Relation: "cites", Src: "p1", Dst: "p2", Weight: 1}}, ErrUnknownRelation},
		{"unknown type", []Op{{Kind: OpAddNode, Type: "movie", ID: "m1"}}, ErrUnknownType},
		{"empty node id", []Op{{Kind: OpAddNode, Type: "author", ID: ""}}, ErrBadOp},
		{"zero weight", []Op{{Kind: OpUpsertEdge, Relation: "writes", Src: "Tom", Dst: "p1", Weight: 0}}, ErrBadOp},
		{"negative weight", []Op{{Kind: OpUpsertEdge, Relation: "writes", Src: "Tom", Dst: "p1", Weight: -1}}, ErrBadOp},
		{"delete missing edge", []Op{{Kind: OpDeleteEdge, Relation: "writes", Src: "Tom", Dst: "p3"}}, ErrUnknownNode},
		{"delete unknown node", []Op{{Kind: OpDeleteEdge, Relation: "writes", Src: "Zed", Dst: "p1"}}, ErrUnknownNode},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := g.Apply(tc.ops); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}

	// All-or-nothing: a failing op after a valid one yields an error and the
	// receiver is untouched.
	before := g.Fingerprint()
	_, _, err := g.Apply([]Op{
		{Kind: OpUpsertEdge, Relation: "writes", Src: "Tom", Dst: "p3", Weight: 1},
		{Kind: OpDeleteEdge, Relation: "writes", Src: "Tom", Dst: "p4"}, // no such edge
	})
	if err == nil {
		t.Fatal("batch with invalid tail op succeeded")
	}
	if g.Fingerprint() != before {
		t.Error("failed batch mutated the receiver")
	}
}
