package hin

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead checks the graph reader never panics on arbitrary input and
// that anything it accepts round-trips through Write.
func FuzzRead(f *testing.F) {
	// Seed with a valid serialized graph and near-valid variants.
	s := NewSchema()
	s.MustAddType("a", 'A')
	s.MustAddType("b", 'B')
	s.MustAddRelation("r", "a", "b")
	b := NewBuilder(s)
	b.AddEdge("r", "x", "y")
	b.AddWeightedEdge("r", "x", "z", 2.5)
	var buf bytes.Buffer
	if err := Write(&buf, b.MustBuild()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"version":1}`)
	f.Add(`{"version":1,"types":[{"name":"t"}],"relations":[],"nodes":{},"edges":{}}`)
	f.Add(`{"version":1,"types":[{"name":"t"},{"name":"t"}]}`)
	f.Add(`not json`)
	f.Add(`{"version":1,"types":[{"name":"a"}],"relations":[{"name":"r","source":"a","target":"zzz"}]}`)
	f.Add(`{"version":1,"types":[{"name":"a"},{"name":"b"}],"relations":[{"name":"r","source":"a","target":"b"}],"nodes":{"a":["x"],"b":["y"]},"edges":{"r":[{"s":9,"t":0}]}}`)
	// Hardening seeds: duplicate node ids, empty ids, negative weights,
	// node/edge lists for undeclared names.
	f.Add(`{"version":1,"types":[{"name":"a"}],"relations":[],"nodes":{"a":["x","x"]},"edges":{}}`)
	f.Add(`{"version":1,"types":[{"name":"a"}],"relations":[],"nodes":{"a":[""]},"edges":{}}`)
	f.Add(`{"version":1,"types":[{"name":"a"},{"name":"b"}],"relations":[{"name":"r","source":"a","target":"b"}],"nodes":{"a":["x"],"b":["y"]},"edges":{"r":[{"s":0,"t":0,"w":-1}]}}`)
	f.Add(`{"version":1,"types":[{"name":"a"}],"relations":[],"nodes":{"ghost":["x"]},"edges":{}}`)
	f.Add(`{"version":1,"types":[{"name":"a"}],"relations":[],"nodes":{},"edges":{"ghost":[]}}`)

	f.Fuzz(func(t *testing.T, data string) {
		g, err := Read(strings.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, g); err != nil {
			t.Fatalf("accepted graph does not serialize: %v", err)
		}
		g2, err := Read(&out)
		if err != nil {
			t.Fatalf("round trip fails to parse: %v", err)
		}
		if g2.TotalNodes() != g.TotalNodes() || g2.TotalEdges() != g.TotalEdges() {
			t.Fatalf("round trip changed sizes: %s vs %s", g2.Stats(), g.Stats())
		}
		if g2.Fingerprint() != g.Fingerprint() {
			t.Fatalf("round trip changed fingerprint: %016x vs %016x", g2.Fingerprint(), g.Fingerprint())
		}
	})
}
