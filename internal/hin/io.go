package hin

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// fileFormat is the on-disk JSON representation of a graph. Edge weights of
// exactly 1 are omitted to keep bibliographic networks (whose adjacency is
// 0/1) compact.
type fileFormat struct {
	Version   int                   `json:"version"`
	Types     []fileType            `json:"types"`
	Relations []fileRelation        `json:"relations"`
	Nodes     map[string][]string   `json:"nodes"`
	Edges     map[string][]fileEdge `json:"edges"`
}

type fileType struct {
	Name   string `json:"name"`
	Abbrev string `json:"abbrev,omitempty"`
}

type fileRelation struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Target string `json:"target"`
}

type fileEdge struct {
	Src    int     `json:"s"`
	Dst    int     `json:"t"`
	Weight float64 `json:"w,omitempty"`
}

const formatVersion = 1

// Write serializes the graph as JSON to w.
func Write(w io.Writer, g *Graph) error {
	ff := fileFormat{
		Version: formatVersion,
		Nodes:   make(map[string][]string),
		Edges:   make(map[string][]fileEdge),
	}
	for _, t := range g.schema.Types() {
		ab := ""
		if t.Abbrev != 0 {
			ab = string(t.Abbrev)
		}
		ff.Types = append(ff.Types, fileType{Name: t.Name, Abbrev: ab})
		ff.Nodes[t.Name] = g.nodes[t.Name]
	}
	for _, r := range g.schema.Relations() {
		ff.Relations = append(ff.Relations, fileRelation{Name: r.Name, Source: r.Source, Target: r.Target})
		m := g.adj[r.Name]
		es := make([]fileEdge, 0, m.NNZ())
		for _, tr := range m.Triplets() {
			e := fileEdge{Src: tr.Row, Dst: tr.Col}
			if tr.Val != 1 {
				e.Weight = tr.Val
			}
			es = append(es, e)
		}
		ff.Edges[r.Name] = es
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ff)
}

// Read deserializes a graph written by Write.
func Read(r io.Reader) (*Graph, error) {
	var ff fileFormat
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("hin: decoding graph: %w", err)
	}
	if ff.Version != formatVersion {
		return nil, fmt.Errorf("hin: unsupported graph format version %d", ff.Version)
	}
	s := NewSchema()
	for _, t := range ff.Types {
		var ab byte
		if t.Abbrev != "" {
			ab = t.Abbrev[0]
		}
		if err := s.AddType(t.Name, ab); err != nil {
			return nil, err
		}
	}
	for _, rel := range ff.Relations {
		if err := s.AddRelation(rel.Name, rel.Source, rel.Target); err != nil {
			return nil, err
		}
	}
	// Keys that name no declared type or relation would be dropped on the
	// floor; a file that carries them is malformed, not merely verbose.
	for name := range ff.Nodes {
		if !s.HasType(name) {
			return nil, fmt.Errorf("hin: node list for undeclared type %q", name)
		}
	}
	for name := range ff.Edges {
		if _, err := s.RelationByName(name); err != nil {
			return nil, fmt.Errorf("hin: edge list for undeclared relation %q", name)
		}
	}
	b := NewBuilder(s)
	for _, t := range ff.Types {
		// A duplicate node ID would silently collapse onto its first
		// occurrence and shift the index of every node after it — so each
		// edge written against the original indices would land on the wrong
		// endpoint. Reject the file instead of building a subtly wrong graph.
		for i, id := range ff.Nodes[t.Name] {
			if id == "" {
				return nil, fmt.Errorf("hin: type %q node %d has an empty id", t.Name, i)
			}
			if j := b.AddNode(t.Name, id); j != i {
				return nil, fmt.Errorf("hin: type %q has duplicate node id %q (entries %d and %d)", t.Name, id, j, i)
			}
		}
	}
	// The builder's node indices are the file's, so edges go in by them.
	for _, rel := range ff.Relations {
		nodesS := ff.Nodes[rel.Source]
		nodesT := ff.Nodes[rel.Target]
		for i, e := range ff.Edges[rel.Name] {
			if e.Src < 0 || e.Src >= len(nodesS) || e.Dst < 0 || e.Dst >= len(nodesT) {
				return nil, fmt.Errorf("hin: relation %q edge %d references unknown node (%d,%d): have %d source and %d target nodes",
					rel.Name, i, e.Src, e.Dst, len(nodesS), len(nodesT))
			}
			w := e.Weight
			if w == 0 {
				w = 1
			}
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("hin: relation %q edge %d (%s->%s) has invalid weight %v: want a finite positive number",
					rel.Name, i, nodesS[e.Src], nodesT[e.Dst], w)
			}
			b.AddEdgeIndex(rel.Name, e.Src, e.Dst, w)
		}
	}
	return b.Build()
}
