package hin

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"hetesim/internal/sparse"
)

// Graph mutation. Graphs stay immutable: Apply builds a new Graph sharing
// every untouched adjacency matrix and node table with the old one
// (copy-on-write), so in-flight readers of the old graph are never
// disturbed — the property the server's engine-set swap relies on. Apply
// also reports exactly which transition-probability rows the deltas
// perturbed: by Property 2 of the paper (U_AB = V'_BA), an edge delta on
// relation R changes only row src of R's forward transition matrix and row
// dst of its inverse, which is what lets cached chain matrices be
// maintained row-by-row instead of rebuilt.

// OpKind enumerates the mutation operations of the write path.
type OpKind uint8

const (
	// OpAddNode registers a node of a type (no-op when it already exists).
	OpAddNode OpKind = iota + 1
	// OpUpsertEdge sets the weight of a relation instance, creating the
	// edge — and, like Builder.AddEdge, its endpoints — as needed.
	OpUpsertEdge
	// OpDeleteEdge removes a relation instance. Deleting an edge that does
	// not exist is an error: the write path validates deltas before they
	// are logged, so replay never sees one.
	OpDeleteEdge
)

func (k OpKind) String() string {
	switch k {
	case OpAddNode:
		return "add_node"
	case OpUpsertEdge:
		return "upsert_edge"
	case OpDeleteEdge:
		return "delete_edge"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// MarshalJSON encodes the kind by its wire name ("add_node",
// "upsert_edge", "delete_edge") — the admin mutation API speaks names, not
// enum ordinals, so batches stay readable and ordinals can be reassigned.
func (k OpKind) MarshalJSON() ([]byte, error) {
	switch k {
	case OpAddNode, OpUpsertEdge, OpDeleteEdge:
		return json.Marshal(k.String())
	}
	return nil, fmt.Errorf("%w: kind %d", ErrBadOp, uint8(k))
}

func (k *OpKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "add_node":
		*k = OpAddNode
	case "upsert_edge":
		*k = OpUpsertEdge
	case "delete_edge":
		*k = OpDeleteEdge
	default:
		return fmt.Errorf("%w: unknown op %q", ErrBadOp, s)
	}
	return nil
}

// ErrBadOp marks a structurally invalid mutation operation.
var ErrBadOp = errors.New("hin: invalid mutation op")

// Op is one mutation operation. AddNode uses Type and ID; the edge ops use
// Relation, Src, Dst (string node identifiers) and, for upserts, Weight.
type Op struct {
	Kind     OpKind  `json:"op"`
	Type     string  `json:"type,omitempty"`
	ID       string  `json:"id,omitempty"`
	Relation string  `json:"relation,omitempty"`
	Src      string  `json:"source,omitempty"`
	Dst      string  `json:"target,omitempty"`
	Weight   float64 `json:"weight,omitempty"`
}

// Dirty reports what a batch of deltas perturbed, in post-apply node
// indexing. Rows[r] holds the source-node indices of relation r whose
// outgoing edge set changed (the rows of the forward transition matrix that
// must be recomputed); Cols[r] holds the target-node indices whose incoming
// edge set changed (the rows of the inverse transition matrix). Grown names
// the node types that gained nodes — existing transition rows are
// untouched by growth, but matrices over a grown type need padding.
type Dirty struct {
	Rows  map[string][]int
	Cols  map[string][]int
	Grown map[string]bool
}

func newDirty() *Dirty {
	return &Dirty{
		Rows:  make(map[string][]int),
		Cols:  make(map[string][]int),
		Grown: make(map[string]bool),
	}
}

// edgeKey addresses one cell of a relation's adjacency.
type edgeKey struct{ src, dst int }

// Apply returns a new graph with the ops applied in order, plus the dirty
// summary, leaving the receiver untouched. Node tables and adjacency
// matrices of unaffected types and relations are shared between the two
// graphs, so the cost of a delta is proportional to the touched relations,
// not the graph. Any invalid op fails the whole batch with no effect —
// mutation batches are all-or-nothing.
func (g *Graph) Apply(ops []Op) (*Graph, *Dirty, error) {
	if len(ops) == 0 {
		return nil, nil, fmt.Errorf("%w: empty batch", ErrBadOp)
	}
	ng := &Graph{
		schema: g.schema,
		nodes:  make(map[string][]string, len(g.nodes)),
		index:  make(map[string]map[string]int, len(g.index)),
		adj:    make(map[string]*sparse.Matrix, len(g.adj)),
	}
	for t, ids := range g.nodes {
		ng.nodes[t] = ids // shared until the type gains a node
	}
	for t, m := range g.index {
		ng.index[t] = m
	}
	for r, m := range g.adj {
		ng.adj[r] = m
	}

	d := newDirty()
	// Touched relations are edited as cell maps and rebuilt at the end;
	// dirtyRows/dirtyCols collect perturbed indices as sets.
	edits := make(map[string]map[edgeKey]float64)
	dirtyRows := make(map[string]map[int]bool)
	dirtyCols := make(map[string]map[int]bool)

	addNode := func(typeName, id string) (int, error) {
		if !ng.schema.HasType(typeName) {
			return 0, fmt.Errorf("%w: %q", ErrUnknownType, typeName)
		}
		if i, ok := ng.index[typeName][id]; ok {
			return i, nil
		}
		if id == "" {
			return 0, fmt.Errorf("%w: empty node id", ErrBadOp)
		}
		// First growth of this type: unshare its tables.
		if !d.Grown[typeName] {
			ng.nodes[typeName] = append([]string(nil), ng.nodes[typeName]...)
			idx := make(map[string]int, len(ng.index[typeName])+1)
			for k, v := range ng.index[typeName] {
				idx[k] = v
			}
			ng.index[typeName] = idx
			d.Grown[typeName] = true
		}
		i := len(ng.nodes[typeName])
		ng.nodes[typeName] = append(ng.nodes[typeName], id)
		ng.index[typeName][id] = i
		return i, nil
	}

	cells := func(rel string) map[edgeKey]float64 {
		if m, ok := edits[rel]; ok {
			return m
		}
		adj := g.adj[rel]
		m := make(map[edgeKey]float64, adj.NNZ())
		for _, t := range adj.Triplets() {
			m[edgeKey{t.Row, t.Col}] = t.Val
		}
		edits[rel] = m
		dirtyRows[rel] = make(map[int]bool)
		dirtyCols[rel] = make(map[int]bool)
		return m
	}

	for i, op := range ops {
		switch op.Kind {
		case OpAddNode:
			if _, err := addNode(op.Type, op.ID); err != nil {
				return nil, nil, fmt.Errorf("op %d (%s %s/%s): %w", i, op.Kind, op.Type, op.ID, err)
			}
		case OpUpsertEdge, OpDeleteEdge:
			rel, err := ng.schema.RelationByName(op.Relation)
			if err != nil {
				return nil, nil, fmt.Errorf("op %d (%s): %w", i, op.Kind, err)
			}
			if op.Kind == OpUpsertEdge {
				if op.Weight <= 0 || math.IsNaN(op.Weight) || math.IsInf(op.Weight, 0) {
					return nil, nil, fmt.Errorf("op %d: %w: edge %s(%s->%s) weight %v",
						i, ErrBadOp, op.Relation, op.Src, op.Dst, op.Weight)
				}
			}
			var s, t int
			if op.Kind == OpUpsertEdge {
				if s, err = addNode(rel.Source, op.Src); err == nil {
					t, err = addNode(rel.Target, op.Dst)
				}
			} else {
				if s, err = ng.NodeIndex(rel.Source, op.Src); err == nil {
					t, err = ng.NodeIndex(rel.Target, op.Dst)
				}
			}
			if err != nil {
				return nil, nil, fmt.Errorf("op %d (%s %s): %w", i, op.Kind, op.Relation, err)
			}
			m := cells(op.Relation)
			k := edgeKey{s, t}
			if op.Kind == OpDeleteEdge {
				if _, ok := m[k]; !ok {
					return nil, nil, fmt.Errorf("op %d: %w: %s(%s->%s) does not exist",
						i, ErrUnknownNode, op.Relation, op.Src, op.Dst)
				}
				delete(m, k)
			} else {
				m[k] = op.Weight
			}
			dirtyRows[op.Relation][s] = true
			dirtyCols[op.Relation][t] = true
		default:
			return nil, nil, fmt.Errorf("op %d: %w: kind %d", i, ErrBadOp, op.Kind)
		}
	}

	// Rebuild the touched relations from their edited cells; resize every
	// relation over a grown type (shared matrices stay shared otherwise).
	for _, rel := range ng.schema.Relations() {
		rows := len(ng.nodes[rel.Source])
		cols := len(ng.nodes[rel.Target])
		if m, ok := edits[rel.Name]; ok {
			ts := make([]sparse.Triplet, 0, len(m))
			for k, w := range m {
				ts = append(ts, sparse.Triplet{Row: k.src, Col: k.dst, Val: w})
			}
			ng.adj[rel.Name] = sparse.New(rows, cols, ts)
		} else if d.Grown[rel.Source] || d.Grown[rel.Target] {
			ng.adj[rel.Name] = ng.adj[rel.Name].Resize(rows, cols)
		}
	}
	for rel, set := range dirtyRows {
		d.Rows[rel] = sortedKeys(set)
	}
	for rel, set := range dirtyCols {
		d.Cols[rel] = sortedKeys(set)
	}
	return ng, d, nil
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
