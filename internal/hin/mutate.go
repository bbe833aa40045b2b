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
// indexing. Rows[r] holds, ascending, exactly the source-node indices of
// relation r whose outgoing edges changed (the rows of the forward
// transition matrix that must be recomputed); Cols[r] holds exactly the
// target-node indices whose incoming edges changed (the rows of the inverse
// transition matrix). A relation the ops touched without changing a cell
// (an upsert of the weight a cell has, a delete of a cell the batch
// upserted) has no entry. Grown names
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

// cellEdit is a cell's state after the ops so far: its weight, or absent.
type cellEdit struct {
	w    float64
	live bool
}

// Apply returns a new graph with the ops applied in order, plus the dirty
// summary, leaving the receiver untouched. Node tables and adjacency
// matrices of unaffected types and relations are shared between the two
// graphs; a touched relation's new CSR shares every 256-row page of the old
// one that holds no dirty row and rebuilds the others, each dirty row
// merged with its changed cells (sparse.SetCells), so the cost of a delta
// is the pages it dirties plus the delta, never a copy of the relation or
// a re-sort. Its transpose takes the same cells transposed, when first
// read (TransposedAdjacency), and its fingerprint rehashes the dirty
// blocks, when first asked. Any invalid op fails the whole batch with no
// effect — mutation batches are all-or-nothing.
func (g *Graph) Apply(ops []Op) (*Graph, *Dirty, error) {
	if len(ops) == 0 {
		return nil, nil, fmt.Errorf("%w: empty batch", ErrBadOp)
	}
	ng := &Graph{
		schema: g.schema,
		nodes:  make(map[string][]string, len(g.nodes)),
		index:  make(map[string]map[string]int, len(g.index)),
		adj:    make(map[string]*sparse.Matrix, len(g.adj)),
		adjT:   make(map[string]*transposed, len(g.adjT)),
	}
	for t, ids := range g.nodes {
		ng.nodes[t] = ids // shared until the type gains a node
	}
	for t, m := range g.index {
		ng.index[t] = m
	}

	d := newDirty()
	// edits[rel] holds the cells the ops set, in their latest state; the
	// old adjacency answers for every other cell.
	edits := make(map[string]map[edgeKey]cellEdit)

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
			m := edits[op.Relation]
			if m == nil {
				m = make(map[edgeKey]cellEdit)
				edits[op.Relation] = m
			}
			k := edgeKey{s, t}
			if op.Kind == OpDeleteEdge {
				c, ok := m[k]
				if !ok {
					c.w = cellAt(g.adj[op.Relation], s, t)
					c.live = c.w != 0
				}
				if !c.live {
					return nil, nil, fmt.Errorf("op %d: %w: %s(%s->%s) does not exist",
						i, ErrUnknownNode, op.Relation, op.Src, op.Dst)
				}
				m[k] = cellEdit{}
			} else {
				m[k] = cellEdit{w: op.Weight, live: true}
			}
		default:
			return nil, nil, fmt.Errorf("op %d: %w: kind %d", i, ErrBadOp, op.Kind)
		}
	}

	// Splice the changed cells into the touched relations and their
	// transposes; resize every other relation over a grown type (its
	// entries stay shared).
	for _, rel := range ng.schema.Relations() {
		rows := len(ng.nodes[rel.Source])
		cols := len(ng.nodes[rel.Target])
		old, oldT := g.adj[rel.Name], g.adjT[rel.Name]
		var cells []sparse.Triplet
		for k, c := range edits[rel.Name] {
			if c.w != cellAt(old, k.src, k.dst) { // a net change: dirty
				cells = append(cells, sparse.Triplet{Row: k.src, Col: k.dst, Val: c.w})
			}
		}
		if len(cells) == 0 {
			ng.adj[rel.Name], ng.adjT[rel.Name] = old.Resize(rows, cols), oldT
			if rows != old.Rows() || cols != old.Cols() {
				ng.adjT[rel.Name] = oldT.next(ng.adj[rel.Name], cols, rows, nil)
			}
			continue
		}
		tcells := make([]sparse.Triplet, len(cells))
		for i, c := range cells {
			tcells[i] = sparse.Triplet{Row: c.Col, Col: c.Row, Val: c.Val}
		}
		sortCells(cells)
		sortCells(tcells)
		ng.adj[rel.Name] = old.SetCells(rows, cols, cells)
		ng.adjT[rel.Name] = oldT.next(ng.adj[rel.Name], cols, rows, tcells)
		d.Rows[rel.Name], d.Cols[rel.Name] = distinctRows(cells), distinctRows(tcells)
	}
	ng.fp = g.fp.next(d)
	return ng, d, nil
}

// sortCells sorts cells by (row, column).
func sortCells(cells []sparse.Triplet) {
	sort.Slice(cells, func(i, j int) bool {
		return cells[i].Row < cells[j].Row || cells[i].Row == cells[j].Row && cells[i].Col < cells[j].Col
	})
}

// distinctRows returns the rows of sorted cells, ascending, once each.
func distinctRows(cells []sparse.Triplet) []int {
	var rs []int
	for _, c := range cells {
		if len(rs) == 0 || rs[len(rs)-1] != c.Row {
			rs = append(rs, c.Row)
		}
	}
	return rs
}

// cellAt is m's entry at (r, c), 0 past its edge (a node the batch added).
func cellAt(m *sparse.Matrix, r, c int) float64 {
	if r >= m.Rows() || c >= m.Cols() {
		return 0
	}
	return m.At(r, c)
}
