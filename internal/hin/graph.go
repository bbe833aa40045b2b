package hin

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"hetesim/internal/sparse"
)

// Graph is a heterogeneous information network instance over a Schema:
// string-identified nodes partitioned by type, and a weighted adjacency
// matrix per relation. Graphs are built through a Builder and immutable
// afterwards, so they are safe for concurrent readers.
type Graph struct {
	schema *Schema
	// nodes[t] holds the IDs of type t's nodes in insertion order.
	nodes map[string][]string
	// index[t][id] is the position of node id within nodes[t].
	index map[string]map[string]int
	// adj[r] is the |source| x |target| weighted adjacency of relation r.
	adj map[string]*sparse.Matrix
	// adjT[r] is adj[r]'s transpose, built on first use and kept by Apply;
	// never serialized or fingerprinted.
	adjT map[string]*transposed
	// fp holds the fingerprint's section trees, built on first use.
	fp *fpSections
}

// Schema returns the graph's schema.
func (g *Graph) Schema() *Schema { return g.schema }

// NodeCount returns the number of nodes of the given type, or 0 for unknown
// types.
func (g *Graph) NodeCount(typeName string) int { return len(g.nodes[typeName]) }

// TotalNodes returns the number of nodes across all types.
func (g *Graph) TotalNodes() int {
	n := 0
	for _, ids := range g.nodes {
		n += len(ids)
	}
	return n
}

// TotalEdges returns the number of stored relation instances across all
// relations.
func (g *Graph) TotalEdges() int {
	n := 0
	for _, m := range g.adj {
		n += m.NNZ()
	}
	return n
}

// NodeIDs returns the identifiers of all nodes of a type, in index order.
// The returned slice is a copy.
func (g *Graph) NodeIDs(typeName string) []string {
	return append([]string(nil), g.nodes[typeName]...)
}

// NodeID returns the identifier of node i of the given type.
func (g *Graph) NodeID(typeName string, i int) (string, error) {
	ids, ok := g.nodes[typeName]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownType, typeName)
	}
	if i < 0 || i >= len(ids) {
		return "", fmt.Errorf("%w: %s #%d (have %d)", ErrUnknownNode, typeName, i, len(ids))
	}
	return ids[i], nil
}

// NodeIndex returns the index of the node with the given identifier.
func (g *Graph) NodeIndex(typeName, id string) (int, error) {
	m, ok := g.index[typeName]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownType, typeName)
	}
	i, ok := m[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s %q", ErrUnknownNode, typeName, id)
	}
	return i, nil
}

// HasNode reports whether the identified node exists.
func (g *Graph) HasNode(typeName, id string) bool {
	_, err := g.NodeIndex(typeName, id)
	return err == nil
}

// Adjacency returns the weighted adjacency matrix W of a relation
// (|R.S| x |R.T|). The matrix is shared and must not be mutated (sparse
// matrices are immutable by construction).
func (g *Graph) Adjacency(relName string) (*sparse.Matrix, error) {
	m, ok := g.adj[relName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRelation, relName)
	}
	return m, nil
}

// TransposedAdjacency returns Wᵀ of a relation (|R.T| x |R.S|): row j
// lists the sources adjacent to target j. It is bit for bit
// Adjacency(relName).Transpose(), shared and immutable like W. A graph
// from Apply derives it from its parent's by the changed cells, so a
// reader of a relation's in-neighbors never transposes it.
func (g *Graph) TransposedAdjacency(relName string) (*sparse.Matrix, error) {
	t, ok := g.adjT[relName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRelation, relName)
	}
	return t.get(), nil
}

// transposed is one relation's Wᵀ, built on first use: by transposing W
// (w), or from the parent graph's Wᵀ (from) with the cells a batch changed
// set and the shape grown (SetCells). A graph lineage transposes each
// relation once; every later generation pays only its changed cells, when
// it first reads the matrix. next keeps the chain of unbuilt generations
// at most two long, so nothing unread holds a lineage's history.
type transposed struct {
	mu         sync.Mutex
	m          *sparse.Matrix
	w          *sparse.Matrix
	from       *transposed
	rows, cols int
	cells      []sparse.Triplet // sorted by (row, column)
}

func (t *transposed) get() *sparse.Matrix {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		if t.from != nil {
			t.m = t.from.get().SetCells(t.rows, t.cols, t.cells)
		} else {
			t.m = t.w.Transpose()
		}
		t.w, t.from, t.cells = nil, nil, nil
	}
	return t.m
}

// next returns the transpose of w, the child graph's W: t's with cells set
// and grown to rows x cols, or, when t is itself unbuilt and derived, w's
// own.
func (t *transposed) next(w *sparse.Matrix, rows, cols int, cells []sparse.Triplet) *transposed {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil && t.from != nil {
		return &transposed{w: w}
	}
	return &transposed{from: t, rows: rows, cols: cols, cells: cells}
}

// Degree returns the out-degree of node i under the relation (the number of
// out-neighbors |O(s|R)| of Definition 3).
func (g *Graph) Degree(relName string, i int) (int, error) {
	m, err := g.Adjacency(relName)
	if err != nil {
		return 0, err
	}
	if i < 0 || i >= m.Rows() {
		return 0, fmt.Errorf("%w: index %d under relation %q", ErrUnknownNode, i, relName)
	}
	return m.RowNNZ(i), nil
}

// Neighbors returns the target indices adjacent to source node i under the
// relation, in increasing order.
func (g *Graph) Neighbors(relName string, i int) ([]int, error) {
	m, err := g.Adjacency(relName)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= m.Rows() {
		return nil, fmt.Errorf("%w: index %d under relation %q", ErrUnknownNode, i, relName)
	}
	var out []int
	m.Row(i).Entries(func(j int, _ float64) { out = append(out, j) })
	return out, nil
}

// Builder accumulates nodes and edges and produces an immutable Graph.
// Nodes take indices in the order they are first added. Edges go in by
// node index (AddEdgeIndex), or by ID (AddEdge, AddWeightedEdge), which adds
// the endpoints first. Duplicate edges sum their weights, matching sparse
// triplet semantics. Build hands the builder's tables to the graph, so a
// builder builds once: it refuses every later call.
type Builder struct {
	schema *Schema
	// ids[t] and index[t] are schema type t's node IDs and their indices;
	// edges[r] holds schema relation r's edges and its endpoint types.
	ids   [][]string
	index []map[string]int
	edges []relEdges
	err   error
}

type relEdges struct {
	src, dst int // schema type indices
	ts       []sparse.Triplet
}

// errSpent is the error of every call on a builder after its Build.
var errSpent = errors.New("hin: builder already built its graph")

// NewBuilder creates a Builder over the given schema.
func NewBuilder(s *Schema) *Builder { return &Builder{schema: s} }

// Err returns the first error encountered by the builder, if any.
func (b *Builder) Err() error { return b.err }

// sync extends the builder's tables to the schema's types and relations:
// a schema may still gain both until a graph is built over it.
func (b *Builder) sync() {
	for len(b.ids) < len(b.schema.types) {
		b.ids = append(b.ids, nil)
		b.index = append(b.index, make(map[string]int))
	}
	for r := len(b.edges); r < len(b.schema.relations); r++ {
		rel := b.schema.relations[r]
		b.edges = append(b.edges, relEdges{src: b.schema.typeIdx[rel.Source], dst: b.schema.typeIdx[rel.Target]})
	}
}

// AddNode registers a node of the given type, returning its index. Adding
// an existing node is a no-op returning the existing index. It returns -1
// once the builder has failed.
func (b *Builder) AddNode(typeName, id string) int {
	if b.err != nil {
		return -1
	}
	t, ok := b.schema.typeIdx[typeName]
	if !ok {
		b.err = fmt.Errorf("%w: %q", ErrUnknownType, typeName)
		return -1
	}
	if t >= len(b.ids) {
		b.sync()
	}
	if i, ok := b.index[t][id]; ok {
		return i
	}
	i := len(b.ids[t])
	b.index[t][id] = i
	b.ids[t] = append(b.ids[t], id)
	return i
}

// AddEdge records a relation instance between two identified nodes with
// weight 1, creating the nodes as needed.
func (b *Builder) AddEdge(relName, srcID, dstID string) {
	b.AddWeightedEdge(relName, srcID, dstID, 1)
}

// AddWeightedEdge records a relation instance between two identified nodes
// with an explicit weight, creating the nodes as needed.
func (b *Builder) AddWeightedEdge(relName, srcID, dstID string, w float64) {
	rel, err := b.schema.RelationByName(relName)
	if err != nil {
		if b.err == nil {
			b.err = err
		}
		return
	}
	b.AddEdgeIndex(relName, b.AddNode(rel.Source, srcID), b.AddNode(rel.Target, dstID), w)
}

// AddEdgeIndex records a relation instance between the source node src
// and the target node dst, by their indices, which must name nodes already
// added. Weights must be positive and finite: adjacency weights are
// relation instance strengths, and the Definition 6 decomposition splits
// them as square roots.
func (b *Builder) AddEdgeIndex(relName string, src, dst int, w float64) {
	if b.err != nil {
		return
	}
	r, ok := b.schema.relIdx[relName]
	if !ok {
		b.err = fmt.Errorf("%w: %q", ErrUnknownRelation, relName)
		return
	}
	if r >= len(b.edges) {
		b.sync()
	}
	e := &b.edges[r]
	srcIDs, dstIDs := b.ids[e.src], b.ids[e.dst]
	if src < 0 || src >= len(srcIDs) || dst < 0 || dst >= len(dstIDs) {
		rel := b.schema.relations[r]
		b.err = fmt.Errorf("%w: relation %q edge (%d,%d): have %d %s and %d %s nodes",
			ErrUnknownNode, relName, src, dst, len(srcIDs), rel.Source, len(dstIDs), rel.Target)
		return
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		b.err = fmt.Errorf("hin: edge %s(%s->%s) has invalid weight %v", relName, srcIDs[src], dstIDs[dst], w)
		return
	}
	if len(e.ts) == cap(e.ts) {
		e.ts = slices.Grow(e.ts, len(e.ts)+1) // double: append grows large slices by a quarter
	}
	e.ts = append(e.ts, sparse.Triplet{Row: src, Col: dst, Val: w})
}

// Build finalizes the graph. Every schema relation gets an adjacency matrix
// (possibly empty). Build fails if any prior builder call failed. The
// graph takes over the builder's node tables, and the builder is spent.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.sync()
	g := &Graph{
		schema: b.schema,
		nodes:  make(map[string][]string, len(b.ids)),
		index:  make(map[string]map[string]int, len(b.ids)),
		adj:    make(map[string]*sparse.Matrix, len(b.edges)),
		adjT:   make(map[string]*transposed, len(b.edges)),
		fp:     new(fpSections),
	}
	for t, ids := range b.ids {
		if len(ids) > 0 { // a type no node was added to has no tables
			name := b.schema.types[t].Name
			g.nodes[name], g.index[name] = ids, b.index[t]
		}
	}
	for r, e := range b.edges {
		name := b.schema.relations[r].Name
		g.adj[name] = sparse.New(len(b.ids[e.src]), len(b.ids[e.dst]), e.ts)
		g.adjT[name] = &transposed{w: g.adj[name]}
	}
	*b = Builder{schema: b.schema, err: errSpent}
	return g, nil
}

// MustBuild is Build but panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Stats summarizes a graph for display: node counts per type and edge counts
// per relation, each sorted by name.
func (g *Graph) Stats() string {
	var types []string
	for t := range g.nodes {
		types = append(types, t)
	}
	sort.Strings(types)
	s := "nodes:"
	for _, t := range types {
		s += fmt.Sprintf(" %s=%d", t, len(g.nodes[t]))
	}
	var rels []string
	for r := range g.adj {
		rels = append(rels, r)
	}
	sort.Strings(rels)
	s += "; edges:"
	for _, r := range rels {
		s += fmt.Sprintf(" %s=%d", r, g.adj[r].NNZ())
	}
	return s
}
