package hin

import (
	"encoding/binary"
	"hash/crc64"
	"maps"
	"math"
	"sort"
	"sync"

	"hetesim/internal/sparse"
)

// Fingerprint returns a deterministic 64-bit digest of the graph: schema
// types and relations, node identifiers in index order, and every adjacency
// triplet in CSR order. Two graphs share a fingerprint exactly when their
// index-addressed contents are identical, which is the property snapshot
// validation needs — materialized chain matrices are addressed by node
// index, so a snapshot is only safe to load into a graph whose node
// numbering and edges match the graph that produced it (Defs. 1–2: the
// network and its type/relation structure).
//
// The digest is the CRC-64 (ECMA) of one byte stream, little-endian
// throughout: the type count; per type, by name, its name, abbreviation,
// node count and node IDs (a string is its length, then its bytes); the
// relation count; per relation, by name, its name, source and target type
// names, entry count, and each entry's row, column and weight bits. The
// stream is never materialized: it is cut into sections — the counts, each
// type's and relation's header, each block of fpBlockRows node IDs or
// relation rows — that are hashed on their own and joined in balanced trees
// (fpState), the digest being the root's CRC. A graph from Apply starts
// from its parent's trees and rehashes only the blocks the batch dirtied,
// rejoining their paths to the root: O(log sections) joins, not one per
// section.
func (g *Graph) Fingerprint() uint64 { return g.fp.state(g).top.sum().crc }

// fpBlockRows is how many node IDs or relation rows one block section
// covers. The digest does not depend on it; a write rehashes a block per
// dirty row and rejoins log2(blocks) nodes, a full hash joins every block.
// At paper scale a mentions block is about 5 KB to rehash, and the
// relation's tree is nine levels deep.
const fpBlockRows = 32

// hashRows streams the entries of rows [lo, hi) of m, straight from its
// CSR arrays.
func hashRows(w *crcWriter, m *sparse.Matrix, lo, hi int) {
	for row := lo; row < hi; row++ {
		idx, val := m.RowEntries(row)
		for k, c := range idx {
			w.u64(uint64(row))
			w.u64(uint64(c))
			w.u64(math.Float64bits(val[k]))
		}
	}
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// section is the CRC-64 of one span of the fingerprint stream, hashed on
// its own, with the span's length in bytes and shift, x^(8·n) modulo the
// polynomial: what joining the span after a stream multiplies that
// stream's CRC by.
type section struct {
	crc, shift uint64
	n          int64
}

// emptySpan is the section of no bytes: joining it changes nothing.
var emptySpan = section{shift: 1 << 63} // x^0

// span returns the section of a span of n bytes whose own CRC is crc.
func span(crc uint64, n int64) section { return section{crc: crc, n: n, shift: x2nModP(n, 3)} }

// after returns the CRC of the stream whose CRC so far is prev, extended by
// s's span: prev·x^(8·n) + s.crc. This is zlib's crc32_combine algorithm
// (multmodp/x2nmodp) over the reflected 64-bit ECMA polynomial; the pre- and
// post-inversion of the register cancel, as they do for CRC-32.
func (s section) after(prev uint64) uint64 { return multModP(s.shift, prev) ^ s.crc }

// then returns the section of s's span followed by t's. Joining is
// associative, so any tree over a run of sections sums to the run's CRC.
func (s section) then(t section) section {
	switch {
	case t.n == 0:
		return s
	case s.n == 0:
		return t
	}
	return section{crc: t.after(s.crc), n: s.n + t.n, shift: multModP(s.shift, t.shift)}
}

// fpNode is a node of a section tree: the join of its leaves' sections. A
// nil node is a run of empty sections.
type fpNode struct {
	sum         section
	left, right *fpNode
}

// fpTree is a persistent balanced tree over the sections of leaves 0 ..
// 1<<depth - 1. Nodes are never changed: set copies the path to the leaf
// it replaces, so the trees of successive graphs share every other node.
type fpTree struct {
	root  *fpNode
	depth int
}

// newFPTree returns the tree over leaves.
func newFPTree(leaves []section) fpTree {
	t := fpTree{}
	for 1<<t.depth < len(leaves) {
		t.depth++
	}
	t.root = buildFPNode(leaves, t.depth)
	return t
}

func buildFPNode(leaves []section, depth int) *fpNode {
	switch {
	case len(leaves) == 0:
		return nil
	case depth == 0:
		return fpLeaf(leaves[0])
	}
	half := min(1<<(depth-1), len(leaves))
	return fpLink(buildFPNode(leaves[:half], depth-1), buildFPNode(leaves[half:], depth-1))
}

func fpLeaf(s section) *fpNode {
	if s.n == 0 {
		return nil
	}
	return &fpNode{sum: s}
}

// fpLink returns the node over subtrees l and r.
func fpLink(l, r *fpNode) *fpNode {
	switch {
	case l == nil && r == nil:
		return nil
	case l == nil:
		return &fpNode{sum: r.sum, right: r}
	case r == nil:
		return &fpNode{sum: l.sum, left: l}
	}
	return &fpNode{sum: l.sum.then(r.sum), left: l, right: r}
}

// sum returns the section of every leaf, in order.
func (t fpTree) sum() section {
	if t.root == nil {
		return emptySpan
	}
	return t.root.sum
}

// set returns the tree with leaf i's section replaced by s, grown as far as
// i needs.
func (t fpTree) set(i int, s section) fpTree {
	for i >= 1<<t.depth {
		t.root, t.depth = fpLink(t.root, nil), t.depth+1
	}
	t.root = t.root.set(t.depth, i, s)
	return t
}

func (n *fpNode) set(depth, i int, s section) *fpNode {
	if depth == 0 {
		return fpLeaf(s)
	}
	var l, r *fpNode
	if n != nil {
		l, r = n.left, n.right
	}
	if half := 1 << (depth - 1); i < half {
		l = l.set(depth-1, i, s)
	} else {
		r = r.set(depth-1, i-half, s)
	}
	return fpLink(l, r)
}

// fpState is a graph's fingerprint in sections. top's leaves are the
// stream's top-level spans: the type count, each type by name, the
// relation count, each relation by name (leafOf). A type's leaf is its
// header (name, abbreviation, node count) joined with its tree of ID
// blocks, a relation's its header (names, entry count) joined with its
// tree of row blocks.
type fpState struct {
	leafOf map[string]int // "t:"+type or "r:"+relation -> its leaf in top; shared by a lineage
	top    fpTree
	trees  map[string]fpTree // keyed like leafOf: a type's ID blocks, a relation's row blocks
	nodes  map[string]int    // node count per type, as hashed
}

// fpSections holds a graph's fingerprint state, computed on first use:
// from the parent's state and the batch's Dirty for a graph from Apply
// whose parent had one, from scratch otherwise. The graph is immutable, so
// the state once computed stays valid; the mutex only orders fillers.
type fpSections struct {
	mu     sync.Mutex
	st     *fpState
	parent *fpState // with dirty: what state derives from; dropped once it has
	dirty  *Dirty
}

// next returns the fingerprint sections of a graph Apply derived from this
// one with delta d.
func (c *fpSections) next(d *Dirty) *fpSections {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &fpSections{parent: c.st, dirty: d}
}

// state returns g's fingerprint state, computing it on first use.
func (c *fpSections) state(g *Graph) *fpState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st == nil {
		if c.parent != nil {
			c.st = c.parent.next(g, c.dirty)
		} else {
			c.st = newFPState(g)
		}
		c.parent, c.dirty = nil, nil
	}
	return c.st
}

// newFPState hashes every section of g.
func newFPState(g *Graph) *fpState {
	types, rels := g.schema.Types(), g.schema.Relations()
	sort.Slice(types, func(i, j int) bool { return types[i].Name < types[j].Name })
	sort.Slice(rels, func(i, j int) bool { return rels[i].Name < rels[j].Name })
	st := &fpState{leafOf: make(map[string]int), trees: make(map[string]fpTree), nodes: make(map[string]int)}
	var w crcWriter
	leaves := []section{countSpan(&w, len(types))}
	for _, t := range types {
		ids := g.nodes[t.Name]
		blocks := make([]section, (len(ids)+fpBlockRows-1)/fpBlockRows)
		for b := range blocks {
			blocks[b] = idBlock(&w, ids, b)
		}
		st.trees["t:"+t.Name], st.nodes[t.Name] = newFPTree(blocks), len(ids)
		st.leafOf["t:"+t.Name] = len(leaves)
		leaves = append(leaves, st.typeLeaf(&w, t))
	}
	leaves = append(leaves, countSpan(&w, len(rels)))
	for _, r := range rels {
		m := g.adj[r.Name]
		blocks := make([]section, (m.Rows()+fpBlockRows-1)/fpBlockRows)
		for b := range blocks {
			blocks[b] = rowBlock(&w, m, b)
		}
		st.trees["r:"+r.Name] = newFPTree(blocks)
		st.leafOf["r:"+r.Name] = len(leaves)
		leaves = append(leaves, st.relLeaf(&w, r, m))
	}
	st.top = newFPTree(leaves)
	return st
}

// next returns the state of g, the graph Apply made from this state's
// graph with delta d: the grown types' new ID blocks and the blocks of the
// dirty rows rehashed, their headers too, and each leaf's path rejoined.
// Leaves are independent, so the order they are set in does not matter.
func (st *fpState) next(g *Graph, d *Dirty) *fpState {
	ns := &fpState{leafOf: st.leafOf, top: st.top, trees: maps.Clone(st.trees), nodes: maps.Clone(st.nodes)}
	w := crcWriter{buf: make([]byte, 0, 4<<10)} // a few blocks' worth, not a whole hash's
	for name := range d.Grown {
		key, ids := "t:"+name, g.nodes[name]
		tree := ns.trees[key]
		for b := st.nodes[name] / fpBlockRows; b*fpBlockRows < len(ids); b++ {
			tree = tree.set(b, idBlock(&w, ids, b))
		}
		ns.trees[key], ns.nodes[name] = tree, len(ids)
		ns.top = ns.top.set(st.leafOf[key], ns.typeLeaf(&w, g.schema.types[g.schema.typeIdx[name]]))
	}
	for name, rows := range d.Rows {
		key, m := "r:"+name, g.adj[name]
		tree := ns.trees[key]
		for i, row := range rows { // ascending: one rehash per block
			if b := row / fpBlockRows; i == 0 || rows[i-1]/fpBlockRows != b {
				tree = tree.set(b, rowBlock(&w, m, b))
			}
		}
		ns.trees[key] = tree
		r, _ := g.schema.RelationByName(name)
		ns.top = ns.top.set(st.leafOf[key], ns.relLeaf(&w, r, m))
	}
	return ns
}

// typeLeaf returns type t's span: its header, then its ID blocks.
func (st *fpState) typeLeaf(w *crcWriter, t NodeType) section {
	*w = crcWriter{buf: w.buf}
	w.str(t.Name)
	w.u64(uint64(t.Abbrev))
	w.u64(uint64(st.nodes[t.Name]))
	return w.sum().then(st.trees["t:"+t.Name].sum())
}

// relLeaf returns relation r's span over m: its header, then its row
// blocks.
func (st *fpState) relLeaf(w *crcWriter, r Relation, m *sparse.Matrix) section {
	*w = crcWriter{buf: w.buf}
	w.str(r.Name)
	w.str(r.Source)
	w.str(r.Target)
	w.u64(uint64(m.NNZ()))
	return w.sum().then(st.trees["r:"+r.Name].sum())
}

// countSpan returns the section of a type or relation count.
func countSpan(w *crcWriter, n int) section {
	*w = crcWriter{buf: w.buf}
	w.u64(uint64(n))
	return w.sum()
}

// idBlock returns the section of block b of a type's node IDs.
func idBlock(w *crcWriter, ids []string, b int) section {
	*w = crcWriter{buf: w.buf}
	for _, id := range ids[b*fpBlockRows : min((b+1)*fpBlockRows, len(ids))] {
		w.str(id)
	}
	return w.sum()
}

// rowBlock returns the section of block b of m's rows.
func rowBlock(w *crcWriter, m *sparse.Matrix, b int) section {
	*w = crcWriter{buf: w.buf}
	hashRows(w, m, b*fpBlockRows, min((b+1)*fpBlockRows, m.Rows()))
	return w.sum()
}

// crcWriter hashes a span of the fingerprint stream through a reused buffer.
type crcWriter struct {
	crc uint64
	n   int64
	buf []byte
}

// crcBufSize is a crcWriter's buffer: the CRC takes the stream in pieces
// this large.
const crcBufSize = 32 << 10

func (w *crcWriter) flush() {
	w.crc = crc64.Update(w.crc, crcTable, w.buf)
	w.n += int64(len(w.buf))
	w.buf = w.buf[:0]
}

func (w *crcWriter) u64(v uint64) {
	if w.buf == nil {
		w.buf = make([]byte, 0, crcBufSize)
	}
	if len(w.buf)+8 > cap(w.buf) {
		w.flush()
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

func (w *crcWriter) str(s string) {
	w.u64(uint64(len(s)))
	if len(w.buf)+len(s) > cap(w.buf) {
		w.flush()
	}
	if len(s) > cap(w.buf) {
		w.crc = crc64.Update(w.crc, crcTable, []byte(s))
		w.n += int64(len(s))
		return
	}
	w.buf = append(w.buf, s...)
}

func (w *crcWriter) sum() section {
	w.flush()
	return span(w.crc, w.n)
}

// multModP multiplies a and b modulo the ECMA polynomial, in the reflected
// bit order the CRC uses (x^0 is the top bit). a must not be zero.
func multModP(a, b uint64) uint64 {
	var p uint64
	for m := uint64(1) << 63; ; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				return p
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ crc64.ECMA
		} else {
			b >>= 1
		}
	}
}

// x2nTable[k] is x^(2^k) modulo the polynomial, for every k x2nModP reaches.
var x2nTable = func() (t [67]uint64) {
	t[0] = 1 << 62 // x^1
	for k := 1; k < len(t); k++ {
		t[k] = multModP(t[k-1], t[k-1])
	}
	return t
}()

// x2nModP returns x^(n·2^k) modulo the polynomial.
func x2nModP(n int64, k int) uint64 {
	p := uint64(1) << 63 // x^0
	for ; n > 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = multModP(x2nTable[k], p)
		}
	}
	return p
}
