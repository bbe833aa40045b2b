package hin

import (
	"encoding/binary"
	"hash/crc64"
	"math"
	"slices"
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
// stream is never materialized: each type's span, and each block of
// fpBlockRows rows of a relation's entries, is hashed once per graph and
// cached (fpSections), and the spans are joined by section.after. A graph
// from Apply inherits the cached spans of the types that did not grow and
// of the blocks that hold no dirty row, so its fingerprint rehashes only
// what the batch changed.
func (g *Graph) Fingerprint() uint64 {
	head := crcWriter{buf: make([]byte, 0, 256)} // the counts and relation headers
	types := g.schema.Types()
	sort.Slice(types, func(i, j int) bool { return types[i].Name < types[j].Name })
	rels := g.schema.Relations()
	sort.Slice(rels, func(i, j int) bool { return rels[i].Name < rels[j].Name })

	head.u64(uint64(len(types)))
	sum := head.sum().after(0)
	for _, t := range types {
		sum = g.fp.typeSpan(t.Name, func(w *crcWriter) { g.hashType(w, t) }).after(sum)
	}
	head = crcWriter{buf: head.buf}
	head.u64(uint64(len(rels)))
	sum = head.sum().after(sum)
	for _, r := range rels {
		m := g.adj[r.Name]
		head = crcWriter{buf: head.buf}
		head.str(r.Name)
		head.str(r.Source)
		head.str(r.Target)
		if m == nil {
			head.u64(0)
			sum = head.sum().after(sum)
			continue
		}
		head.u64(uint64(m.NNZ()))
		sum = head.sum().after(sum)
		for _, b := range g.fp.blocks(r.Name, m) {
			sum = b.after(sum)
		}
	}
	return sum
}

// hashType streams type t's span of the fingerprint.
func (g *Graph) hashType(w *crcWriter, t NodeType) {
	w.str(t.Name)
	w.u64(uint64(t.Abbrev))
	ids := g.nodes[t.Name]
	w.u64(uint64(len(ids)))
	for _, id := range ids {
		w.str(id)
	}
}

// fpBlockRows is how many rows of a relation one cached span covers.
const fpBlockRows = 256

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

// span returns the section of a span of n bytes whose own CRC is crc.
func span(crc uint64, n int64) section { return section{crc: crc, n: n, shift: x2nModP(n, 3)} }

// after returns the CRC of the stream whose CRC so far is prev, extended by
// s's span: prev·x^(8·n) + s.crc. This is zlib's crc32_combine algorithm
// (multmodp/x2nmodp) over the reflected 64-bit ECMA polynomial; the pre- and
// post-inversion of the register cancel, as they do for CRC-32.
func (s section) after(prev uint64) uint64 { return multModP(s.shift, prev) ^ s.crc }

// fpSections caches a graph's fingerprint spans: per type, and per block of
// fpBlockRows rows of each relation. The graph is immutable, so a span once
// hashed stays valid for its lifetime; the mutex only guards the cache
// against concurrent fillers. A block of no entries reads as not hashed
// (n == 0), which costs nothing to hash again.
type fpSections struct {
	mu    sync.Mutex
	types map[string]section
	rels  map[string][]section
}

func newFPSections() *fpSections {
	return &fpSections{types: make(map[string]section), rels: make(map[string][]section)}
}

// typeSpan returns type name's cached span, hashing it on first use.
func (c *fpSections) typeSpan(name string, hash func(*crcWriter)) section {
	c.mu.Lock()
	s, ok := c.types[name]
	c.mu.Unlock()
	if ok {
		return s
	}
	var w crcWriter
	hash(&w)
	s = w.sum()
	c.mu.Lock()
	c.types[name] = s
	c.mu.Unlock()
	return s
}

// blocks returns the spans of relation name's row blocks over m, hashing
// those not cached yet.
func (c *fpSections) blocks(name string, m *sparse.Matrix) []section {
	c.mu.Lock()
	bs := make([]section, (m.Rows()+fpBlockRows-1)/fpBlockRows)
	copy(bs, c.rels[name])
	c.mu.Unlock()
	var w crcWriter
	for b := range bs {
		if bs[b].n == 0 {
			w = crcWriter{buf: w.buf}
			hashRows(&w, m, b*fpBlockRows, min((b+1)*fpBlockRows, m.Rows()))
			bs[b] = w.sum()
		}
	}
	c.mu.Lock()
	c.rels[name] = bs
	c.mu.Unlock()
	return bs
}

// carry returns the spans a graph Apply derived from this one can reuse:
// every type but the grown ones, every relation block but those holding a
// dirty row.
func (c *fpSections) carry(grown map[string]bool, dirtyRows map[string][]int) *fpSections {
	out := newFPSections()
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, s := range c.types {
		if !grown[k] {
			out.types[k] = s
		}
	}
	for k, bs := range c.rels {
		bs = slices.Clone(bs)
		for _, r := range dirtyRows[k] {
			if b := r / fpBlockRows; b < len(bs) {
				bs[b] = section{}
			}
		}
		out.rels[k] = bs
	}
	return out
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
