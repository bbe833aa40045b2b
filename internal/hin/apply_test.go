package hin

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"hetesim/internal/sparse"
)

// referenceFingerprint is Fingerprint's definition written out as one
// stream through one CRC, with no sections: what every sectioned,
// combined fingerprint must equal bit for bit.
func referenceFingerprint(g *Graph) uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	var num [8]byte
	writeInt := func(v uint64) {
		binary.LittleEndian.PutUint64(num[:], v)
		h.Write(num[:])
	}
	writeStr := func(s string) {
		writeInt(uint64(len(s)))
		h.Write([]byte(s))
	}
	types := g.schema.Types()
	sort.Slice(types, func(i, j int) bool { return types[i].Name < types[j].Name })
	writeInt(uint64(len(types)))
	for _, t := range types {
		writeStr(t.Name)
		writeInt(uint64(t.Abbrev))
		ids := g.nodes[t.Name]
		writeInt(uint64(len(ids)))
		for _, id := range ids {
			writeStr(id)
		}
	}
	rels := g.schema.Relations()
	sort.Slice(rels, func(i, j int) bool { return rels[i].Name < rels[j].Name })
	writeInt(uint64(len(rels)))
	for _, r := range rels {
		writeStr(r.Name)
		writeStr(r.Source)
		writeStr(r.Target)
		ts := g.adj[r.Name].Triplets()
		writeInt(uint64(len(ts)))
		for _, t := range ts {
			writeInt(uint64(t.Row))
			writeInt(uint64(t.Col))
			writeInt(math.Float64bits(t.Val))
		}
	}
	return h.Sum64()
}

func TestCRC64CombineMatchesConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {8, 8}, {100, 3}, {7, 4096}, {40000, 70001}} {
		a, b := make([]byte, n[0]), make([]byte, n[1])
		rng.Read(a)
		rng.Read(b)
		want := crc64.Checksum(append(append([]byte(nil), a...), b...), crcTable)
		got := span(crc64.Checksum(b, crcTable), int64(len(b))).after(crc64.Checksum(a, crcTable))
		if got != want {
			t.Errorf("combine over %d+%d bytes = %016x, want %016x", n[0], n[1], got, want)
		}
	}
}

func TestFingerprintMatchesStreamDefinition(t *testing.T) {
	g := toyGraph(t)
	if got, want := g.Fingerprint(), referenceFingerprint(g); got != want {
		t.Fatalf("Fingerprint = %016x, stream definition %016x", got, want)
	}
	// Long IDs overflow the writer's buffer; the stream must not notice.
	b := NewBuilder(bibSchema(t))
	b.AddEdge("writes", string(bytes.Repeat([]byte("a"), 70000)), "p1")
	b.AddEdge("writes", "Tom", "p1")
	g = b.MustBuild()
	if got, want := g.Fingerprint(), referenceFingerprint(g); got != want {
		t.Fatalf("long IDs: Fingerprint = %016x, stream definition %016x", got, want)
	}
}

// applySchema is the differential tests' schema: two relations between
// distinct types and one from a type to itself.
func applySchema() *Schema {
	s := NewSchema()
	s.MustAddType("a", 'A')
	s.MustAddType("b", 'B')
	s.MustAddType("c", 'C')
	s.MustAddRelation("ab", "a", "b")
	s.MustAddRelation("bc", "b", "c")
	s.MustAddRelation("aa", "a", "a")
	return s
}

var applyRels = []struct{ name, src, dst string }{{"ab", "a", "b"}, {"bc", "b", "c"}, {"aa", "a", "a"}}

// applyModel is Apply's contract written the plain way: node lists and
// every relation's cells in a map, ops applied one by one.
type applyModel struct {
	nodes map[string][]string
	cells map[string]map[edgeKey]float64
}

func modelOf(g *Graph) *applyModel {
	m := &applyModel{nodes: make(map[string][]string), cells: make(map[string]map[edgeKey]float64)}
	for t, ids := range g.nodes {
		m.nodes[t] = append([]string(nil), ids...)
	}
	for r, adj := range g.adj {
		m.cells[r] = make(map[edgeKey]float64)
		for _, tr := range adj.Triplets() {
			m.cells[r][edgeKey{tr.Row, tr.Col}] = tr.Val
		}
	}
	return m
}

func (m *applyModel) index(typ, id string, add bool) (int, bool) {
	for i, have := range m.nodes[typ] {
		if have == id {
			return i, true
		}
	}
	if !add {
		return 0, false
	}
	m.nodes[typ] = append(m.nodes[typ], id)
	return len(m.nodes[typ]) - 1, true
}

// apply runs one valid op; it reports false for an op Apply must reject.
func (m *applyModel) apply(s *Schema, op Op) bool {
	switch op.Kind {
	case OpAddNode:
		m.index(op.Type, op.ID, true)
	case OpUpsertEdge:
		rel, _ := s.RelationByName(op.Relation)
		i, _ := m.index(rel.Source, op.Src, true)
		j, _ := m.index(rel.Target, op.Dst, true)
		m.cells[op.Relation][edgeKey{i, j}] = op.Weight
	case OpDeleteEdge:
		rel, _ := s.RelationByName(op.Relation)
		i, ok1 := m.index(rel.Source, op.Src, false)
		j, ok2 := m.index(rel.Target, op.Dst, false)
		if _, ok := m.cells[op.Relation][edgeKey{i, j}]; !ok1 || !ok2 || !ok {
			return false
		}
		delete(m.cells[op.Relation], edgeKey{i, j})
	}
	return true
}

func (m *applyModel) clone() *applyModel {
	c := &applyModel{nodes: make(map[string][]string), cells: make(map[string]map[edgeKey]float64)}
	for t, ids := range m.nodes {
		c.nodes[t] = append([]string(nil), ids...)
	}
	for r, cells := range m.cells {
		c.cells[r] = make(map[edgeKey]float64, len(cells))
		for k, v := range cells {
			c.cells[r][k] = v
		}
	}
	return c
}

// build rebuilds the model's graph from scratch through NewBuilder, nodes in
// index order first.
func (m *applyModel) build(t testing.TB, s *Schema) *Graph {
	b := NewBuilder(s)
	for _, typ := range s.Types() {
		for _, id := range m.nodes[typ.Name] {
			b.AddNode(typ.Name, id)
		}
	}
	for _, r := range applyRels {
		for k, w := range m.cells[r.name] {
			b.AddWeightedEdge(r.name, m.nodes[r.src][k.src], m.nodes[r.dst][k.dst], w)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// opGen draws ops over a model: upserts of new and existing cells,
// deletes of live cells (the batch's own upserts included, so a cell can
// be upserted and deleted, or deleted and upserted, in one batch), node
// additions, and now and then a delete of a missing cell.
type opGen struct {
	rng   *rand.Rand
	fresh int
}

func (gen *opGen) node(m *applyModel, typ string) string {
	if n := len(m.nodes[typ]); n > 0 && gen.rng.Intn(5) > 0 {
		return m.nodes[typ][gen.rng.Intn(n)]
	}
	gen.fresh++
	return fmt.Sprintf("%s%d", typ, 100+gen.fresh)
}

func (gen *opGen) op(m *applyModel) Op {
	r := applyRels[gen.rng.Intn(len(applyRels))]
	switch k := gen.rng.Intn(20); {
	case k < 2:
		typ := []string{"a", "b", "c"}[gen.rng.Intn(3)]
		return Op{Kind: OpAddNode, Type: typ, ID: gen.node(m, typ)}
	case k < 9 && len(m.cells[r.name]) > 0:
		keys := make([]edgeKey, 0, len(m.cells[r.name]))
		for key := range m.cells[r.name] {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i].src < keys[j].src || keys[i].src == keys[j].src && keys[i].dst < keys[j].dst
		})
		key := keys[gen.rng.Intn(len(keys))]
		src, dst := m.nodes[r.src][key.src], m.nodes[r.dst][key.dst]
		if gen.rng.Intn(4) == 0 { // re-upsert a live cell, maybe with its own weight
			return Op{Kind: OpUpsertEdge, Relation: r.name, Src: src, Dst: dst, Weight: float64(1 + gen.rng.Intn(2))}
		}
		return Op{Kind: OpDeleteEdge, Relation: r.name, Src: src, Dst: dst}
	case k == 9 && len(m.nodes[r.src]) > 0 && len(m.nodes[r.dst]) > 0:
		return Op{Kind: OpDeleteEdge, Relation: r.name, Src: m.nodes[r.src][0], Dst: m.nodes[r.dst][gen.rng.Intn(len(m.nodes[r.dst]))]}
	}
	return Op{Kind: OpUpsertEdge, Relation: r.name, Src: gen.node(m, r.src), Dst: gen.node(m, r.dst), Weight: float64(1 + gen.rng.Intn(3))}
}

// checkApply applies ops to g and holds the result to the model: an
// invalid batch fails whole; otherwise every relation's CSR equals
// sparse.New over the model's cells, the fingerprint equals both the stream
// definition and a from-scratch rebuild's, and Dirty names exactly the
// changed rows and columns. It returns the graph and model to go on with.
func checkApply(t testing.TB, s *Schema, g *Graph, m *applyModel, ops []Op) (*Graph, *applyModel) {
	t.Helper()
	want := m.clone()
	valid := true
	for _, op := range ops {
		valid = valid && want.apply(s, op)
	}
	ng, d, err := g.Apply(ops)
	if !valid {
		if err == nil {
			t.Fatalf("Apply accepted an invalid batch %+v", ops)
		}
		return g, m
	}
	if err != nil {
		t.Fatalf("Apply(%+v): %v", ops, err)
	}
	for _, r := range applyRels {
		var ts []sparse.Triplet
		for k, w := range want.cells[r.name] {
			ts = append(ts, sparse.Triplet{Row: k.src, Col: k.dst, Val: w})
		}
		cold := sparse.New(len(want.nodes[r.src]), len(want.nodes[r.dst]), ts)
		got, _ := ng.Adjacency(r.name)
		if !sameCSR(got, cold) {
			t.Fatalf("%s after %+v:\n got %v\nwant %v", r.name, ops, got.Triplets(), cold.Triplets())
		}
		if gotT, _ := ng.TransposedAdjacency(r.name); !sameCSR(gotT, cold.Transpose()) {
			t.Fatalf("%s transposed after %+v:\n got %v\nwant %v", r.name, ops, gotT.Triplets(), cold.Transpose().Triplets())
		}
		var rows, cols []int
		seenR, seenC := map[int]bool{}, map[int]bool{}
		for k := range unionKeys(m.cells[r.name], want.cells[r.name]) {
			if m.cells[r.name][k] != want.cells[r.name][k] {
				if !seenR[k.src] {
					seenR[k.src], rows = true, append(rows, k.src)
				}
				if !seenC[k.dst] {
					seenC[k.dst], cols = true, append(cols, k.dst)
				}
			}
		}
		sort.Ints(rows)
		sort.Ints(cols)
		if fmt.Sprint(d.Rows[r.name]) != fmt.Sprint(rows) || fmt.Sprint(d.Cols[r.name]) != fmt.Sprint(cols) {
			t.Fatalf("%s dirty after %+v = rows %v cols %v, want %v / %v", r.name, ops, d.Rows[r.name], d.Cols[r.name], rows, cols)
		}
		if _, ok := d.Rows[r.name]; ok && len(rows) == 0 {
			t.Fatalf("%s reported dirty with no changed cell", r.name)
		}
	}
	for typ, ids := range want.nodes {
		if grew := len(ids) > len(m.nodes[typ]); grew != d.Grown[typ] {
			t.Fatalf("Grown[%s] = %v, want %v", typ, d.Grown[typ], grew)
		}
	}
	fp := ng.Fingerprint()
	if ref := referenceFingerprint(ng); fp != ref {
		t.Fatalf("fingerprint %016x, stream definition %016x", fp, ref)
	}
	if cold := want.build(t, s).Fingerprint(); fp != cold {
		t.Fatalf("fingerprint %016x, rebuilt from scratch %016x", fp, cold)
	}
	return ng, want
}

func unionKeys(a, b map[edgeKey]float64) map[edgeKey]bool {
	out := make(map[edgeKey]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// sameCSR reports whether a and b have the same shape and the same entries
// row by row, in order and bit for bit: equal CSR arrays.
func sameCSR(a, b *sparse.Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.NNZ() != b.NNZ() {
		return false
	}
	for r := 0; r < a.Rows(); r++ {
		ai, av := a.RowEntries(r)
		bi, bv := b.RowEntries(r)
		if len(ai) != len(bi) {
			return false
		}
		for k := range ai {
			if ai[k] != bi[k] || math.Float64bits(av[k]) != math.Float64bits(bv[k]) {
				return false
			}
		}
	}
	return true
}

// randomApplyGraph builds a small random graph over applySchema.
func randomApplyGraph(rng *rand.Rand) *Graph {
	b := NewBuilder(applySchema())
	for _, r := range applyRels {
		for k := rng.Intn(12); k > 0; k-- {
			b.AddWeightedEdge(r.name, fmt.Sprintf("%s%d", r.src, rng.Intn(6)), fmt.Sprintf("%s%d", r.dst, rng.Intn(6)), float64(1+rng.Intn(3)))
		}
	}
	return b.MustBuild()
}

// TestApplyDifferential chains random batches over random graphs, so each
// generation's fingerprint starts from the spans its parent cached.
func TestApplyDifferential(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomApplyGraph(rng)
		s := g.Schema()
		if seed%2 == 0 {
			g.Fingerprint() // half the chains start with the base's spans cached
		}
		m := modelOf(g)
		gen := &opGen{rng: rng}
		for batch := 0; batch < 6; batch++ {
			ops := make([]Op, 1+rng.Intn(6))
			scratch := m.clone()
			for i := range ops {
				ops[i] = gen.op(scratch)
				scratch.apply(s, ops[i])
			}
			g, m = checkApply(t, s, g, m, ops)
		}
	}
}

// FuzzApply decodes each input into batches over a random base graph and
// holds Apply to the same model as TestApplyDifferential. The seeds run
// under plain go test.
func FuzzApply(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(2), []byte{9, 9, 9, 9, 9})
	f.Add(int64(3), []byte{255, 0, 128, 7, 7, 7, 1})
	f.Add(int64(4), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		g := randomApplyGraph(rng)
		s := g.Schema()
		m := modelOf(g)
		gen := &opGen{rng: rng}
		for len(data) > 0 {
			n := 1 + int(data[0])%5
			data = data[1:]
			ops := make([]Op, n)
			scratch := m.clone()
			for i := range ops {
				ops[i] = gen.op(scratch)
				scratch.apply(s, ops[i])
			}
			g, m = checkApply(t, s, g, m, ops)
		}
	})
}

// TestFingerprintConcurrent fingerprints one graph from several goroutines
// at once, while its section trees are first built, and a child graph
// derives its own from them mid-build: every caller gets the stream
// definition's value. The kept transposes are first read the same way.
func TestFingerprintConcurrent(t *testing.T) {
	g := randomApplyGraph(rand.New(rand.NewSource(9)))
	want := referenceFingerprint(g)
	ab, _ := g.Adjacency("ab")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := g.Fingerprint(); got != want {
				t.Errorf("concurrent Fingerprint = %016x, want %016x", got, want)
			}
			ng, _, err := g.Apply([]Op{{Kind: OpUpsertEdge, Relation: "ab", Src: "a0", Dst: "b9", Weight: 2}})
			if err != nil {
				t.Error(err)
				return
			}
			if got, ref := ng.Fingerprint(), referenceFingerprint(ng); got != ref {
				t.Errorf("child Fingerprint = %016x, want %016x", got, ref)
			}
			if abT, _ := g.TransposedAdjacency("ab"); !sameCSR(abT, ab.Transpose()) {
				t.Error("concurrent TransposedAdjacency differs from Transpose")
			}
			nab, _ := ng.Adjacency("ab")
			if nabT, _ := ng.TransposedAdjacency("ab"); !sameCSR(nabT, nab.Transpose()) {
				t.Error("child TransposedAdjacency differs from Transpose")
			}
		}()
	}
	wg.Wait()
}
