package hin

import (
	"fmt"
	"math/rand"
	"testing"
)

// bigApplyGraph is a random graph over applySchema with a few hundred nodes
// per type, so every type and relation spans several fingerprint blocks.
func bigApplyGraph(rng *rand.Rand) *Graph {
	b := NewBuilder(applySchema())
	for _, typ := range []string{"a", "b", "c"} {
		for i := 0; i < 150+rng.Intn(100); i++ {
			b.AddNode(typ, fmt.Sprintf("%s%d", typ, i))
		}
	}
	for _, r := range applyRels {
		for k := 300 + rng.Intn(300); k > 0; k-- {
			b.AddWeightedEdge(r.name, fmt.Sprintf("%s%d", r.src, rng.Intn(150)), fmt.Sprintf("%s%d", r.dst, rng.Intn(150)), float64(1+rng.Intn(3)))
		}
	}
	return b.MustBuild()
}

// randomGrowthBatch returns a batch over g: upserts and deletes across the
// relations, sometimes forty new nodes of one type (growth across a block
// boundary), and, when empty is set, a delete of every edge of relation bc.
func randomGrowthBatch(rng *rand.Rand, g *Graph, gen int, empty bool) []Op {
	var ops []Op
	if empty {
		bc, _ := g.Adjacency("bc")
		for _, t := range bc.Triplets() {
			src, _ := g.NodeID("b", t.Row)
			dst, _ := g.NodeID("c", t.Col)
			ops = append(ops, Op{Kind: OpDeleteEdge, Relation: "bc", Src: src, Dst: dst})
		}
		return ops
	}
	if rng.Intn(3) == 0 {
		typ := []string{"a", "b", "c"}[rng.Intn(3)]
		for i := 0; i < 40; i++ {
			ops = append(ops, Op{Kind: OpAddNode, Type: typ, ID: fmt.Sprintf("g%d-%d", gen, i)})
		}
	}
	deleted := map[string]bool{}
	for k := 1 + rng.Intn(6); k > 0; k-- {
		r := applyRels[rng.Intn(len(applyRels))]
		src, _ := g.NodeID(r.src, rng.Intn(g.NodeCount(r.src)))
		dst, _ := g.NodeID(r.dst, rng.Intn(g.NodeCount(r.dst)))
		adj, _ := g.Adjacency(r.name)
		i, _ := g.NodeIndex(r.src, src)
		j, _ := g.NodeIndex(r.dst, dst)
		key := r.name + src + ">" + dst
		if adj.At(i, j) != 0 && rng.Intn(2) == 0 && !deleted[key] {
			deleted[key] = true
			ops = append(ops, Op{Kind: OpDeleteEdge, Relation: r.name, Src: src, Dst: dst})
			continue
		}
		if deleted[key] {
			continue
		}
		ops = append(ops, Op{Kind: OpUpsertEdge, Relation: r.name, Src: src, Dst: dst, Weight: float64(1 + rng.Intn(4))})
	}
	if len(ops) == 0 {
		ops = append(ops, Op{Kind: OpAddNode, Type: "a", ID: fmt.Sprintf("g%d", gen)})
	}
	return ops
}

// TestFingerprintTreeMatchesStream chains random batches over graphs of
// many blocks — upserts, deletes, types grown past a block boundary, a
// relation emptied by deletes — and asks the fingerprint of some
// generations only, so a generation derives its section trees from its
// parent's, or hashes itself whole when its parent never did. Every
// answer is the stream definition's, and a whole rehash's. The kept
// transposes are read on some generations only, the same way, and each
// read is W's transpose bit for bit.
func TestFingerprintTreeMatchesStream(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := bigApplyGraph(rng)
		derived := 0
		for gen := 0; gen < 16; gen++ {
			ng, _, err := g.Apply(randomGrowthBatch(rng, g, gen, gen == 9))
			if err != nil {
				t.Fatal(err)
			}
			if gen == 9 {
				if bc, _ := ng.Adjacency("bc"); bc.NNZ() != 0 {
					t.Fatalf("bc holds %d entries after deleting them all", bc.NNZ())
				}
			}
			if rng.Intn(4) != 0 {
				if g.fp.st != nil {
					derived++
				}
				got := ng.Fingerprint()
				if want := referenceFingerprint(ng); got != want {
					t.Fatalf("seed %d gen %d: Fingerprint = %016x, stream definition %016x", seed, gen, got, want)
				}
				if whole := newFPState(ng).top.sum().crc; got != whole {
					t.Fatalf("seed %d gen %d: Fingerprint = %016x, whole rehash %016x", seed, gen, got, whole)
				}
			}
			if rng.Intn(3) == 0 {
				for _, r := range applyRels {
					w, _ := ng.Adjacency(r.name)
					if wt, _ := ng.TransposedAdjacency(r.name); !sameCSR(wt, w.Transpose()) {
						t.Fatalf("seed %d gen %d: %s transposed differs from W's transpose", seed, gen, r.name)
					}
				}
			}
			g = ng
		}
		if derived == 0 {
			t.Fatalf("seed %d: no generation derived its fingerprint from its parent's", seed)
		}
	}
}

// TestFingerprintTreeSet holds a section tree edited leaf by leaf — grown
// far past its size, leaves emptied and refilled — to the join of its
// leaves in order, and the parent tree to its own leaves: set shares, it
// never changes a node.
func TestFingerprintTreeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	leaf := func() section {
		if rng.Intn(4) == 0 {
			return emptySpan
		}
		var w crcWriter
		for k := rng.Intn(5); k >= 0; k-- {
			w.u64(rng.Uint64())
		}
		return w.sum()
	}
	join := func(leaves []section) section {
		s := emptySpan
		for _, l := range leaves {
			s = s.then(l)
		}
		return s
	}
	leaves := make([]section, 5)
	for i := range leaves {
		leaves[i] = leaf()
	}
	tree := newFPTree(leaves)
	for step := 0; step < 300; step++ {
		i := rng.Intn(len(leaves) + 3)
		for i >= len(leaves) {
			leaves = append(leaves, emptySpan)
		}
		prev, prevLeaves := tree, append([]section(nil), leaves...)
		leaves[i] = leaf()
		tree = tree.set(i, leaves[i])
		if got, want := tree.sum(), join(leaves); got != want {
			t.Fatalf("step %d: tree sums to %+v, its leaves join to %+v", step, got, want)
		}
		if got, want := prev.sum(), join(prevLeaves); got != want {
			t.Fatalf("step %d: set changed the tree it was called on", step)
		}
	}
}
