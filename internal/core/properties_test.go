package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hetesim/internal/hin"
	"hetesim/internal/metapath"
)

// Paper-property suite over seeded random graphs (run by `make properties`
// under -race -count=2). Where the existing quick.Check properties assert
// the paper's theorems to a loose tolerance, these tests pin the stronger
// guarantees the engine actually provides: symmetry is *bit-exact* for
// even-length paths (every plan accumulates contributions in the same
// ascending-index order, and multiplication commutes bitwise), and only
// odd paths — whose reverse carries the other half across the middle
// relation, so the numerator sums in a different order — need a
// floating-point tolerance.

// Even-length relevance paths decompose into two pure half-chains.
var evenSpecs = []string{"APA", "APT", "APTPA", "APVCV", "APVCVPA", "TPA"}

// Odd-length paths split on a middle relation whose edge instances become
// literal middle objects (Definition 6).
var oddSpecs = []string{"AP", "TP", "APVC", "PVCV"}

// Symmetric paths P = P⁻¹, the precondition of Properties 4 and 5.
var symmetricSpecs = []string{"APA", "APTPA", "APVCVPA", "PAP", "TPT", "VPV"}

var propertySeeds = []int64{3, 17, 59}

// TestPropertyRandomSymmetry is Property 3 (HS(a,b|P) = HS(b,a|P⁻¹)) on
// seeded random graphs, at the sharpest tolerance each path class admits:
// exact equality for even paths, 1e-12 for odd ones.
func TestPropertyRandomSymmetry(t *testing.T) {
	ctx := context.Background()
	for _, seed := range propertySeeds {
		g := randomBibGraph(seed)
		norm := NewEngine(g)
		raw := NewEngine(g, WithNormalization(false))
		rng := rand.New(rand.NewSource(seed + 1000))

		check := func(e *Engine, spec string, matTol, pairTol float64, label string) {
			p := metapath.MustParse(g.Schema(), spec)
			rp := p.Reverse()
			fwd, err := e.AllPairs(ctx, p)
			if err != nil {
				t.Fatalf("seed %d %s AllPairs(%s): %v", seed, label, spec, err)
			}
			bwd, err := e.AllPairs(ctx, rp)
			if err != nil {
				t.Fatalf("seed %d %s AllPairs(%s): %v", seed, label, rp, err)
			}
			if !bwd.ApproxEqual(fwd.Transpose(), matTol) {
				t.Errorf("seed %d %s: AllPairs(%s) != AllPairs(%s)ᵀ within %v", seed, label, spec, rp, matTol)
			}
			// The pair plan: same property through the vector chains.
			nS, nT := g.NodeCount(p.Source()), g.NodeCount(p.Target())
			for trial := 0; trial < 4; trial++ {
				i, j := rng.Intn(nS), rng.Intn(nT)
				a, err := e.PairByIndex(ctx, p, i, j)
				if err != nil {
					t.Fatal(err)
				}
				b, err := e.PairByIndex(ctx, rp, j, i)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(a-b) > pairTol {
					t.Errorf("seed %d %s: HS(%d,%d|%s)=%v but HS(%d,%d|%s)=%v", seed, label, i, j, spec, a, j, i, rp, b)
				}
			}
		}

		for _, spec := range evenSpecs {
			// Even paths: the reversed path's half-chains are exactly the
			// original's swapped, and every dot product sums the same
			// intersection in the same ascending order — bit-exact. The
			// normalized matrix plan alone scales by 1/|row| and 1/|col| in
			// opposite orders, so it rounds within an ulp; the cosine of
			// the pair plan multiplies the norms commutatively and stays
			// bit-exact.
			check(raw, spec, 0, 0, "raw")
			check(norm, spec, 1e-14, 0, "norm")
		}
		for _, spec := range oddSpecs {
			// Odd paths: the reverse path carries the other half across
			// the middle relation (l·M·r against r·Mᵀ·l), so sums
			// associate differently.
			check(raw, spec, 1e-12, 1e-12, "raw")
			check(norm, spec, 1e-12, 1e-12, "norm")
		}
	}
}

// TestPropertyRandomSelfMaximumAndRange is Property 4 on seeded random
// graphs: normalized HeteSim lies in [0,1], and on a symmetric path every
// node with a non-empty reaching distribution is its own best match with
// HS(a,a) = 1.
func TestPropertyRandomSelfMaximumAndRange(t *testing.T) {
	ctx := context.Background()
	for _, seed := range propertySeeds {
		g := randomBibGraph(seed)
		e := NewEngine(g)
		for _, spec := range symmetricSpecs {
			p := metapath.MustParse(g.Schema(), spec)
			if !p.IsSymmetric() {
				t.Fatalf("%s is not symmetric", spec)
			}
			rel, err := e.AllPairs(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			n := g.NodeCount(p.Source())
			for i := 0; i < n; i++ {
				self := rel.At(i, i)
				rowMax := 0.0
				for j := 0; j < n; j++ {
					v := rel.At(i, j)
					if v < -1e-12 || v > 1+1e-12 {
						t.Fatalf("seed %d %s: HS(%d,%d)=%v outside [0,1]", seed, spec, i, j, v)
					}
					rowMax = math.Max(rowMax, v)
				}
				if rowMax == 0 {
					continue // no reachable middle distribution
				}
				// cos(v,v) = dot/(√dot·√dot): exact up to sqrt rounding.
				if math.Abs(self-1) > 1e-12 {
					t.Errorf("seed %d %s: HS(%d,%d)=%v, want 1", seed, spec, i, i, self)
				}
				if self+1e-12 < rowMax {
					t.Errorf("seed %d %s: self score %v below row max %v", seed, spec, self, rowMax)
				}
			}
		}
	}
}

// TestPropertyRandomSemiMetric is Property 5: d(a,b) = 1 − HS(a,b|P) on a
// symmetric path is a semi-metric — non-negative, symmetric, and zero on
// the diagonal. (The triangle inequality is deliberately NOT asserted:
// the paper's Section 3.4 shows HeteSim distance does not satisfy it.)
func TestPropertyRandomSemiMetric(t *testing.T) {
	ctx := context.Background()
	for _, seed := range propertySeeds {
		g := randomBibGraph(seed)
		e := NewEngine(g)
		for _, spec := range []string{"APA", "APTPA", "PVP"} {
			p := metapath.MustParse(g.Schema(), spec)
			rel, err := e.AllPairs(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			n := g.NodeCount(p.Source())
			for i := 0; i < n; i++ {
				if rel.At(i, i) != 0 && math.Abs(1-rel.At(i, i)) > 1e-12 {
					t.Errorf("seed %d %s: d(%d,%d)=%v, want 0", seed, spec, i, i, 1-rel.At(i, i))
				}
				for j := 0; j < n; j++ {
					d := 1 - rel.At(i, j)
					if d < -1e-12 {
						t.Errorf("seed %d %s: d(%d,%d)=%v negative", seed, spec, i, j, d)
					}
					if math.Abs(d-(1-rel.At(j, i))) > 1e-12 {
						t.Errorf("seed %d %s: d(%d,%d) != d(%d,%d)", seed, spec, i, j, j, i)
					}
				}
			}
		}
	}
}

// TestPropertyRandomIndiscernibles pins the identity-of-indiscernibles
// direction of Property 5: d(a,b) = 0 exactly when the reaching
// distributions are parallel — equal distributions score 1, proportional
// (scaled) distributions score 1, and genuinely different ones score < 1.
func TestPropertyRandomIndiscernibles(t *testing.T) {
	b := hin.NewBuilder(fig4Schema())
	// twin1 and twin2 write the same papers with the same weights;
	// scaled writes the same papers at double weight (parallel, not
	// equal); other overlaps on one paper only.
	for _, paper := range []string{"p1", "p2"} {
		b.AddEdge("writes", "twin1", paper)
		b.AddEdge("writes", "twin2", paper)
		b.AddWeightedEdge("writes", "scaled", paper, 2)
	}
	b.AddEdge("writes", "other", "p2")
	b.AddEdge("writes", "other", "p3")
	b.AddEdge("published_in", "p1", "KDD")
	b.AddEdge("published_in", "p2", "KDD")
	b.AddEdge("published_in", "p3", "SIGMOD")
	g := b.MustBuild()
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APA")

	score := func(a, bID string) float64 {
		v, err := e.Pair(context.Background(), p, a, bID)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if d := 1 - score("twin1", "twin2"); math.Abs(d) > 1e-12 {
		t.Errorf("d(twin1,twin2) = %v, want 0 (identical distributions)", d)
	}
	if d := 1 - score("twin1", "scaled"); math.Abs(d) > 1e-12 {
		t.Errorf("d(twin1,scaled) = %v, want 0 (parallel distributions)", d)
	}
	if d := 1 - score("twin1", "other"); d < 1e-3 {
		t.Errorf("d(twin1,other) = %v, want clearly positive (distinguishable)", d)
	}
}
