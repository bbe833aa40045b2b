package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hetesim/internal/metapath"
	"hetesim/internal/sparse"
)

// TestDifferentialRawPerQuery holds the per-query normalization flag to the
// engine default it replaces: a Raw query on a normalized engine must answer,
// float bit for float bit, what a WithNormalization(false) engine answers —
// pair, single-source, top-k (eps 0 and 1e-3, through all four scans),
// all-pairs, subset, why, a batch mixing raw and normalized slots (against
// solo answers, in one group per path) — over even and odd paths.
func TestDifferentialRawPerQuery(t *testing.T) {
	ctx := context.Background()
	raw := PlanOptions{Raw: true}
	sameFloat := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: raw query %v, raw engine %v", what, got, want)
		}
	}
	sameFloats := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d scores, want %d", what, len(got), len(want))
		}
		for i := range got {
			sameFloat(fmt.Sprintf("%s[%d]", what, i), got[i], want[i])
		}
	}
	sameMatrix := func(what string, got, want *sparse.Matrix) {
		t.Helper()
		if !got.Equal(want) {
			t.Fatalf("%s: raw query's matrix differs from the raw engine's", what)
		}
	}
	scans := func() [4]uint64 {
		return [4]uint64{scanReachable.count.Value(), scanRows.count.Value(),
			scanTransposeOnce.count.Value(), scanTransposed.count.Value()}
	}
	before := scans()
	for _, seed := range []int64{3, 29, 71} {
		g := randomBibGraph(seed)
		rng := rand.New(rand.NewSource(seed + 300))
		for _, spec := range []string{"APA", "APT", "APTPA", "APVCVPA", "AP", "APVC", "APAP"} {
			p := metapath.MustParse(g.Schema(), spec)
			nS, nT := g.NodeCount(p.Source()), g.NodeCount(p.Target())
			src, dst := rng.Intn(nS), rng.Intn(nT)
			what := func(s string) string { return fmt.Sprintf("seed %d %s src %d: %s", seed, spec, src, s) }
			norm, rawE := NewEngine(g), NewEngine(g, WithNormalization(false))

			for _, kind := range []PlanKind{PlanAuto, PlanPairVectors, PlanSingleVsMatrix, PlanAllPairs} {
				got, _, err := norm.PairWithPlan(ctx, p, src, dst, PlanOptions{Force: kind, Raw: true})
				if err != nil {
					t.Fatal(err)
				}
				want, err := rawE.PairByIndex(ctx, p, src, dst)
				if err != nil {
					t.Fatal(err)
				}
				sameFloat(what("pair "+string(kind)), got, want)
			}

			gotSS, _, err := norm.singleSourceWithPlan(ctx, p, src, raw)
			if err != nil {
				t.Fatal(err)
			}
			wantSS, err := rawE.SingleSourceByIndex(ctx, p, src)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(what("single-source"), gotSS, wantSS)

			// Top-k on fresh engines walks rented (or bought) row scans, then the
			// transpose built once, then the cached transpose — on both engines
			// in step, since a chain's rent and cache do not depend on the form.
			for _, eps := range []float64{0, 1e-3} {
				tn, tr := NewEngine(g), NewEngine(g, WithNormalization(false))
				tKey := "T:" + tn.chainCacheKey(splitPath(p).right())
				k := nT + 1
				for call, transposed := 0, false; ; call++ {
					if call > nT+3 {
						t.Fatal(what("the right half-chain was never bought"))
					}
					got, _, err := tn.TopKSearchWithPlan(ctx, p, src, k, eps, raw)
					if err != nil {
						t.Fatal(err)
					}
					want, err := tr.TopKSearch(ctx, p, src, k, eps)
					if err != nil {
						t.Fatal(err)
					}
					if !sameHits(got, want) {
						t.Fatalf("%s: raw query %v, raw engine %v", what(fmt.Sprintf("top-k eps %v call %d", eps, call)), got, want)
					}
					if transposed { // this call scanned the cached transpose
						break
					}
					transposed = tn.chainWarm(tKey)
				}
			}

			gotAP, _, err := norm.AllPairsWithPlan(ctx, p, raw)
			if err != nil {
				t.Fatal(err)
			}
			wantAP, err := rawE.AllPairs(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			sameMatrix(what("all-pairs"), gotAP, wantAP)

			srcs, dsts := []int{src, (src + 1) % nS}, []int{dst, 0, nT - 1}
			for _, kind := range []PlanKind{PlanSubsetChain, PlanAllPairs} {
				got, _, err := NewEngine(g).PairsSubsetWithPlan(ctx, p, srcs, dsts, PlanOptions{Force: kind, Raw: true})
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := NewEngine(g, WithNormalization(false)).PairsSubsetWithPlan(ctx, p, srcs, dsts, PlanOptions{Force: kind})
				if err != nil {
					t.Fatal(err)
				}
				sameMatrix(what("subset "+string(kind)), got, want)
			}

			total, cs, err := norm.PairContributions(ctx, p, src, dst, 1000, true)
			if err != nil {
				t.Fatal(err)
			}
			wantTotal, wantCs, err := rawE.PairContributions(ctx, p, src, dst, 1000, false)
			if err != nil {
				t.Fatal(err)
			}
			sameFloat(what("why total"), total, wantTotal)
			if len(cs) != len(wantCs) {
				t.Fatalf("%s: %d contributions, want %d", what("why"), len(cs), len(wantCs))
			}
			for i := range cs {
				if cs[i].MiddleIndex != wantCs[i].MiddleIndex || cs[i].Label != wantCs[i].Label {
					t.Fatalf("%s: contribution %d is %+v, want %+v", what("why"), i, cs[i], wantCs[i])
				}
				sameFloat(what(fmt.Sprintf("why contribution %d", i)), cs[i].Value, wantCs[i].Value)
				sameFloat(what(fmt.Sprintf("why fraction %d", i)), cs[i].Fraction, wantCs[i].Fraction)
			}
		}

		// A batch mixing raw and normalized slots groups by path alone and
		// answers each slot as its own form does solo.
		qs := batchWorkload(t, seed+100, NewEngine(g))
		for i := range qs {
			qs[i].Raw = i%2 == 1
		}
		res, stats, err := NewEngine(g).ExecuteBatch(ctx, qs, BatchOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Groups != 4 || stats.SharedQueries != len(qs) {
			t.Errorf("seed %d mixed batch: %d groups, %d shared; want 4 groups (one per path), all %d shared",
				seed, stats.Groups, stats.SharedQueries, len(qs))
		}
		soloNorm, soloRaw := NewEngine(g), NewEngine(g, WithNormalization(false))
		for i, q := range qs {
			solo := soloNorm
			if q.Raw {
				solo = soloRaw
			}
			want := solo.executeSoloQuery(ctx, BatchQuery{Kind: q.Kind, Path: q.Path, Src: q.Src, Dst: q.Dst, K: q.K, Eps: q.Eps})
			if res[i].Err != nil || want.Err != nil {
				t.Fatalf("seed %d slot %d: batch %v, solo %v", seed, i, res[i].Err, want.Err)
			}
			slot := fmt.Sprintf("seed %d mixed batch slot %d (%s %s raw %v)", seed, i, q.Kind, q.Path, q.Raw)
			sameFloat(slot, res[i].Score, want.Score)
			sameFloats(slot, res[i].Scores, want.Scores)
			if !sameHits(res[i].TopK, want.TopK) {
				t.Fatalf("%s: batch %v, solo %v", slot, res[i].TopK, want.TopK)
			}
		}
	}
	after := scans()
	for i, name := range []string{"reachable-rows", "rows", "transpose-once", "transposed"} {
		if after[i] == before[i] {
			t.Errorf("no raw top-k took the %s scan", name)
		}
	}
}
