package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hetesim/internal/metapath"
)

// Forcing any exact physical plan must return bit-identical scores: the
// operators accumulate contributions in the same ascending-index order
// regardless of whether distributions are propagated, materialized, or
// selected, so `==` holds — not just approximate equality.
func TestForcedPlansBitIdentical(t *testing.T) {
	exactPlans := []PlanKind{PlanPairVectors, PlanSingleVsMatrix, PlanAllPairs}
	for seed := int64(0); seed < 8; seed++ {
		g := randomBibGraph(seed)
		rng := rand.New(rand.NewSource(seed))
		for _, spec := range []string{"APVCVPA", "APTPA", "APT", "APVC"} { // even and odd paths
			p := metapath.MustParse(g.Schema(), spec)
			nSrc := g.NodeCount(p.Source())
			nDst := g.NodeCount(p.Target())
			src, dst := rng.Intn(nSrc), rng.Intn(nDst)

			// Pair: every exact plan on a fresh engine, compared exactly.
			var base float64
			for i, kind := range exactPlans {
				e := NewEngine(g)
				score, d, err := e.PairWithPlan(context.Background(), p, src, dst, PlanOptions{Force: kind})
				if err != nil {
					t.Fatalf("seed %d %s plan %s: %v", seed, spec, kind, err)
				}
				if d.Kind != kind || !d.Forced {
					t.Fatalf("decision = %+v, want forced %s", d, kind)
				}
				if i == 0 {
					base = score
				} else if score != base {
					t.Errorf("seed %d %s: plan %s score %v != pair-vectors %v",
						seed, spec, kind, score, base)
				}
			}

			// Single-source: the two applicable exact plans, element-exact.
			var baseScores []float64
			for i, kind := range []PlanKind{PlanSingleVsMatrix, PlanAllPairs} {
				e := NewEngine(g)
				scores, _, err := e.singleSourceWithPlan(context.Background(), p, src, PlanOptions{Force: kind})
				if err != nil {
					t.Fatalf("seed %d %s single-source %s: %v", seed, spec, kind, err)
				}
				if i == 0 {
					baseScores = scores
					continue
				}
				for j := range scores {
					if scores[j] != baseScores[j] {
						t.Errorf("seed %d %s: single-source %s[%d] = %v, want %v",
							seed, spec, kind, j, scores[j], baseScores[j])
					}
				}
			}

			// Top-k: identical ranked lists under both plans.
			var baseTop []Scored
			for i, kind := range []PlanKind{PlanSingleVsMatrix, PlanAllPairs} {
				e := NewEngine(g)
				top, _, err := e.TopKSearchWithPlan(context.Background(), p, src, 5, 0, PlanOptions{Force: kind})
				if err != nil {
					t.Fatalf("seed %d %s topk %s: %v", seed, spec, kind, err)
				}
				if i == 0 {
					baseTop = top
					continue
				}
				if len(top) != len(baseTop) {
					t.Fatalf("seed %d %s: topk %s returned %d results, want %d",
						seed, spec, kind, len(top), len(baseTop))
				}
				for j := range top {
					if top[j] != baseTop[j] {
						t.Errorf("seed %d %s: topk %s[%d] = %+v, want %+v",
							seed, spec, kind, j, top[j], baseTop[j])
					}
				}
			}

			// Subset: materialized selection vs selector-chain propagation.
			srcs := []int{src, (src + 1) % nSrc}
			dsts := []int{dst, (dst + 1) % nDst}
			eA := NewEngine(g)
			mA, _, err := eA.PairsSubsetWithPlan(context.Background(), p, srcs, dsts, PlanOptions{Force: PlanAllPairs})
			if err != nil {
				t.Fatalf("subset all-pairs: %v", err)
			}
			eB := NewEngine(g)
			mB, dB, err := eB.PairsSubsetWithPlan(context.Background(), p, srcs, dsts, PlanOptions{Force: PlanSubsetChain})
			if err != nil {
				t.Fatalf("subset subset-chain: %v", err)
			}
			if dB.Kind != PlanSubsetChain {
				t.Fatalf("subset decision = %+v", dB)
			}
			for i := range srcs {
				for j := range dsts {
					if mA.At(i, j) != mB.At(i, j) {
						t.Errorf("seed %d %s subset (%d,%d): all-pairs %v != subset-chain %v",
							seed, spec, i, j, mA.At(i, j), mB.At(i, j))
					}
				}
			}
		}
	}
}

// Auto selection must respond to the live signals: cold single queries
// propagate vectors, warm caches flip to materialized-row plans, and an
// amortization hint flips to materialization even when cold.
func TestPlanChoiceFlips(t *testing.T) {
	g := randomBibGraph(29)
	p := metapath.MustParse(g.Schema(), "APVCVPA")
	ctx := context.Background()

	e := NewEngine(g)
	_, d, err := e.PairWithPlan(ctx, p, 0, 1, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != PlanPairVectors {
		t.Errorf("cold single pair chose %s, want %s", d.Kind, PlanPairVectors)
	}
	if d.WarmLeft || d.WarmRight {
		t.Errorf("cold engine reported warm halves: %+v", d)
	}

	// Warm both half-chains: materialization is now free, so row lookups
	// beat re-propagating vectors.
	if err := e.Precompute(ctx, p); err != nil {
		t.Fatal(err)
	}
	_, d, err = e.PairWithPlan(ctx, p, 0, 1, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != PlanAllPairs {
		t.Errorf("warm pair chose %s, want %s", d.Kind, PlanAllPairs)
	}
	if !d.WarmLeft || !d.WarmRight {
		t.Errorf("warm engine did not report warmth: %+v", d)
	}
	if d.Est.Materialize != 0 {
		t.Errorf("warm plan estimates materialization cost %v, want 0", d.Est.Materialize)
	}

	// A cold engine with a huge amortization hint also flips to
	// materialization: the one-time cost divides away.
	e2 := NewEngine(g)
	_, d, err = e2.PairWithPlan(ctx, p, 0, 1, PlanOptions{Queries: 1_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind == PlanPairVectors {
		t.Errorf("10^9-query hint still chose %s", d.Kind)
	}
}

// Explain shares the optimizer's cost model, so a precomputed path reports
// free materialization and flags the warm halves.
func TestExplainReportsCacheWarmth(t *testing.T) {
	g := randomBibGraph(31)
	p := metapath.MustParse(g.Schema(), "APVCVPA")
	e := NewEngine(g)
	_, cold, err := e.Explain(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range cold {
		if pe.Kind != PlanPairVectors && pe.Materialize == 0 {
			t.Errorf("cold %s reports free materialization", pe.Kind)
		}
	}
	if err := e.Precompute(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	out, warm, err := e.Explain(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range warm {
		if pe.Materialize != 0 {
			t.Errorf("warm %s reports materialization cost %v, want 0", pe.Kind, pe.Materialize)
		}
	}
	if !strings.Contains(out, "warm") {
		t.Errorf("warm Explain output does not mention cache warmth:\n%s", out)
	}
}

// A bounded cache keeps a top-k's transpose only while it has room for it,
// and the cost model prices the scan that runs: on a precomputed path a full
// cache's top-k is a row scan of the cached right half with nothing left to
// materialize, while a cache with room, like an unbounded one, transposes the
// right half once.
func TestExplainTopKScanFollowsCacheRoom(t *testing.T) {
	g := randomBibGraph(31)
	p := metapath.MustParse(g.Schema(), "APVCVPA")
	ctx := context.Background()
	precomputed := func(limit int) *Engine {
		e := NewEngine(g, WithCacheLimit(limit))
		if err := e.Precompute(ctx, p); err != nil {
			t.Fatal(err)
		}
		return e
	}
	full := len(residentKeys(precomputed(0)))
	for _, limit := range []int{0, full, full + 1} {
		e := precomputed(limit)
		want, desc, mat := scanTransposeOnce, "transpose the cached right half once", true
		if limit == full {
			want, desc, mat = scanRows, "a row scan of the cached right half", false
		}
		out, _, err := e.Explain(p, 100)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "top-k scan: "+desc) {
			t.Errorf("limit %d: Explain does not describe %q:\n%s", limit, desc, out)
		}
		before := want.count.Value()
		_, d, err := e.TopKSearchWithPlan(ctx, p, 0, 3, 0, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ran := want.count.Value() - before; ran != 1 {
			t.Errorf("limit %d: the %s scan ran %d times, want once", limit, want.name, ran)
		}
		for _, pe := range d.Candidates {
			if (pe.Materialize != 0) != mat || !strings.Contains(pe.Description, desc) {
				t.Errorf("limit %d: top-k %s prices materialization %v, described as %q", limit, pe.Kind, pe.Materialize, pe.Description)
			}
		}
	}
}

// TestSpentDeadlineKeepsPlan: a query whose deadline is already spent fails
// with context.DeadlineExceeded on every pair, single-source and top-k plan,
// and reports the plan it was given — auto's choice or the forced one — not
// another. The context is created expired, so no timer runs.
func TestSpentDeadlineKeepsPlan(t *testing.T) {
	g := randomBibGraph(37)
	p := metapath.MustParse(g.Schema(), "APVCVPA")
	spent, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	kinds := map[ResultShape][]PlanKind{
		ShapePair:         {PlanAuto, PlanPairVectors, PlanSingleVsMatrix, PlanAllPairs},
		ShapeSingleSource: {PlanAuto, PlanSingleVsMatrix, PlanAllPairs},
		ShapeTopK:         {PlanAuto, PlanSingleVsMatrix, PlanAllPairs},
	}
	for shape, forced := range kinds {
		for _, force := range forced {
			run := func(ctx context.Context) (PlanDecision, error) {
				e, o := NewEngine(g), PlanOptions{Force: force}
				var d PlanDecision
				var err error
				switch shape {
				case ShapePair:
					_, d, err = e.PairWithPlan(ctx, p, 0, 1, o)
				case ShapeSingleSource:
					_, d, err = e.singleSourceWithPlan(ctx, p, 0, o)
				case ShapeTopK:
					_, d, err = e.TopKSearchWithPlan(ctx, p, 0, 3, 0, o)
				}
				return d, err
			}
			want, err := run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got, err := run(spent)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s plan=%s: err = %v, want context.DeadlineExceeded", shape, force, err)
			}
			if got.Kind != want.Kind || got.Forced != want.Forced || got.Reason != want.Reason {
				t.Errorf("%s plan=%s: spent deadline decided %s (%s), want %s (%s)",
					shape, force, got.Kind, got.Reason, want.Kind, want.Reason)
			}
		}
	}
}

func TestForcedPlanNotApplicable(t *testing.T) {
	g := randomBibGraph(41)
	p := metapath.MustParse(g.Schema(), "APVC")
	e := NewEngine(g)
	ctx := context.Background()

	cases := []struct {
		name string
		err  error
	}{
		{"pair-vectors for single-source", func() error {
			_, _, err := e.singleSourceWithPlan(ctx, p, 0, PlanOptions{Force: PlanPairVectors})
			return err
		}()},
		{"subset-chain for pair", func() error {
			_, _, err := e.PairWithPlan(ctx, p, 0, 0, PlanOptions{Force: PlanSubsetChain})
			return err
		}()},
		{"pair-vectors for all-pairs", func() error {
			_, _, err := e.AllPairsWithPlan(ctx, p, PlanOptions{Force: PlanPairVectors})
			return err
		}()},
	}
	for _, c := range cases {
		if !errors.Is(c.err, ErrPlanNotApplicable) {
			t.Errorf("%s: err = %v, want ErrPlanNotApplicable", c.name, c.err)
		}
	}
}

func TestParsePlanKind(t *testing.T) {
	for _, s := range append([]string{""}, strings.Split(PlanKindNames, " | ")...) {
		if _, err := ParsePlanKind(s); err != nil {
			t.Errorf("ParsePlanKind(%q) = %v", s, err)
		}
	}
	for _, s := range []string{"bogus", "topk-approx", "monte-carlo"} {
		if _, err := ParsePlanKind(s); !errors.Is(err, ErrPlanNotApplicable) {
			t.Errorf("ParsePlanKind(%q) err = %v, want ErrPlanNotApplicable", s, err)
		}
	}
}

func TestPlanSelectionCounters(t *testing.T) {
	g := randomBibGraph(43)
	p := metapath.MustParse(g.Schema(), "APVC")
	e := NewEngine(g)
	ctx := context.Background()
	if _, _, err := e.PairWithPlan(ctx, p, 0, 0, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.PairWithPlan(ctx, p, 0, 0, PlanOptions{Force: PlanAllPairs}); err != nil {
		t.Fatal(err)
	}
	counts := e.PlanSelections()
	if counts[string(PlanPairVectors)] != 1 {
		t.Errorf("pair-vectors count = %d, want 1 (counts %v)", counts[string(PlanPairVectors)], counts)
	}
	if counts[string(PlanAllPairs)] != 1 {
		t.Errorf("all-pairs count = %d, want 1 (counts %v)", counts[string(PlanAllPairs)], counts)
	}
}

// The legacy entry points are wrappers over the planner; their scores must
// not have moved. (The broader regression suite covers values; this pins the
// wrapper wiring itself.)
func TestLegacyEntryPointsDelegate(t *testing.T) {
	g := randomBibGraph(47)
	p := metapath.MustParse(g.Schema(), "APVC")
	e := NewEngine(g)
	ctx := context.Background()
	legacy, err := e.PairByIndex(ctx, p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	planned, d, err := e.PairWithPlan(ctx, p, 0, 0, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if legacy != planned {
		t.Errorf("PairByIndex = %v, PairWithPlan = %v", legacy, planned)
	}
	if len(e.PlanSelections()) == 0 {
		t.Error("legacy entry point did not go through the optimizer")
	}
	_ = d
}

// The top-k cost model follows opScanChain: a cold right chain is priced at
// its materialization alone (rented scans cost less, and the top-k that buys
// it scans rows, no transpose), a cached chain at one transpose, a cached
// transpose at nothing — and the plan descriptions name the scan that will
// run.
func TestTopKPlanFollowsScanChoice(t *testing.T) {
	g := randomBibGraph(53)
	p := metapath.MustParse(g.Schema(), "APVCVPA")
	ctx := context.Background()
	e := NewEngine(g)
	cm, err := e.costModelFor(splitPath(p))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		state       string
		prepare     func() error
		materialize float64
		describes   string
	}{
		{"cold chain", func() error { return nil }, cm.right.Flops, "few reachable targets: propagate their rows only"},
		{"cached chain", func() error { return e.Precompute(ctx, p) }, cm.right.NNZ, "transpose the cached right half once"},
		{"cached transpose", func() error { _, err := e.TopKSearch(ctx, p, 0, 3, 0); return err }, 0, "cached transposed right half"},
	} {
		if err := step.prepare(); err != nil {
			t.Fatal(err)
		}
		_, d, err := e.TopKSearchWithPlan(ctx, p, 0, 3, 0, PlanOptions{Force: PlanSingleVsMatrix})
		if err != nil {
			t.Fatal(err)
		}
		if d.Est.Materialize != step.materialize {
			t.Errorf("%s: one-time cost %v, want %v", step.state, d.Est.Materialize, step.materialize)
		}
		if !strings.Contains(d.Est.Description, step.describes) {
			t.Errorf("%s: description %q does not mention %q", step.state, d.Est.Description, step.describes)
		}
	}
}
