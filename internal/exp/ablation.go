package exp

import (
	"context"
	"fmt"
	"math"
	"strings"

	"hetesim/internal/core"
	"hetesim/internal/eval"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/sparse"
)

// Ablation studies for the design choices DESIGN.md §6 calls out. Unlike
// the benchmark harness (which times them), these drivers measure the
// *accuracy* side of each trade-off on the synthetic ACM network.

// AblationPruningRow is one pruning level's accuracy/size trade-off.
type AblationPruningRow struct {
	Eps          float64
	MaxAbsErr    float64 // worst absolute score deviation vs exact
	Spearman     float64 // rank agreement with the exact single-source scores
	LeftNNZ      int     // materialized left-half size under pruning
	ExactLeftNNZ int
}

// AblationPruningResult sweeps the Section 4.6 truncation threshold.
type AblationPruningResult struct {
	Path string
	Rows []AblationPruningRow
}

// Render formats the sweep.
func (r AblationPruningResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — reachable-probability pruning on %s (§4.6 speedup 3)\n\n", r.Path)
	fmt.Fprintf(&b, "  %-8s %12s %10s %12s\n", "eps", "max |err|", "Spearman", "left nnz")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-8g %12.2e %10.4f %7d/%d\n",
			row.Eps, row.MaxAbsErr, row.Spearman, row.LeftNNZ, row.ExactLeftNNZ)
	}
	return b.String()
}

// adjacency is the relation matrix W one step walks: transposed for an
// inverse step.
func adjacency(g *hin.Graph, s metapath.Step) (*sparse.Matrix, error) {
	w, err := g.Adjacency(s.Relation.Name)
	if err != nil {
		return nil, err
	}
	if s.Inverse {
		w = w.Transpose()
	}
	return w, nil
}

// transition is the transition matrix of one step as the engine builds it
// (Definition 8): row-normalized adjacency.
func transition(g *hin.Graph, s metapath.Step) (*sparse.Matrix, error) {
	w, err := adjacency(g, s)
	if err != nil {
		return nil, err
	}
	return w.RowNormalize(), nil
}

// transitions is transition for every step of a chain, in order.
func transitions(g *hin.Graph, steps []metapath.Step) ([]*sparse.Matrix, error) {
	us := make([]*sparse.Matrix, len(steps))
	for i, s := range steps {
		var err error
		if us[i], err = transition(g, s); err != nil {
			return nil, err
		}
	}
	return us, nil
}

// towardMiddle is a decomposed path's right half as its target walks it:
// reversed, target → meeting type.
func towardMiddle(right []metapath.Step) []metapath.Step {
	out := make([]metapath.Step, len(right))
	for i, s := range right {
		out[len(right)-1-i] = s.Reversed()
	}
	return out
}

// prunedChain is the reachable probability matrix of a step chain
// (Definition 9) with the entries below eps dropped after every step — the
// Section 4.6 truncation the pruning ablation measures. eps = 0 keeps every
// entry: the engine's exact chain, bit for bit.
func prunedChain(g *hin.Graph, steps []metapath.Step, eps float64) (*sparse.Matrix, error) {
	var pm *sparse.Matrix
	for _, s := range steps {
		u, err := transition(g, s)
		if err != nil {
			return nil, err
		}
		if pm == nil {
			pm = u
		} else if pm, err = pm.MulCtx(context.Background(), u); err != nil {
			return nil, err
		}
		pm = pm.Prune(eps)
	}
	return pm, nil
}

// PrunedSingleSource scores src against every target of an even-length path
// p by Definition 10 with the right half-chain truncated per step
// (prunedChain): the source's left distribution is propagated exactly, and
// the cosine takes its exact norm and the truncated chain's row norms.
func PrunedSingleSource(g *hin.Graph, p *metapath.Path, src int, eps float64) ([]float64, error) {
	d := p.Decompose()
	if d.Middle != nil {
		return nil, fmt.Errorf("exp: pruned single-source needs an even-length path, %s is odd", p)
	}
	us, err := transitions(g, d.Left)
	if err != nil {
		return nil, err
	}
	left := sparse.Unit(g.NodeCount(p.Source()), src)
	for _, u := range us {
		left = left.MulMat(u)
	}
	pmr, err := prunedChain(g, towardMiddle(d.Right), eps)
	if err != nil {
		return nil, err
	}
	scores := pmr.MulVec(left.Dense())
	ln, rns := left.Norm(), pmr.RowNorms()
	for b := range scores {
		if ln == 0 || rns[b] == 0 {
			scores[b] = 0
		} else {
			scores[b] /= ln * rns[b]
		}
	}
	return scores, nil
}

// AblationPruning measures, for several truncation thresholds, how far
// pruned HeteSim scores drift from exact ones and how much sparser the
// materialized chains get. The engine builds exact chains only; the pruned
// ones are built here (PrunedSingleSource, prunedChain).
func (c *Context) AblationPruning() (AblationPruningResult, error) {
	ds, err := c.ACM()
	if err != nil {
		return AblationPruningResult{}, err
	}
	g := ds.Graph
	const spec = "APTPA"
	p := mustPath(g, spec)
	exact := c.Engine("acm", g)
	counts, err := paperCounts(g)
	if err != nil {
		return AblationPruningResult{}, err
	}
	star, err := starAuthor(g, counts, "KDD")
	if err != nil {
		return AblationPruningResult{}, err
	}
	ref, err := exact.SingleSourceByIndex(context.Background(), p, star)
	if err != nil {
		return AblationPruningResult{}, err
	}
	_, _, actL, _, err := exact.ChainStats(context.Background(), p, true)
	if err != nil {
		return AblationPruningResult{}, err
	}
	res := AblationPruningResult{Path: spec}
	for _, eps := range []float64{0, 1e-3, 1e-2, 5e-2} {
		got, err := PrunedSingleSource(g, p, star, eps)
		if err != nil {
			return AblationPruningResult{}, err
		}
		var maxErr float64
		for i := range ref {
			if d := math.Abs(got[i] - ref[i]); d > maxErr {
				maxErr = d
			}
		}
		rho, err := eval.Spearman(ref, got)
		if err != nil {
			return AblationPruningResult{}, err
		}
		prunedL, err := prunedChain(g, p.Decompose().Left, eps)
		if err != nil {
			return AblationPruningResult{}, err
		}
		res.Rows = append(res.Rows, AblationPruningRow{
			Eps: eps, MaxAbsErr: maxErr, Spearman: rho,
			LeftNNZ: prunedL.NNZ(), ExactLeftNNZ: int(actL.NNZ),
		})
	}
	return res, nil
}

// AblationMonteCarloRow is one sample budget's estimation error.
type AblationMonteCarloRow struct {
	Walks      int
	MeanAbsErr float64
	MaxAbsErr  float64
}

// AblationMonteCarloResult sweeps the Monte Carlo sample budget against
// exact pair scores.
type AblationMonteCarloResult struct {
	Path  string
	Pairs int
	Rows  []AblationMonteCarloRow
}

// Render formats the sweep.
func (r AblationMonteCarloResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — Monte Carlo pair estimation on %s (%d pairs; §4.6 approximation)\n\n", r.Path, r.Pairs)
	fmt.Fprintf(&b, "  %-8s %12s %12s\n", "walks", "mean |err|", "max |err|")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-8d %12.4f %12.4f\n", row.Walks, row.MeanAbsErr, row.MaxAbsErr)
	}
	return b.String()
}

// AblationMonteCarlo measures the sampling estimator's error (PairSampler)
// against exact scores over author–conference pairs, across sample budgets:
// the error should shrink roughly as 1/sqrt(walks).
func (c *Context) AblationMonteCarlo() (AblationMonteCarloResult, error) {
	ds, err := c.ACM()
	if err != nil {
		return AblationMonteCarloResult{}, err
	}
	g := ds.Graph
	const spec = "APVC"
	p := mustPath(g, spec)
	e := c.Engine("acm", g)
	counts, err := paperCounts(g)
	if err != nil {
		return AblationMonteCarloResult{}, err
	}
	// Pairs: the top author of each conference with that conference.
	type pair struct{ a, c int }
	var pairs []pair
	for ci := range g.NodeIDs("conference") {
		name, err := g.NodeID("conference", ci)
		if err != nil {
			return AblationMonteCarloResult{}, err
		}
		a, err := starAuthor(g, counts, name)
		if err != nil {
			return AblationMonteCarloResult{}, err
		}
		pairs = append(pairs, pair{a, ci})
	}
	sampler, err := NewPairSampler(g, p)
	if err != nil {
		return AblationMonteCarloResult{}, err
	}
	res := AblationMonteCarloResult{Path: spec, Pairs: len(pairs)}
	for _, walks := range []int{1000, 10000, 100000} {
		var sum, maxErr float64
		for i, pr := range pairs {
			exact, err := e.PairByIndex(context.Background(), p, pr.a, pr.c)
			if err != nil {
				return AblationMonteCarloResult{}, err
			}
			mc, err := sampler.Estimate(pr.a, pr.c, walks, int64(i+1), false)
			if err != nil {
				return AblationMonteCarloResult{}, err
			}
			d := math.Abs(mc - exact)
			sum += d
			if d > maxErr {
				maxErr = d
			}
		}
		res.Rows = append(res.Rows, AblationMonteCarloRow{
			Walks: walks, MeanAbsErr: sum / float64(len(pairs)), MaxAbsErr: maxErr,
		})
	}
	return res, nil
}

// AblationNormalizationResult compares the ranking behaviour of normalized
// and raw HeteSim — the Fig. 5(c) vs 5(d) design choice at network scale.
type AblationNormalizationResult struct {
	Path string
	// SelfRankNormalized/Raw: the star author's rank in their own
	// same-typed relevance list under each variant (normalized must be 1
	// by Property 4; raw has no such guarantee).
	SelfRankNormalized int
	SelfRankRaw        int
	// RangeRaw is the largest raw score observed (raw scores are not
	// bounded by 1 per Property 4's absence).
	MaxNormalized float64
	MaxRaw        float64
}

// Render formats the comparison.
func (r AblationNormalizationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — cosine normalization on %s (Fig. 5c vs 5d at network scale)\n\n", r.Path)
	fmt.Fprintf(&b, "  %-22s %12s %12s\n", "", "normalized", "raw")
	fmt.Fprintf(&b, "  %-22s %12d %12d\n", "star's self rank", r.SelfRankNormalized, r.SelfRankRaw)
	fmt.Fprintf(&b, "  %-22s %12.4f %12.4f\n", "max score", r.MaxNormalized, r.MaxRaw)
	b.WriteString("\n  normalization restores identity of indiscernibles: self ranks first at score 1.\n")
	return b.String()
}

// AblationNormalization demonstrates why Definition 10 normalizes: without
// it, an object need not be most related to itself.
func (c *Context) AblationNormalization() (AblationNormalizationResult, error) {
	ds, err := c.ACM()
	if err != nil {
		return AblationNormalizationResult{}, err
	}
	g := ds.Graph
	const spec = "APVCVPA"
	p := mustPath(g, spec)
	counts, err := paperCounts(g)
	if err != nil {
		return AblationNormalizationResult{}, err
	}
	star, err := starAuthor(g, counts, "KDD")
	if err != nil {
		return AblationNormalizationResult{}, err
	}
	rankAndMax := func(e *core.Engine) (int, float64, error) {
		scores, err := e.SingleSourceByIndex(context.Background(), p, star)
		if err != nil {
			return 0, 0, err
		}
		rank := 1
		var max float64
		for i, s := range scores {
			if s > scores[star] || (s == scores[star] && i < star) {
				rank++
			}
			if s > max {
				max = s
			}
		}
		return rank, max, nil
	}
	normRank, normMax, err := rankAndMax(c.Engine("acm", g))
	if err != nil {
		return AblationNormalizationResult{}, err
	}
	rawRank, rawMax, err := rankAndMax(c.UnnormalizedEngine("acm", g))
	if err != nil {
		return AblationNormalizationResult{}, err
	}
	return AblationNormalizationResult{
		Path:               spec,
		SelfRankNormalized: normRank,
		SelfRankRaw:        rawRank,
		MaxNormalized:      normMax,
		MaxRaw:             rawMax,
	}, nil
}
