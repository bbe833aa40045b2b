// Package learn implements supervised relevance-path selection, the third
// path-selection strategy discussed in Section 5.1 of the paper: "label a
// small portion of similar objects, and then train the relevance paths and
// their weights by some learning algorithms." Given candidate paths with
// common endpoint types and labeled object pairs, PathWeights fits
// non-negative per-path weights by projected gradient descent on squared
// loss. The fit is scored by the one weighted-path combine there is:
// relevance.WeightsMap(paths, w) is a relevance.Options.Learned map, and
// relevance.Pair / relevance.TopK with Weighting relevance.WeightLearned
// (or hetesimd's -path-weights file) answer with the learned mixture.
package learn

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hetesim/internal/core"
	"hetesim/internal/metapath"
)

// ErrBadInput marks invalid training inputs.
var ErrBadInput = errors.New("learn: bad input")

// Example is one labeled training pair: the relevance label (typically 1
// for related, 0 for unrelated, or any graded target) of a source/target
// node-index pair.
type Example struct {
	Src, Dst int
	Label    float64
}

// Config tunes the projected gradient fit.
type Config struct {
	LearnRate float64 // step size; default 0.5
	Iters     int     // gradient steps; default 2000
	L2        float64 // ridge penalty; default 1e-4
}

func (c *Config) defaults() {
	if c.LearnRate <= 0 {
		c.LearnRate = 0.5
	}
	if c.Iters <= 0 {
		c.Iters = 2000
	}
	if c.L2 < 0 {
		c.L2 = 0
	}
}

// PathWeights learns non-negative weights over candidate paths from labeled
// pairs, minimizing mean squared error with an L2 penalty under a w ≥ 0
// constraint. All paths must share the same source and target types. The
// returned weights align with the paths slice.
func PathWeights(ctx context.Context, e *core.Engine, paths []*metapath.Path, examples []Example, cfg Config) ([]float64, error) {
	features, labels, err := featurize(ctx, e, paths, examples)
	if err != nil {
		return nil, err
	}
	cfg.defaults()
	k := len(paths)
	n := len(examples)
	w := make([]float64, k)
	for i := range w {
		w[i] = 1 / float64(k)
	}
	grad := make([]float64, k)
	for it := 0; it < cfg.Iters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range grad {
			grad[i] = cfg.L2 * w[i]
		}
		for ex := 0; ex < n; ex++ {
			var pred float64
			row := features[ex]
			for i := range w {
				pred += w[i] * row[i]
			}
			resid := (pred - labels[ex]) / float64(n)
			for i := range w {
				grad[i] += resid * row[i]
			}
		}
		for i := range w {
			w[i] -= cfg.LearnRate * grad[i]
			if w[i] < 0 {
				w[i] = 0
			}
		}
	}
	return w, nil
}

// featurize computes the per-example HeteSim scores along every candidate
// path, validating inputs.
func featurize(ctx context.Context, e *core.Engine, paths []*metapath.Path, examples []Example) ([][]float64, []float64, error) {
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("%w: no candidate paths", ErrBadInput)
	}
	if len(examples) == 0 {
		return nil, nil, fmt.Errorf("%w: no training examples", ErrBadInput)
	}
	src, dst := paths[0].Source(), paths[0].Target()
	for _, p := range paths[1:] {
		if p.Source() != src || p.Target() != dst {
			return nil, nil, fmt.Errorf("%w: path %s endpoints (%s,%s) differ from (%s,%s)",
				ErrBadInput, p, p.Source(), p.Target(), src, dst)
		}
	}
	for _, p := range paths {
		if err := e.Precompute(ctx, p); err != nil {
			return nil, nil, err
		}
	}
	features := make([][]float64, len(examples))
	labels := make([]float64, len(examples))
	for i, ex := range examples {
		// The engine polls ctx between propagation steps, but with every
		// path precomputed each PairByIndex is pure cached-vector work that
		// never reaches a poll — so a large example set must check here or
		// it would ignore cancellation entirely.
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if math.IsNaN(ex.Label) || math.IsInf(ex.Label, 0) {
			return nil, nil, fmt.Errorf("%w: example %d has non-finite label", ErrBadInput, i)
		}
		row := make([]float64, len(paths))
		for k, p := range paths {
			v, err := e.PairByIndex(ctx, p, ex.Src, ex.Dst)
			if err != nil {
				return nil, nil, fmt.Errorf("learn: example %d on %s: %w", i, p, err)
			}
			row[k] = v
		}
		features[i] = row
		labels[i] = ex.Label
	}
	return features, labels, nil
}
