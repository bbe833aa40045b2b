package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/sparse"
)

// Monte Carlo approximation of HeteSim — the "approximate algorithms [11]
// to fasten the search with a small loss of accuracy" option of
// Section 4.6. Instead of materializing reaching distributions, walkers
// are sampled from both endpoints to the meeting type and the pairwise
// meeting probability is estimated from walk-endpoint collisions:
//
//   - raw HeteSim  Σ_m p(m)·q(m) is estimated unbiasedly by the collision
//     rate between independent source walks and target walks;
//   - the norms ‖p‖, ‖q‖ of the normalized form are estimated unbiasedly
//     from within-sample collisions of *distinct* walks.
//
// The estimator's error shrinks as O(1/√walks); it is useful when a single
// cold pair query on a long path over a huge network would otherwise pay
// for full sparse propagation.

// MonteCarloResult is an approximate pair score and its sampling setup.
type MonteCarloResult struct {
	Score float64
	Walks int
}

// querySeed resolves the seed parameter of a Monte Carlo query. A
// non-zero seed is used as-is — the deterministic path tests and the CLI
// rely on. Seed 0 asks for a fresh per-query seed drawn from a single
// engine-level source, so concurrent degraded queries never share
// identical walk streams (they previously all walked with seed 1, making
// simultaneous degraded answers perfectly correlated).
func (e *Engine) querySeed(seed int64) int64 {
	if seed != 0 {
		return seed
	}
	e.seedMu.Lock()
	defer e.seedMu.Unlock()
	if e.seedRng == nil {
		e.seedRng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return e.seedRng.Int63()
}

// PairMonteCarlo estimates HeteSim(src, dst | p) from `walks` sampled
// walks per endpoint, using the engine's normalization setting. The
// estimate is deterministic for a fixed non-zero seed; seed 0 draws a
// fresh per-query seed from the engine-level source.
func (e *Engine) PairMonteCarlo(ctx context.Context, p *metapath.Path, src, dst, walks int, seed int64) (MonteCarloResult, error) {
	start := time.Now()
	defer func() { observeQuery("mc_pair", time.Since(start).Seconds()) }()
	if err := e.checkIndex(p.Source(), src); err != nil {
		return MonteCarloResult{}, err
	}
	if err := e.checkIndex(p.Target(), dst); err != nil {
		return MonteCarloResult{}, err
	}
	return e.pairMC(ctx, p, src, dst, walks, seed, e.raw(false))
}

// pairMC is the estimator body shared by PairMonteCarlo and the optimizer's
// monte-carlo plan (which records its own query metrics and has already
// validated the node indices); raw estimates Definition 3's score.
func (e *Engine) pairMC(ctx context.Context, p *metapath.Path, src, dst, walks int, seed int64, raw bool) (MonteCarloResult, error) {
	if walks < 2 {
		return MonteCarloResult{}, fmt.Errorf("core: PairMonteCarlo needs at least 2 walks, got %d", walks)
	}
	h := splitPath(p)
	mo, err := e.middleOf(h.middle)
	if err != nil {
		return MonteCarloResult{}, err
	}
	rng := rand.New(rand.NewSource(e.querySeed(seed)))
	srcCounts, err := e.sampleWalks(ctx, src, h.left(), mo, walks, rng)
	if err != nil {
		return MonteCarloResult{}, err
	}
	dstCounts, err := e.sampleWalks(ctx, dst, h.right(), mo, walks, rng)
	if err != nil {
		return MonteCarloResult{}, err
	}
	w := float64(walks)
	// Unbiased cross-collision estimate of Σ p(m) q(m).
	var dot float64
	for m, c := range srcCounts {
		if c2, ok := dstCounts[m]; ok {
			dot += float64(c) * float64(c2)
		}
	}
	dot /= w * w
	if raw {
		return MonteCarloResult{Score: dot, Walks: walks}, nil
	}
	// Unbiased within-sample estimates of Σ p(m)² and Σ q(m)² from
	// ordered distinct pairs: Σ_m c_m (c_m - 1) / (W (W-1)).
	normSq := func(counts map[int]int) float64 {
		var s float64
		for _, c := range counts {
			s += float64(c) * float64(c-1)
		}
		return s / (w * (w - 1))
	}
	pn, qn := normSq(srcCounts), normSq(dstCounts)
	if pn <= 0 || qn <= 0 || dot == 0 {
		return MonteCarloResult{Score: 0, Walks: walks}, nil
	}
	score := dot / math.Sqrt(pn*qn)
	// Sampling noise can push the ratio past the exact bound; clamp to
	// the measure's range (Property 4).
	if score > 1 {
		score = 1
	}
	return MonteCarloResult{Score: score, Walks: walks}, nil
}

// sampleWalks runs `walks` independent random walks from start through the
// chain and returns meeting-object visit counts. On an odd path (mo non-nil)
// each walk ends with a half-step into the middle relation, sampling a row of
// A or B (of U_SE or U_TE), and meets the other side on the instance crossed.
// Walks that dead-end are dropped, matching the measure's convention that
// missing neighbors contribute zero relatedness.
func (e *Engine) sampleWalks(ctx context.Context, start int, c chain, mo *middle, walks int, rng *rand.Rand) (map[int]int, error) {
	sp := obs.FromContext(ctx).Start("mc_sample")
	if sp != nil {
		sp.SetAttr("side", string(c.side)).
			SetAttr("walks", strconv.Itoa(walks)).
			SetAttr("steps", strconv.Itoa(len(c.steps)))
	}
	defer sp.End()
	metWalks.Add(uint64(walks))
	// Pre-resolve the transition matrices once.
	us, err := e.chainTransitions(ctx, c)
	if err != nil {
		return nil, err
	}
	counts := make(map[int]int)
	for w := 0; w < walks; w++ {
		if w&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		at := start
		ok := true
		for _, u := range us {
			at, ok = stepSample(u, at, rng)
			if !ok {
				break
			}
		}
		if ok && mo != nil { // meet on instance (x, y), numbered x·|T| + y
			x, y := at, at
			if c.side == 'L' {
				y, ok = stepSample(mo.a, x, rng)
			} else {
				x, ok = stepSample(mo.b, y, rng)
			}
			at = x*mo.m.Cols() + y
		}
		if ok {
			counts[at]++
		}
	}
	return counts, nil
}

// stepSample draws the next node from row `at` of a row-stochastic matrix.
func stepSample(u *sparse.Matrix, at int, rng *rand.Rand) (int, bool) {
	row := u.Row(at)
	if row.NNZ() == 0 {
		return 0, false
	}
	target := rng.Float64()
	var acc float64
	next, found := -1, false
	row.Entries(func(j int, v float64) {
		if found {
			return
		}
		acc += v
		if acc >= target {
			next, found = j, true
		}
	})
	if !found {
		// Rounding left a sliver; take the last entry.
		row.Entries(func(j int, _ float64) { next = j })
		found = next >= 0
	}
	return next, found
}

// SingleSourceMonteCarlo estimates the reaching distribution of one source
// over the target type by sampling `walks` full-path random walks, returning
// dense per-target visit frequencies. This is the graceful-degradation plan:
// when an exact single-source query blows its deadline, the server falls
// back to this estimator, whose cost is walks x path-length row samples
// regardless of how dense the half-path matrices are. The ranking it
// induces approximates the reachable-probability (PCRW) ordering — the raw
// HeteSim numerator taken in the source direction — so results must be
// marked approximate. Seeding follows the PairMonteCarlo convention: a
// non-zero seed is deterministic, 0 draws a per-query seed from the
// engine-level source.
func (e *Engine) SingleSourceMonteCarlo(ctx context.Context, p *metapath.Path, src, walks int, seed int64) ([]float64, error) {
	start := time.Now()
	defer func() { observeQuery("mc_single_source", time.Since(start).Seconds()) }()
	if err := e.checkIndex(p.Source(), src); err != nil {
		return nil, err
	}
	return e.singleSourceMC(ctx, p, src, walks, seed)
}

// singleSourceMC is the estimator body shared by SingleSourceMonteCarlo and
// the optimizer's monte-carlo plan.
func (e *Engine) singleSourceMC(ctx context.Context, p *metapath.Path, src, walks int, seed int64) ([]float64, error) {
	if walks < 1 {
		return nil, fmt.Errorf("core: SingleSourceMonteCarlo needs at least 1 walk, got %d", walks)
	}
	rng := rand.New(rand.NewSource(e.querySeed(seed)))
	counts, err := e.sampleWalks(ctx, src, pathChain(p), nil, walks, rng)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, e.g.NodeCount(p.Target()))
	for t, c := range counts {
		scores[t] = float64(c) / float64(walks)
	}
	return scores, nil
}
