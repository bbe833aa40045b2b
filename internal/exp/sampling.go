package exp

import (
	"fmt"
	"math"
	"math/rand"

	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/sparse"
)

// Monte Carlo estimation of HeteSim — the "approximate algorithms [11] to
// fasten the search with a small loss of accuracy" option of Section 4.6,
// which the abl-montecarlo ablation measures. The engine answers exactly or
// not at all; the estimator lives here. Instead of propagating reaching
// distributions, walkers are sampled from both endpoints to the meeting type
// and the meeting probability is estimated from walk-endpoint collisions:
//
//   - raw HeteSim Σ_m p(m)·q(m) is estimated unbiasedly by the collision rate
//     between independent source walks and target walks;
//   - the norms ‖p‖, ‖q‖ of the normalized form are estimated unbiasedly from
//     within-sample collisions of distinct walks.
//
// The estimator's error shrinks as O(1/√walks).

// PairSampler estimates pair scores along one path. It holds what the two
// sides' walkers step through: the transition matrices of each half
// (Definition 8) and, on an odd path, the middle relation W as the two sides
// cross it (DESIGN §6): A = rownorm(√W) from the left, B = rownorm(√Wᵀ) from
// the right — the rows of U_SE and U_TE, value for value and in the same
// order, so a walker meets the other side on the relation instance it
// crosses.
type PairSampler struct {
	src, dst    string
	nSrc, nDst  int
	left, right []*sparse.Matrix
	a, b        *sparse.Matrix // nil on an even path
}

// NewPairSampler resolves p's transitions once, for any number of estimates.
func NewPairSampler(g *hin.Graph, p *metapath.Path) (*PairSampler, error) {
	d := p.Decompose()
	s := &PairSampler{src: p.Source(), dst: p.Target(), nSrc: g.NodeCount(p.Source()), nDst: g.NodeCount(p.Target())}
	var err error
	if s.left, err = transitions(g, d.Left); err != nil {
		return nil, err
	}
	if s.right, err = transitions(g, towardMiddle(d.Right)); err != nil {
		return nil, err
	}
	if d.Middle != nil {
		w, err := adjacency(g, *d.Middle)
		if err != nil {
			return nil, err
		}
		rows, cols := w.Dims()
		ts := w.Triplets()
		for k := range ts {
			ts[k].Val = math.Sqrt(ts[k].Val)
		}
		sq := sparse.New(rows, cols, ts)
		s.a, s.b = sq.RowNormalize(), sq.Transpose().RowNormalize()
	}
	return s, nil
}

// Estimate samples `walks` walks from each endpoint and estimates
// HeteSim(src, dst): Definition 3's meeting probability when raw, else
// Definition 10's cosine. One source seeded by seed draws the source's walks,
// then the target's, so an estimate is a function of its seed.
func (s *PairSampler) Estimate(src, dst, walks int, seed int64, raw bool) (float64, error) {
	if walks < 2 {
		return 0, fmt.Errorf("exp: a sampled pair needs at least 2 walks, got %d", walks)
	}
	if src < 0 || src >= s.nSrc || dst < 0 || dst >= s.nDst {
		return 0, fmt.Errorf("%w: %s #%d or %s #%d (have %d and %d)", hin.ErrUnknownNode, s.src, src, s.dst, dst, s.nSrc, s.nDst)
	}
	rng := rand.New(rand.NewSource(seed))
	var meetL, meetR func(int) (int, bool)
	if s.a != nil { // meet on instance (x, y), numbered x·|T| + y
		cols := s.a.Cols()
		meetL = func(x int) (int, bool) { y, ok := stepSample(rng, s.a, x); return x*cols + y, ok }
		meetR = func(y int) (int, bool) { x, ok := stepSample(rng, s.b, y); return x*cols + y, ok }
	}
	srcCounts := walkCounts(rng, src, walks, s.left, meetL)
	dstCounts := walkCounts(rng, dst, walks, s.right, meetR)
	w := float64(walks)
	var dot float64
	for m, c := range srcCounts {
		dot += float64(c) * float64(dstCounts[m])
	}
	dot /= w * w
	if raw {
		return dot, nil
	}
	pn, qn := selfCollisions(srcCounts, w), selfCollisions(dstCounts, w)
	if pn <= 0 || qn <= 0 || dot == 0 {
		return 0, nil
	}
	// Sampling noise can push the ratio past the exact bound; clamp to the
	// measure's range (Property 4).
	return math.Min(dot/math.Sqrt(pn*qn), 1), nil
}

// selfCollisions is the unbiased within-sample estimate of Σ p(m)² from
// ordered distinct pairs of walks: Σ_m c_m (c_m - 1) / (W (W-1)).
func selfCollisions(counts map[int]int, w float64) float64 {
	var s float64
	for _, c := range counts {
		s += float64(c) * float64(c-1)
	}
	return s / (w * (w - 1))
}

// walkCounts runs `walks` random walks from start through the transitions us
// and counts where each ends; meet, on an odd path, takes the last half-step
// into the middle relation and names the instance crossed. Walks that
// dead-end are dropped, matching the measure's convention that missing
// neighbors contribute zero relatedness.
func walkCounts(rng *rand.Rand, start, walks int, us []*sparse.Matrix, meet func(int) (int, bool)) map[int]int {
	counts := make(map[int]int)
	for w := 0; w < walks; w++ {
		at, ok := start, true
		for _, u := range us {
			if at, ok = stepSample(rng, u, at); !ok {
				break
			}
		}
		if ok && meet != nil {
			at, ok = meet(at)
		}
		if ok {
			counts[at]++
		}
	}
	return counts
}

// stepSample draws the next node from row `at` of a row-stochastic matrix.
func stepSample(rng *rand.Rand, u *sparse.Matrix, at int) (int, bool) {
	idx, val := u.RowEntries(at)
	if len(idx) == 0 {
		return 0, false
	}
	target := rng.Float64()
	var acc float64
	for k, v := range val {
		if acc += v; acc >= target {
			return idx[k], true
		}
	}
	return idx[len(idx)-1], true // rounding left a sliver; take the last entry
}
