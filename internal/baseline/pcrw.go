// Package baseline implements the comparison measures the paper evaluates
// HeteSim against: PCRW (path-constrained random walk, Lao & Cohen), PathSim
// (Sun et al.), SimRank (Jeh & Widom) — including the bipartite pairwise
// recursion used by the paper's Property 5 proof — and personalized PageRank
// (random walk with restart).
package baseline

import (
	"context"

	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/sparse"
)

// PCRW is the Path Constrained Random Walk measure: the probability of
// reaching the target by randomly walking from the source along the
// relevance path, i.e. the entry PM_P(s, t) of the reachable probability
// matrix (Definition 9). Unlike HeteSim it is asymmetric:
// PCRW(a, b | P) generally differs from PCRW(b, a | P^-1), which is the
// deficiency Tables 3–4 of the paper demonstrate.
type PCRW struct {
	engine *core.Engine
}

// NewPCRWFromEngine wraps an engine so PCRW queries share its
// transition-matrix machinery and caches with HeteSim queries on the same
// graph.
func NewPCRWFromEngine(e *core.Engine) *PCRW { return &PCRW{engine: e} }

// Pair returns PCRW(src, dst | p) for nodes identified by string IDs.
func (m *PCRW) Pair(ctx context.Context, p *metapath.Path, srcID, dstID string) (float64, error) {
	g := m.engine.Graph()
	i, err := g.NodeIndex(p.Source(), srcID)
	if err != nil {
		return 0, err
	}
	j, err := g.NodeIndex(p.Target(), dstID)
	if err != nil {
		return 0, err
	}
	return m.PairByIndex(ctx, p, i, j)
}

// PairByIndex is Pair addressed by node indices.
func (m *PCRW) PairByIndex(ctx context.Context, p *metapath.Path, src, dst int) (float64, error) {
	v, err := m.engine.ReachableFrom(ctx, p, src)
	if err != nil {
		return 0, err
	}
	n := m.engine.Graph().NodeCount(p.Target())
	if dst < 0 || dst >= n {
		return 0, hin.ErrUnknownNode
	}
	return v.At(dst), nil
}

// SingleSource returns the PCRW distribution of one source over all targets.
func (m *PCRW) SingleSource(ctx context.Context, p *metapath.Path, srcID string) ([]float64, error) {
	i, err := m.engine.Graph().NodeIndex(p.Source(), srcID)
	if err != nil {
		return nil, err
	}
	return m.SingleSourceByIndex(ctx, p, i)
}

// SingleSourceByIndex is SingleSource addressed by node index.
func (m *PCRW) SingleSourceByIndex(ctx context.Context, p *metapath.Path, src int) ([]float64, error) {
	v, err := m.engine.ReachableFrom(ctx, p, src)
	if err != nil {
		return nil, err
	}
	return v.Dense(), nil
}

// AllPairs returns the full reachable probability matrix PM_P.
func (m *PCRW) AllPairs(ctx context.Context, p *metapath.Path) (*sparse.Matrix, error) {
	return m.engine.ReachableMatrix(ctx, p)
}
