package baseline

import (
	"context"
	"errors"
	"fmt"

	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/sparse"
)

// ErrAsymmetricPath is returned when PathSim is asked to score a path it is
// not defined on.
var ErrAsymmetricPath = errors.New("baseline: PathSim requires a symmetric relevance path")

// PathSim is the meta path-based similarity of Sun et al. (VLDB 2011):
//
//	PathSim(a, b | P) = 2·M(a,b) / (M(a,a) + M(b,b))
//
// where M is the path-count matrix of the symmetric path P. It is defined
// only for same-typed objects connected by symmetric paths — the limitation
// (Section 2 of the HeteSim paper) that motivates HeteSim's uniform
// treatment of arbitrary paths.
//
// A symmetric path P = PL·PL⁻¹ counts M = C·Cᵀ, with C the raw path-count
// matrix of its left half, so M(a,b) = c_a·c_b for rows c_a, c_b of C. No
// entry point builds M: a pair propagates two rows of C as vectors, a top-k
// or a subset builds the rows of C it reads. PathSim is a stateless value
// over one graph; every call walks the half afresh and nothing is cached.
type PathSim struct {
	g *hin.Graph
}

// NewPathSim creates a PathSim measure over g.
func NewPathSim(g *hin.Graph) PathSim { return PathSim{g: g} }

// walkHalf calls step with the raw adjacency of every step of p's left
// half, in order, checking ctx before each; an inverse step reads the
// graph's kept transpose. p must be symmetric, so its length is even (a
// middle step would have to equal its own reverse) and the half is p's
// first len/2 steps.
func (m PathSim) walkHalf(ctx context.Context, p *metapath.Path, step func(w *sparse.Matrix) error) error {
	for _, s := range p.Decompose().Left {
		if err := ctx.Err(); err != nil {
			return err
		}
		adj := m.g.Adjacency
		if s.Inverse {
			adj = m.g.TransposedAdjacency
		}
		w, err := adj(s.Relation.Name)
		if err != nil {
			return err
		}
		if err := step(w); err != nil {
			return err
		}
	}
	return nil
}

// halfCounts builds the rows of C listed in rows (all of C when rows is
// nil). A row of a product depends only on that row of its left factor, so
// the rows are selected at the first step and every later step multiplies
// only them.
func (m PathSim) halfCounts(ctx context.Context, p *metapath.Path, rows []int) (*sparse.Matrix, error) {
	var c *sparse.Matrix
	err := m.walkHalf(ctx, p, func(w *sparse.Matrix) (err error) {
		switch {
		case c != nil:
			c, err = c.MulCtx(ctx, w)
		case rows != nil:
			c = w.SelectRows(rows)
		default:
			c = w
		}
		return err
	})
	return c, err
}

// pathSim is 2·M(a,b) / (M(a,a) + M(b,b)), and 0 when neither object has
// a path instance. Every diagonal M(x,x) = ‖c_x‖² is one sparse squares sum
// (Vector.Squares, Matrix.RowSquares), added in the order Dot adds c_x·c_y,
// so pair, top-k and subset agree bit for bit and PathSim(a, a) is exactly 1.
func pathSim(mab, maa, mbb float64) float64 {
	den := maa + mbb
	if den == 0 {
		return 0
	}
	return 2 * mab / den
}

// checkIndex reports whether i indexes an object of p's source type.
func (m PathSim) checkIndex(p *metapath.Path, i int) error {
	if n := m.g.NodeCount(p.Source()); i < 0 || i >= n {
		return fmt.Errorf("%w: index %d of %d", hin.ErrUnknownNode, i, n)
	}
	return nil
}

// Subset returns the PathSim similarity matrix restricted to the given
// node-index subset (in the given order): only the selected rows of C are
// multiplied — the same submatrix plan the HeteSim engine uses for
// clustering experiments.
func (m PathSim) Subset(ctx context.Context, p *metapath.Path, idx []int) (*sparse.Matrix, error) {
	if !p.IsSymmetric() {
		return nil, fmt.Errorf("%w: %s", ErrAsymmetricPath, p)
	}
	for _, i := range idx {
		if err := m.checkIndex(p, i); err != nil {
			return nil, err
		}
	}
	c, err := m.halfCounts(ctx, p, idx)
	if err != nil {
		return nil, err
	}
	cnt, err := c.MulCtx(ctx, c.Transpose())
	if err != nil {
		return nil, err
	}
	diag := c.RowSquares()
	ts := cnt.Triplets()
	for i, t := range ts {
		ts[i].Val = pathSim(t.Val, diag[t.Row], diag[t.Col])
	}
	return sparse.New(len(idx), len(idx), ts), nil
}

// Pair returns PathSim(src, dst | p) for nodes identified by string IDs.
func (m PathSim) Pair(ctx context.Context, p *metapath.Path, srcID, dstID string) (float64, error) {
	if !p.IsSymmetric() {
		return 0, fmt.Errorf("%w: %s", ErrAsymmetricPath, p)
	}
	i, err := m.g.NodeIndex(p.Source(), srcID)
	if err != nil {
		return 0, err
	}
	j, err := m.g.NodeIndex(p.Target(), dstID)
	if err != nil {
		return 0, err
	}
	return m.PairByIndex(ctx, p, i, j)
}

// PairByIndex is Pair addressed by node indices. It propagates e_src and
// e_dst along the left half as sparse vectors, c_src and c_dst, and meets
// them: three dot products.
func (m PathSim) PairByIndex(ctx context.Context, p *metapath.Path, src, dst int) (float64, error) {
	if !p.IsSymmetric() {
		return 0, fmt.Errorf("%w: %s", ErrAsymmetricPath, p)
	}
	if err := m.checkIndex(p, src); err != nil {
		return 0, err
	}
	if err := m.checkIndex(p, dst); err != nil {
		return 0, err
	}
	n := m.g.NodeCount(p.Source())
	ca, cb := sparse.Unit(n, src), sparse.Unit(n, dst)
	err := m.walkHalf(ctx, p, func(w *sparse.Matrix) error {
		ca, cb = ca.MulMat(w), cb.MulMat(w)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return pathSim(ca.Dot(cb), ca.Squares(), cb.Squares()), nil
}

// SingleSource returns PathSim scores of one source against all same-typed
// objects.
func (m PathSim) SingleSource(ctx context.Context, p *metapath.Path, srcID string) ([]float64, error) {
	i, err := m.g.NodeIndex(p.Source(), srcID)
	if err != nil {
		return nil, err
	}
	return m.SingleSourceByIndex(ctx, p, i)
}

// SingleSourceByIndex is SingleSource addressed by node index: row src of
// M is C·c_src, one matrix-vector product over C built on the call.
func (m PathSim) SingleSourceByIndex(ctx context.Context, p *metapath.Path, src int) ([]float64, error) {
	if !p.IsSymmetric() {
		return nil, fmt.Errorf("%w: %s", ErrAsymmetricPath, p)
	}
	if err := m.checkIndex(p, src); err != nil {
		return nil, err
	}
	c, err := m.halfCounts(ctx, p, nil)
	if err != nil {
		return nil, err
	}
	diag := c.RowSquares()
	row := c.MulVec(c.RowDense(src, nil)) // row[j] = c_j·c_src, added as Dot adds it
	for j := range row {
		row[j] = pathSim(row[j], diag[src], diag[j])
	}
	return row, nil
}
