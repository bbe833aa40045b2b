// Package embed factorizes cached half-chain matrices into low-rank node
// embeddings for sublinear approximate top-k relevance search.
//
// The exact top-k path scores a source against every node of the target
// type through the right half-chain matrix PM_R (nTargets × dim, where dim
// is the middle-type dimension of the meta path). Following the ESim/HetFS
// line of work, we factorize the row space of PM_R once: the dominant
// rank-r subspace is spanned by the top eigenvectors V (dim × r) of the
// Gram operator G = PM_Rᵀ·PM_R, computed with orthogonal iteration on the
// sparse operator (no densification). Each target's embedding is its row
// projected onto that basis, E = PM_R·V (nTargets × r), and a query's
// reaching distribution projects the same way, q = Vᵀ·left. Then
//
//	⟨E[b], q⟩ = ⟨PM_R[b]·V, Vᵀ·left⟩ = leftᵀ · (V·Vᵀ) · PM_R[b]
//
// is exactly the HeteSim inner product with both operands projected onto
// the shared rank-r subspace — Property 2 of the paper (relevance as an
// inner product of reaching distributions) survives the truncation, only
// the subspace is smaller. At rank == dim, V·Vᵀ = I and the approximation
// is exact. Candidates over-fetched by approximate score are re-ranked by
// the caller through the exact pair-vectors operators, so returned scores
// are always bit-identical to the exact ones; only recall can degrade.
// Its only importer is bench/probes.go, and it goes with that probe (DESIGN §15).
package embed

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"hetesim/internal/linalg"
	"hetesim/internal/rank"
	"hetesim/internal/sparse"
)

// DefaultIters is the orthogonal-iteration count used when Build is given
// iters <= 0. The Gram operator is PSD with fast spectral decay on the
// bibliographic chains we factorize, so a moderate count converges well.
const DefaultIters = 60

// Embedding is a rank-r factorization of one right half-chain matrix.
type Embedding struct {
	Rank int // r, number of basis columns actually kept
	Dim  int // middle-type dimension (columns of PM_R)
	Rows int // number of target nodes (rows of PM_R)

	// Basis holds V, Dim×Rank, orthonormal columns spanning the dominant
	// row space of PM_R.
	Basis *linalg.Dense
	// Vecs holds E = PM_R·V row-major: target b's embedding is
	// Vecs[b*Rank : (b+1)*Rank].
	Vecs []float64
}

// Build factorizes pmr into a rank-r embedding. rank is clamped to
// [1, dim]; seed makes the iteration deterministic; iters <= 0 selects
// DefaultIters. The context is polled between eigensolver iterations and
// between row-projection batches so builds over large graphs cancel
// promptly.
func Build(ctx context.Context, pmr *sparse.Matrix, rank int, seed int64, iters int) (*Embedding, error) {
	nT, dim := pmr.Dims()
	if nT == 0 || dim == 0 {
		return nil, fmt.Errorf("embed: cannot factorize empty %dx%d chain", nT, dim)
	}
	if rank < 1 {
		rank = 1
	}
	if rank > dim {
		rank = dim
	}
	if iters <= 0 {
		iters = DefaultIters
	}

	// G = PM_Rᵀ·PM_R as a mulVec operator: G·x = VecMul(MulVec(x)).
	mul := func(dst, x []float64) {
		gx := pmr.VecMul(pmr.MulVec(x))
		copy(dst, gx)
	}
	rng := rand.New(rand.NewSource(seed))
	seedBlock := linalg.NewDense(dim, rank)
	for i := 0; i < dim; i++ {
		for j := 0; j < rank; j++ {
			seedBlock.Set(i, j, rng.NormFloat64())
		}
	}
	// The Gram operator is PSD, so its spectrum already sits in [0, ∞)
	// and no shift is needed: lo = 0.
	eig, err := linalg.TopKEigen(ctx, dim, rank, mul, 0, seedBlock, iters)
	if err != nil {
		return nil, err
	}

	e := &Embedding{Rank: rank, Dim: dim, Rows: nT, Basis: eig.Vectors}
	e.Vecs = make([]float64, nT*rank)
	const pollEvery = 4096
	for b := 0; b < nT; b++ {
		if b%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		dst := e.Vecs[b*rank : (b+1)*rank]
		pmr.Row(b).Entries(func(c int, v float64) {
			basisRow := eig.Vectors.Row(c)
			for j := 0; j < rank; j++ {
				dst[j] += v * basisRow[j]
			}
		})
	}
	return e, nil
}

// Project maps a source's left reaching distribution into the embedding
// space: q = Vᵀ·left. left must have length Dim.
func (e *Embedding) Project(left *sparse.Vector) ([]float64, error) {
	if left.Len() != e.Dim {
		return nil, fmt.Errorf("embed: left vector length %d, want %d", left.Len(), e.Dim)
	}
	q := make([]float64, e.Rank)
	left.Entries(func(i int, v float64) {
		basisRow := e.Basis.Row(i)
		for j := 0; j < e.Rank; j++ {
			q[j] += v * basisRow[j]
		}
	})
	return q, nil
}

// Candidates returns the indices of the c targets with the largest
// approximate scores ⟨E[b], q⟩, optionally divided by norms[b] (the exact
// chain row norms, for normalized HeteSim; targets with zero norm are
// skipped, matching the exact scorer). Ties break toward the smaller
// index. The result is sorted ascending so the caller's exact re-rank
// visits rows in deterministic order. c is clamped to the number of
// eligible targets.
func (e *Embedding) Candidates(q []float64, c int, norms []float64) []int {
	sel := rank.NewSelector(c)
	r := e.Rank
	for b := 0; b < e.Rows; b++ {
		if norms != nil && norms[b] == 0 {
			continue
		}
		var s float64
		vec := e.Vecs[b*r : (b+1)*r]
		for j := 0; j < r; j++ {
			s += vec[j] * q[j]
		}
		if norms != nil {
			s /= norms[b]
		}
		sel.Push(b, s)
	}
	out := sel.Indices()
	sort.Ints(out)
	return out
}
