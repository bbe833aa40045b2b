package core

import (
	"context"
	"fmt"
	"strings"

	"hetesim/internal/metapath"
	"hetesim/internal/sparse"
)

// Query planning for relevance paths. A HeteSim query has several physical
// plans — sparse vector propagation from both endpoints, vector against a
// materialized half, the full matrix product — whose
// costs diverge by orders of magnitude depending on the path's type
// cardinalities and densities. The planner estimates the work of each plan
// from the adjacency statistics (a classic database cardinality estimation,
// applied to the reachable probability chains of Definition 9) and Explain
// renders the comparison, so operators can choose what to materialize.

// PlanKind identifies a physical query plan.
type PlanKind string

// The available plans.
const (
	PlanPairVectors    PlanKind = "pair-vectors"     // two sparse vector chains + dot
	PlanSingleVsMatrix PlanKind = "single-vs-matrix" // one vector chain against the right-half matrix
	PlanAllPairs       PlanKind = "all-pairs"        // full half-matrix product
)

// ChainEstimate predicts the shape of one half-chain's reachable
// probability matrix.
type ChainEstimate struct {
	Rows int
	Cols int
	// NNZ is the predicted non-zero count under an independence
	// assumption on row supports (capped by the dense size).
	NNZ float64
	// Flops is the predicted multiply-adds to materialize the chain.
	Flops float64
}

// PlanEstimate is one plan's predicted cost for a query on a path.
type PlanEstimate struct {
	Kind PlanKind
	// Flops estimates multiply-add work for one query, including (for
	// matrix plans) the one-time materialization amortized into the
	// first query.
	Flops float64
	// Materialize is the one-time cost component included in Flops.
	Materialize float64
	Description string
}

// Explain estimates the cost of every applicable pair plan for a query on
// path p, cheapest first, and renders a report. queries is the anticipated
// number of queries on this path: materialization costs amortize over it
// (Section 4.6's offline materialization trade-off made explicit). It runs
// the same candidate generator the optimizer executes with, including the
// live cache-warmth signal: a half-chain already materialized reports
// Materialize: 0 and is flagged warm in the report.
func (e *Engine) Explain(p *metapath.Path, queries int) (string, []PlanEstimate, error) {
	if queries < 1 {
		queries = 1
	}
	h := splitPath(p)
	cm, err := e.costModelFor(h)
	if err != nil {
		return "", nil, err
	}
	lp := LogicalPlan{Path: p, Shape: ShapePair, Opts: PlanOptions{Queries: queries}, h: h}
	plans := planCandidates(cm, lp)

	warm := func(w bool) string {
		if w {
			return " (warm: cached, materialization free)"
		}
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN %s (%d queries)\n", p, queries)
	fmt.Fprintf(&b, "  left half : %d x %d, ~%.0f nnz, ~%.0f flops to materialize%s\n",
		cm.left.Rows, cm.left.Cols, cm.left.NNZ, cm.left.Flops, warm(cm.warmLeft))
	fmt.Fprintf(&b, "  right half: %d x %d, ~%.0f nnz, ~%.0f flops to materialize%s\n",
		cm.right.Rows, cm.right.Cols, cm.right.NNZ, cm.right.Flops, warm(cm.warmRight))
	fmt.Fprintf(&b, "  top-k scan: %s\n", cm.topKScanDescription())
	for i, pl := range plans {
		marker := "  "
		if i == 0 {
			marker = "->"
		}
		fmt.Fprintf(&b, "%s %-16s ~%12.0f flops  %s\n", marker, pl.Kind, pl.Flops, pl.Description)
	}
	return b.String(), plans, nil
}

// estimateChain predicts the half-chain matrix shape by propagating row
// supports through each step: if the current matrix has expected row
// support s and the next transition has average row support d over n
// columns, the product's expected row support is min(n, s·d) under
// independence, and its flops are rows·s·d. A non-nil mo appends an odd
// path's middle relation M as one more step — the SpMV (SpGEMM for matrix
// plans) that carries the left half to the meeting type.
func (e *Engine) estimateChain(c chain, mo *middle) (ChainEstimate, error) {
	rows := e.g.NodeCount(c.start)
	est := ChainEstimate{Rows: rows, Cols: rows, NNZ: float64(rows)} // identity
	support := 1.0                                                   // expected nnz per row
	advance := func(u *sparse.Matrix) {
		stepRows, stepCols := u.Dims()
		if stepRows == 0 {
			support = 0
			est.Cols = stepCols
			est.NNZ = 0
			return
		}
		avg := float64(u.NNZ()) / float64(stepRows)
		est.Flops += float64(rows) * support * avg
		support *= avg
		if support > float64(stepCols) {
			support = float64(stepCols)
		}
		est.Cols = stepCols
		est.NNZ = float64(rows) * support
		if dense := float64(rows) * float64(stepCols); est.NNZ > dense {
			est.NNZ = dense
		}
	}
	for _, s := range c.steps {
		u, err := e.transition(s)
		if err != nil {
			return ChainEstimate{}, err
		}
		advance(u)
	}
	if mo != nil {
		advance(mo.m)
	}
	return est, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ChainStats returns the planner's estimate and, when materialize is true,
// the actual materialized shape of a path's left and right halves — useful
// for validating the cost model.
func (e *Engine) ChainStats(ctx context.Context, p *metapath.Path, materialize bool) (estL, estR ChainEstimate, actL, actR ChainEstimate, err error) {
	h := splitPath(p)
	estL, err = e.estimateChain(h.left(), nil)
	if err != nil {
		return
	}
	estR, err = e.estimateChain(h.right(), nil)
	if err != nil {
		return
	}
	if !materialize {
		return
	}
	pml, err2 := e.opMatrixChain(ctx, h.left())
	if err2 != nil {
		err = err2
		return
	}
	pmr, err2 := e.opMatrixChain(ctx, h.right())
	if err2 != nil {
		err = err2
		return
	}
	actL = ChainEstimate{Rows: pml.Rows(), Cols: pml.Cols(), NNZ: float64(pml.NNZ())}
	actR = ChainEstimate{Rows: pmr.Rows(), Cols: pmr.Cols(), NNZ: float64(pmr.NNZ())}
	return
}
