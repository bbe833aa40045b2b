package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/sparse"
)

// kernels evaluates HeteSim from package sparse alone: transition operands
// built Adjacency → Transpose → RowNormalize, reused by the Equation 8
// oracle below and by the kernel replay of the traced run.
type kernels struct {
	g     *hin.Graph
	trans map[string]*sparse.Matrix
}

func newKernels(g *hin.Graph) *kernels { return &kernels{g: g, trans: map[string]*sparse.Matrix{}} }

// transition is U for one step (Definition 8).
func (k *kernels) transition(s metapath.Step) *sparse.Matrix {
	key := s.Relation.Name
	if s.Inverse {
		key += "~"
	}
	if u, ok := k.trans[key]; ok {
		return u
	}
	w, err := k.g.Adjacency(s.Relation.Name)
	if err != nil {
		panic(err) // the step came from a path parsed against this schema
	}
	if s.Inverse {
		w = w.Transpose()
	}
	u := w.RowNormalize()
	k.trans[key] = u
	return u
}

// halfChains splits an even path into its left steps and its right steps
// reversed (target back to the meeting type). ok is false for odd paths.
func halfChains(p *metapath.Path) (left, right []metapath.Step, ok bool) {
	d := p.Decompose()
	if d.Middle != nil {
		return nil, nil, false
	}
	for i := len(d.Right) - 1; i >= 0; i-- {
		right = append(right, d.Right[i].Reversed())
	}
	return d.Left, right, true
}

// eq8 is normalized HeteSim(src, dst | p) for an even path by vector
// propagation: the cosine of the two reachable-probability rows.
func (k *kernels) eq8(p *metapath.Path, src, dst int) (float64, bool) {
	left, right, ok := halfChains(p)
	if !ok {
		return 0, false
	}
	l := sparse.Unit(k.g.NodeCount(p.Source()), src)
	for _, s := range left {
		l = l.MulMat(k.transition(s))
	}
	r := sparse.Unit(k.g.NodeCount(p.Target()), dst)
	for _, s := range right {
		r = r.MulMat(k.transition(s))
	}
	return l.Cosine(r), true
}

// oracle answers ops from a fresh engine with caching off — none of the
// chain cache, planner warmth or batch sharing the fleet uses — and checks
// even-path scores against the sparse-only evaluation too.
type oracle struct {
	g     *hin.Graph
	eng   *core.Engine
	k     *kernels
	paths pathCache
}

func newOracle(g *hin.Graph) *oracle {
	return &oracle{g: g, eng: core.NewEngine(g, core.WithCaching(false)), k: newKernels(g), paths: newPathCache(g)}
}

// eq8Tolerance bounds |engine − sparse-only| on even paths.
const eq8Tolerance = 1e-12

func (o *oracle) pairScore(spec, source, target string) (float64, error) {
	p := o.paths.path(spec)
	src, err := o.g.NodeIndex(p.Source(), source)
	if err != nil {
		return 0, err
	}
	dst, err := o.g.NodeIndex(p.Target(), target)
	if err != nil {
		return 0, err
	}
	want, _, err := o.eng.PairWithPlan(context.Background(), p, src, dst, core.PlanOptions{})
	if err != nil {
		return 0, err
	}
	if ref, ok := o.k.eq8(p, src, dst); ok && math.Abs(ref-want) > eq8Tolerance {
		return 0, fmt.Errorf("%s(%s,%s): engine %v vs sparse-only Eq.8 %v", spec, source, target, want, ref)
	}
	return want, nil
}

type hit struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

func (o *oracle) checkPairScore(got *float64, spec, source, target string) error {
	if got == nil {
		return fmt.Errorf("%s(%s,%s): no score in answer", spec, source, target)
	}
	want, err := o.pairScore(spec, source, target)
	if err != nil {
		return err
	}
	if math.Float64bits(*got) != math.Float64bits(want) {
		return fmt.Errorf("%s(%s,%s): got %v, oracle %v", spec, source, target, *got, want)
	}
	return nil
}

// checkHits compares a top-k answer with the oracle's ranking. The server
// pads a short ranking with zero-score targets; those must score zero.
func (o *oracle) checkHits(got []hit, spec, source string, k int) error {
	p := o.paths.path(spec)
	src, err := o.g.NodeIndex(p.Source(), source)
	if err != nil {
		return err
	}
	want, _, err := o.eng.TopKSearchWithPlan(context.Background(), p, src, k, 0, core.PlanOptions{})
	if err != nil {
		return err
	}
	if len(got) < len(want) {
		return fmt.Errorf("topk %s(%s): %d hits, oracle %d", spec, source, len(got), len(want))
	}
	ids := o.g.NodeIDs(p.Target())
	for i, h := range got {
		if i >= len(want) {
			if h.Score != 0 {
				return fmt.Errorf("topk %s(%s): padding hit %d scores %v", spec, source, i, h.Score)
			}
			continue
		}
		if h.ID != ids[want[i].Index] || math.Float64bits(h.Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("topk %s(%s) hit %d: got %s=%v, oracle %s=%v",
				spec, source, i, h.ID, h.Score, ids[want[i].Index], want[i].Score)
		}
	}
	if len(want) > 0 {
		if ref, ok := o.k.eq8(p, src, want[0].Index); ok && math.Abs(ref-want[0].Score) > eq8Tolerance {
			return fmt.Errorf("topk %s(%s) best hit: engine %v vs sparse-only Eq.8 %v", spec, source, want[0].Score, ref)
		}
	}
	return nil
}

// batchSlotsChecked is how many slots of a sampled batch answer are
// compared (a seeded choice), keeping the uncached oracle affordable.
const batchSlotsChecked = 8

// check compares the routed answer to o with the oracle's. rng picks the
// slots of a batch.
func (o *oracle) check(op *op, body []byte, rng *rand.Rand) error {
	switch op.Kind {
	case opPair:
		var r struct {
			Score *float64 `json:"score"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return o.checkPairScore(r.Score, op.Path, op.Source, op.Target)
	case opTopK:
		var r struct {
			Results []hit `json:"results"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return o.checkHits(r.Results, op.Path, op.Source, op.K)
	case opBatch:
		var r struct {
			Results []struct {
				Score   *float64 `json:"score"`
				Results []hit    `json:"results"`
				Error   string   `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Results) != len(op.Slots) {
			return fmt.Errorf("batch: %d results for %d slots", len(r.Results), len(op.Slots))
		}
		for _, i := range rng.Perm(len(op.Slots))[:batchSlotsChecked] {
			s, res := op.Slots[i], r.Results[i]
			var err error
			switch {
			case res.Error != "":
				err = fmt.Errorf("slot error: %s", res.Error)
			case s.Kind == "pair":
				err = o.checkPairScore(res.Score, s.Path, s.Source, s.Target)
			default:
				err = o.checkHits(res.Results, s.Path, s.Source, s.K)
			}
			if err != nil {
				return fmt.Errorf("batch slot %d: %w", i, err)
			}
		}
		return nil
	case opRelevance:
		var r struct {
			Score *float64 `json:"score"`
			Paths []struct {
				Path   string  `json:"path"`
				Weight float64 `json:"weight"`
				Score  float64 `json:"score"`
				Error  string  `json:"error"`
			} `json:"paths"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		want, err := metapath.EnumerateWith(o.g.Schema(), "author", "author",
			metapath.EnumerateOptions{MaxLen: 4, MaxPaths: relevancePaths, DedupReverse: true})
		if err != nil {
			return err
		}
		if len(r.Paths) != len(want) || r.Score == nil {
			return fmt.Errorf("relevance: %d paths (want %d), score %v", len(r.Paths), len(want), r.Score)
		}
		sum := 0.0
		for i, pb := range r.Paths {
			if pb.Error != "" || pb.Path != want[i].String() {
				return fmt.Errorf("relevance path %d: %q error %q, want %q", i, pb.Path, pb.Error, want[i])
			}
			score := pb.Score
			if err := o.checkPairScore(&score, pb.Path, op.Source, op.Target); err != nil {
				return fmt.Errorf("relevance: %w", err)
			}
			sum += 1 / float64(len(want)) * pb.Score
		}
		if math.Float64bits(sum) != math.Float64bits(*r.Score) {
			return fmt.Errorf("relevance(%s,%s): got %v, uniform ensemble of its paths %v", op.Source, op.Target, *r.Score, sum)
		}
		return nil
	}
	return fmt.Errorf("op kind %v has no oracle", op.Kind)
}
