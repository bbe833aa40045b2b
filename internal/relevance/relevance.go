// Package relevance answers "how related are these two objects?" without
// asking the caller to name a relevance path. Section 5.1 of the HeteSim
// paper lays out three path-selection strategies — user-specified, weighted
// combination of several paths, and learned weights over labeled pairs —
// and this package operationalizes the latter two as a first-class query:
// it enumerates every schema-valid meta path between the endpoint types (up
// to a length cap), scores the query along each path through the batch
// scheduler (one worker pool, per-path deadlines and failures), and combines
// the per-path scores with a weighted ensemble.
package relevance

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"hetesim/internal/api"
	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/rank"
)

// Sentinel errors; callers map these to input-validation failures.
var (
	// ErrNoPaths: the schema admits no path between the endpoint types
	// within the length cap, or every candidate carried zero weight.
	ErrNoPaths = errors.New("relevance: no usable relevance paths")
	// ErrBadOptions marks invalid options (unknown weighting mode, learned
	// mode without weights, malformed explicit path).
	ErrBadOptions = errors.New("relevance: bad options")
	// ErrRefused marks a request Limits.Admit turns away; its message is the
	// whole refusal a replica and a router answer alike.
	ErrRefused = errors.New("bad request")
)

// Weighting modes.
const (
	WeightUniform = "uniform" // every path weighs 1/n
	WeightDegree  = "degree"  // down-weight high-fanout paths
	WeightLearned = "learned" // caller-supplied weights keyed by path spec
)

// Options tunes an auto-relevance query. The zero value enumerates paths up
// to length 4, caps the candidate set at 16, and combines uniformly.
type Options struct {
	MaxLen   int // maximum path length; default 4
	MaxPaths int // candidate cap after canonical ordering; default 16

	// Paths, when non-empty, bypasses enumeration: the ensemble runs over
	// exactly these path specs (each must parse and connect the endpoints).
	Paths []string

	Weighting string             // WeightUniform (default), WeightDegree, WeightLearned
	Learned   map[string]float64 // spec → weight, required for WeightLearned; zero-weight paths are skipped

	// Workers and PerPathTimeout pass through to the batch scheduler: each
	// per-path score runs under its own deadline so one pathological path
	// cannot starve the ensemble; a path that misses it fails alone.
	Workers        int
	PerPathTimeout time.Duration

	// Raw scores every member path by Definition 3 (core.BatchQuery.Raw).
	Raw bool
}

func (o *Options) defaults() {
	if o.MaxLen <= 0 {
		o.MaxLen = 4
	}
	if o.MaxPaths <= 0 {
		o.MaxPaths = 16
	}
	if o.Weighting == "" {
		o.Weighting = WeightUniform
	}
}

// Limits is a deployment's cap on ensemble size. A replica and the router
// that scatters ensembles for it admit requests through the same check.
type Limits struct {
	MaxLen   int // longest enumerated path a request may ask for
	MaxPaths int // most candidate (or explicit) paths a request may ask for
}

// With returns l with each positive argument replacing its limit (the
// WithRelevanceLimits option of both the replica and the router).
func (l Limits) With(maxLen, maxPaths int) Limits {
	if maxLen > 0 {
		l.MaxLen = maxLen
	}
	if maxPaths > 0 {
		l.MaxPaths = maxPaths
	}
	return l
}

// Admit checks that a request names its source, source type and target
// type, checks its max_len, max_paths and explicit path list against the
// limits, and returns the options it is entitled to: the limits themselves
// unless the request asks for less. The refusals wrap ErrRefused and are
// client errors (HTTP 400).
func (l Limits) Admit(req *api.RelevanceRequest) (Options, error) {
	if req.Source == "" || req.SourceType == "" || req.TargetType == "" {
		return Options{}, fmt.Errorf("%w: source, source_type, and target_type are required", ErrRefused)
	}
	if req.MaxLen > l.MaxLen {
		return Options{}, fmt.Errorf("%w: max_len %d exceeds limit %d", ErrRefused, req.MaxLen, l.MaxLen)
	}
	if req.MaxPaths > l.MaxPaths {
		return Options{}, fmt.Errorf("%w: max_paths %d exceeds limit %d", ErrRefused, req.MaxPaths, l.MaxPaths)
	}
	o := Options{MaxLen: l.MaxLen, MaxPaths: l.MaxPaths, Paths: req.Paths, Weighting: req.Weighting, Raw: req.Raw}
	if req.MaxLen > 0 {
		o.MaxLen = req.MaxLen
	}
	if req.MaxPaths > 0 {
		o.MaxPaths = req.MaxPaths
	}
	if len(req.Paths) > o.MaxPaths {
		return Options{}, fmt.Errorf("%w: %d explicit paths exceed limit %d", ErrRefused, len(req.Paths), o.MaxPaths)
	}
	o.defaults()
	return o, nil
}

// Result is an auto-relevance answer: the ensemble score and how each path
// contributed to it. Paths are in wire form (api.RelevancePath): the HTTP
// surfaces relay them as they are.
type Result struct {
	Score   float64
	Paths   []api.RelevancePath
	Scored  int  // member paths that contributed to Score
	Partial bool // at least one path failed and was excluded from the sum
	Stats   core.BatchStats

	combined []float64 // top-k mode: Σ wᵢ·scoresᵢ over the target type
}

// Outcome is one member path's raw result before weighting: a batch result
// on a replica, or the routed pair slot the router decoded for the path.
type Outcome struct {
	Score  float64   // pair mode
	Scores []float64 // top-k mode: dense over the target type
	Plan   string    // batch plan: "warm", "full", "subset", "solo"
	Shared bool      // routed: the replica answered from shared chain state
	// Err non-empty: the path failed and is excluded. Code is the wire code
	// of the failure as its surface saw it ("" for a direct batch error);
	// failCode maps it to the one the member reports.
	Err, Code string
}

// failCode is the code a failed member reports, on the direct and the routed
// surface alike: a failure while the path ran (a direct batch error, or a
// replica slot's deadline_exceeded, canceled or internal) is path_failed; a
// path refused before it ran (the replica's decode, the router finding no
// replica for it) keeps the refusal's own code.
func failCode(code string) string {
	switch code {
	case "", "deadline_exceeded", "canceled", "internal":
		return "path_failed"
	}
	return code
}

// Assemble is the ensemble combine, written once for the direct and the
// routed surface: per-path bookkeeping, Σ wᵢ·sᵢ over the paths that scored,
// and the partial flag. A failed member carries its error and code, and no
// score or plan. Weights are used as enumerated and never renormalized on
// failure — a partial answer is a lower bound, not a silently re-weighted
// ensemble.
func Assemble(paths []*metapath.Path, weights []float64, outs []Outcome) *Result {
	res := &Result{Paths: make([]api.RelevancePath, len(outs))}
	for i, o := range outs {
		ps := api.RelevancePath{Path: paths[i].String(), Weight: weights[i]}
		if o.Err != "" {
			ps.Error, ps.Code = o.Err, failCode(o.Code)
			res.Partial = true
		} else {
			score := o.Score
			ps.Score, ps.Plan, ps.Shared = &score, o.Plan, o.Shared
			res.Score += weights[i] * o.Score
			res.Scored++
			if res.combined == nil && o.Scores != nil {
				res.combined = make([]float64, len(o.Scores))
			}
			for j, v := range o.Scores {
				res.combined[j] += weights[i] * v
			}
		}
		res.Paths[i] = ps
	}
	return res
}

// PairScore is the score a pair-mode response carries, on the direct and the
// routed surface alike: none when no member path scored, since a sum over no
// paths is not a score of 0.
func (r *Result) PairScore() *float64 {
	if r.Scored == 0 {
		return nil
	}
	return &r.Score
}

var (
	metQueries = obs.Default().CounterVec("hetesim_relevance_queries_total",
		"Auto-relevance queries by mode (pair, topk) and outcome (ok, partial, error).",
		"mode", "outcome")
	metPaths = obs.Default().Histogram("hetesim_relevance_paths",
		"Candidate paths scored per auto-relevance query.", obs.DefCountBuckets())
)

func observeOutcome(mode string, res *Result, err error) {
	switch {
	case err != nil:
		metQueries.With(mode, "error").Inc()
	case res.Partial:
		metQueries.With(mode, "partial").Inc()
	default:
		metQueries.With(mode, "ok").Inc()
	}
}

// Pair scores the relevance of two nodes with no path given: enumerate,
// score each candidate, combine. Both node indices are within their types.
func Pair(ctx context.Context, e *core.Engine, srcType string, src int, dstType string, dst int, o Options) (*Result, error) {
	res, _, err := ensemble(ctx, e, srcType, src, dstType, dst, 0, o)
	observeOutcome("pair", res, err)
	return res, err
}

// TopK ranks the k most relevant nodes of targetType against src, scoring
// every candidate path single-source and combining the score vectors with
// the ensemble weights before ranking (positive scores only, through the
// one selector: score descending, ties by ascending index).
func TopK(ctx context.Context, e *core.Engine, srcType string, src int, targetType string, k int, o Options) (*Result, []rank.Scored, error) {
	if k <= 0 {
		err := fmt.Errorf("%w: k=%d must be positive", ErrBadOptions, k)
		observeOutcome("topk", nil, err)
		return nil, nil, err
	}
	res, ranked, err := ensemble(ctx, e, srcType, src, targetType, 0, k, o)
	observeOutcome("topk", res, err)
	return res, ranked, err
}

// ensemble is the one assembly line behind Pair (k == 0) and TopK (k > 0):
// enumerate the member paths, score them as one batch — pair queries against
// dst, or single-source vectors to rank — and assemble; a path that missed its
// deadline fails alone.
func ensemble(ctx context.Context, e *core.Engine, srcType string, src int, dstType string, dst, k int, o Options) (*Result, []rank.Scored, error) {
	o.defaults()
	tr := obs.FromContext(ctx)
	esp := tr.Start("enumerate")
	paths, weights, err := Candidates(e.Graph().Schema(), e.Graph(), srcType, dstType, o)
	if esp != nil {
		esp.SetAttr("candidates", strconv.Itoa(len(paths))).End()
	}
	if err != nil {
		return nil, nil, err
	}

	sp := tr.Start("score_paths")
	kind := core.BatchPair
	if k > 0 {
		kind = core.BatchSingleSource
	}
	qs := make([]core.BatchQuery, len(paths))
	for i, p := range paths {
		qs[i] = core.BatchQuery{Kind: kind, Path: p, Src: src, Dst: dst, Raw: o.Raw}
	}
	brs, stats, err := e.ExecuteBatch(ctx, qs, core.BatchOptions{
		Workers: o.Workers, PerQueryTimeout: o.PerPathTimeout,
	})
	if sp != nil {
		sp.SetAttr("paths", strconv.Itoa(len(paths))).
			SetAttr("shared", strconv.Itoa(stats.SharedQueries)).End()
	}
	if err != nil {
		return nil, nil, err
	}

	csp := tr.Start("combine")
	outs := make([]Outcome, len(brs))
	for i, br := range brs {
		outs[i] = Outcome{Score: br.Score, Scores: br.Scores, Plan: br.Plan}
		if br.Err != nil {
			outs[i].Err = br.Err.Error()
		}
	}
	res := Assemble(paths, weights, outs)
	res.Stats = stats
	var ranked []rank.Scored
	if k > 0 {
		ranked = rankTopK(res.combined, k)
	}
	if csp != nil {
		if k > 0 {
			csp.SetAttr("k", strconv.Itoa(len(ranked)))
		} else {
			csp.SetAttr("score", strconv.FormatFloat(res.Score, 'g', -1, 64))
		}
		csp.End()
	}
	metPaths.Observe(float64(len(paths)))
	return res, ranked, nil
}

// Candidates resolves an ensemble's member paths and weights: explicit specs
// (each must parse and connect the endpoint types) or schema enumeration,
// then the weighting mode. Zero-weight paths are dropped so they never cost
// a query. Everything but degree weighting needs only the schema, so a
// router without the graph passes g == nil and scores exactly the ensemble
// a replica would.
func Candidates(s *hin.Schema, g *hin.Graph, srcType, dstType string, o Options) ([]*metapath.Path, []float64, error) {
	o.defaults()
	var paths []*metapath.Path
	if len(o.Paths) > 0 {
		for _, spec := range o.Paths {
			p, err := metapath.Parse(s, spec)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: path %q: %v", ErrBadOptions, spec, err)
			}
			if p.Source() != srcType || p.Target() != dstType {
				return nil, nil, fmt.Errorf("%w: path %s connects (%s,%s), query asks (%s,%s)",
					ErrBadOptions, p, p.Source(), p.Target(), srcType, dstType)
			}
			paths = append(paths, p)
		}
	} else {
		var err error
		paths, err = metapath.EnumerateWith(s, srcType, dstType, metapath.EnumerateOptions{
			MaxLen: o.MaxLen, MaxPaths: o.MaxPaths, DedupReverse: true,
		})
		if err != nil {
			return nil, nil, err
		}
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("%w: no %s→%s path within length %d",
			ErrNoPaths, srcType, dstType, o.MaxLen)
	}
	weights, err := Weigh(g, paths, o.Weighting, o.Learned)
	if err != nil {
		return nil, nil, err
	}
	// Drop zero-weight paths (learned mode zeroes out unlisted candidates).
	kept := paths[:0]
	keptW := weights[:0]
	for i, p := range paths {
		if weights[i] > 0 {
			kept = append(kept, p)
			keptW = append(keptW, weights[i])
		}
	}
	if len(kept) == 0 {
		return nil, nil, fmt.Errorf("%w: every candidate path has zero weight", ErrNoPaths)
	}
	return kept, keptW, nil
}

// Weigh computes ensemble weights for the given paths under a weighting
// mode. Uniform and degree weights are normalized to sum to 1; learned
// weights are the caller's regression coefficients and are used as-is
// (normalizing them would change the calibrated scale). Only degree mode
// reads g.
func Weigh(g *hin.Graph, paths []*metapath.Path, mode string, learned map[string]float64) ([]float64, error) {
	w := make([]float64, len(paths))
	switch mode {
	case WeightUniform, "":
		for i := range w {
			w[i] = 1 / float64(len(paths))
		}
	case WeightDegree:
		if g == nil {
			return nil, fmt.Errorf("%w: degree weighting needs the graph", ErrBadOptions)
		}
		// Long high-fanout paths spread probability mass over huge
		// intermediate frontiers and correlate poorly with semantic
		// relatedness (the paper's Section 5.1 observation that longer
		// paths carry weaker semantics). Weight each path by the inverse
		// log of its expected frontier growth and normalize.
		var sum float64
		for i, p := range paths {
			w[i] = 1 / (1 + math.Log(1+pathFanout(g, p)))
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
	case WeightLearned:
		if len(learned) == 0 {
			return nil, fmt.Errorf("%w: learned weighting needs a weights map", ErrBadOptions)
		}
		for i, p := range paths {
			lw, ok := learned[p.String()]
			if !ok {
				continue // unlisted → zero → dropped by the caller
			}
			if lw < 0 || math.IsNaN(lw) || math.IsInf(lw, 0) {
				return nil, fmt.Errorf("%w: weight %v for path %s", ErrBadOptions, lw, p)
			}
			w[i] = lw
		}
	default:
		return nil, fmt.Errorf("%w: unknown weighting %q", ErrBadOptions, mode)
	}
	return w, nil
}

// pathFanout estimates a path's frontier growth: the product over steps of
// the average out-degree of the step's relation in the walking direction.
func pathFanout(g *hin.Graph, p *metapath.Path) float64 {
	fan := 1.0
	for _, st := range p.Steps() {
		adj, err := g.Adjacency(st.Relation.Name)
		if err != nil {
			continue
		}
		n := g.NodeCount(st.From())
		if n == 0 {
			continue
		}
		fan *= float64(adj.NNZ()) / float64(n)
	}
	return fan
}

// rankTopK ranks the positive combined scores through the one selector
// (score descending, ties by ascending index).
func rankTopK(scores []float64, k int) []rank.Scored {
	sel := rank.NewSelector(k)
	for i, v := range scores {
		if v > 0 {
			sel.Push(i, v)
		}
	}
	return sel.Ranked()
}

// weightsFile is the on-disk learned-weights format:
//
//	{"weights": {"APA": 0.55, "APVPA": 0.30}}
type weightsFile struct {
	Weights map[string]float64 `json:"weights"`
}

// LoadWeightsFile reads a learned path-weights JSON file.
func LoadWeightsFile(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f weightsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("relevance: weights file %s: %w", path, err)
	}
	if len(f.Weights) == 0 {
		return nil, fmt.Errorf("%w: weights file %s has no weights", ErrBadOptions, path)
	}
	for spec, w := range f.Weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("%w: weights file %s: weight %v for path %q", ErrBadOptions, path, w, spec)
		}
	}
	return f.Weights, nil
}

// WeightsMap pairs learned weights with their path specs, for persisting a
// learn.PathWeights fit in the LoadWeightsFile format.
func WeightsMap(paths []*metapath.Path, weights []float64) map[string]float64 {
	m := make(map[string]float64, len(paths))
	for i, p := range paths {
		if i < len(weights) {
			m[p.String()] = weights[i]
		}
	}
	return m
}
