package server

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"hetesim/internal/api"
	"hetesim/internal/baseline"
	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/rank"
)

// The query pipeline. A relevance query — HS(s, t | P), its top-k form, its
// explanation — makes one journey whichever endpoint it arrived at:
//
//	adapter → decode/resolve → execute → encode
//
// A solo endpoint reads its URL parameters into the fields of a batch slot
// (soloQuery); a batch hands its slots over as they are. decode is the only
// place a path is parsed, capped and its nodes resolved, so every endpoint
// enforces the same limits; execute is the only place a measure is switched
// on and PlanOptions are built, and the PlanDecision that answered is
// reported through planInfo; a query past its deadline fails (504);
// namedHits is the only place an (index, score) becomes an {id, score}.
// Batch slots share decode and the encoders and run on the core batch
// scheduler, whose results are bit-identical to solo execution, so batch ==
// solo holds at the HTTP layer by construction.

// wireQuery is a query as an adapter read it off the wire: the fields of a
// batch slot, plus what only a solo URL can carry.
type wireQuery struct {
	api.BatchQuery
	plan   string // ?plan=; "" = the server default
	rawSet bool   // ?raw= was given, whatever its value
	solo   bool   // read off a URL: all measures allowed, fields are "parameters"
}

// query is one decoded query: the request's own fields with defaults
// applied, its parsed path, and its nodes resolved to indices against the
// generation that will answer it.
type query struct {
	api.BatchQuery
	path     *metapath.Path
	src, dst int           // dst is -1 when the query names no target
	plan     core.PlanKind // forced physical plan; PlanAuto lets the optimizer choose
}

// soloQuery is the URL adapter: it reads a solo endpoint's parameters into
// the fields of a batch slot of the given kind — parsing the two that
// arrive as text (k, raw) — and decodes the result. Each endpoint reads the
// parameters it always has: /v1/pair no k, /v1/explain only the path.
func (s *Server) soloQuery(es *engineSet, v url.Values, kind string) (query, error) {
	in := wireQuery{solo: true, plan: v.Get("plan"), BatchQuery: api.BatchQuery{
		Kind: kind, Path: v.Get("path"), Source: v.Get("source"), Target: v.Get("target"), Measure: v.Get("measure"),
	}}
	if kind == "explain" {
		return s.decode(es, in) // about the path alone: the other parameters are not read
	}
	var err error
	if kind != "pair" {
		if in.K, err = intParam(v, "k", 10, 1); err != nil {
			return query{}, err
		}
	}
	if raw := v.Get("raw"); raw != "" {
		in.rawSet = true
		if in.Raw, err = strconv.ParseBool(raw); err != nil {
			return query{}, fmt.Errorf("%w: raw=%q", errBadRequest, raw)
		}
	}
	return s.decode(es, in)
}

// decode validates one query and resolves it against es: path parse and
// length cap, then — except for "explain", which is about the path alone —
// source, measure, the measure-specific options, what the kind requires
// (target, k, eps), and last the nodes, so an unknown node is reported only
// for an otherwise well-formed query.
func (s *Server) decode(es *engineSet, in wireQuery) (query, error) {
	q := query{BatchQuery: in.BatchQuery, dst: -1, plan: core.PlanAuto}
	noun := ""
	if in.solo {
		noun = " parameter"
	}
	if q.Path == "" {
		return q, fmt.Errorf("%w: missing path%s", errBadRequest, noun)
	}
	var err error
	if q.path, err = metapath.Parse(es.g.Schema(), q.Path); err != nil {
		return q, err
	}
	if s.maxPathSteps > 0 && q.path.Len() > s.maxPathSteps {
		return q, fmt.Errorf("%w: path has %d steps, limit is %d", errBadRequest, q.path.Len(), s.maxPathSteps)
	}
	if q.Kind == "explain" && in.solo {
		return q, nil
	}
	if q.Source == "" {
		return q, fmt.Errorf("%w: missing source%s", errBadRequest, noun)
	}

	if q.Measure == "" {
		q.Measure = "hetesim"
	}
	switch {
	case q.Measure == "hetesim":
	case !in.solo:
		return q, fmt.Errorf("%w: batch supports measure hetesim only (got %q)", errBadRequest, q.Measure)
	case q.Measure != "pcrw" && q.Measure != "pathsim":
		return q, fmt.Errorf("%w: unknown measure %q", errBadRequest, q.Measure)
	case in.rawSet:
		return q, fmt.Errorf("%w: raw applies only to hetesim", errBadRequest)
	}
	if in.plan != "" {
		if q.plan, err = core.ParsePlanKind(in.plan); err != nil {
			return q, err
		}
		if q.Measure != "hetesim" && q.plan != core.PlanAuto {
			return q, fmt.Errorf("%w: plan applies only to hetesim", errBadRequest)
		}
	} else if in.solo && s.defaultPlan != "" {
		q.plan = s.defaultPlan
	}

	target := ""
	switch {
	case q.Kind == "pair", q.Kind == "why" && in.solo:
		if q.Kind == "why" && q.Measure != "hetesim" {
			return q, fmt.Errorf("%w: why applies only to hetesim", errBadRequest)
		}
		if target = q.Target; target == "" {
			return q, fmt.Errorf("%w: missing target%s", errBadRequest, noun)
		}
	case q.Kind == "topk":
		if q.Eps < 0 || q.Eps >= 1 {
			return q, fmt.Errorf("%w: eps=%v outside [0,1)", errBadRequest, q.Eps)
		}
	case q.Kind == "single_source" && !in.solo:
	default:
		return q, fmt.Errorf("%w: unknown kind %q (want pair, single_source, or topk)", errBadRequest, q.Kind)
	}
	if q.Kind == "topk" || q.Kind == "why" {
		if q.K == 0 {
			q.K = 10 // a slot's omitted k; the URL adapter has already defaulted its own
		}
		if q.K < 0 {
			return q, fmt.Errorf("%w: k=%d", errBadRequest, q.K)
		}
	}
	q.src, q.dst, err = endpoints(es.g, q.path.Source(), q.Source, q.path.Target(), target)
	return q, err
}

// endpoints resolves a query's source and — when it names one — target to
// node indices within their types; no target resolves to -1.
func endpoints(g *hin.Graph, srcType, src, dstType, dst string) (int, int, error) {
	i, err := g.NodeIndex(srcType, src)
	if err != nil || dst == "" {
		return i, -1, err
	}
	j, err := g.NodeIndex(dstType, dst)
	return i, j, err
}

// planInfo renders the decision that answered a hetesim query.
func planInfo(d core.PlanDecision) *api.Plan {
	return &api.Plan{Kind: string(d.Kind), EstFlops: d.Est.Flops, Forced: d.Forced, Reason: d.Reason}
}

// answer is what executing a pair or top-k query produced.
type answer struct {
	score float64   // pair
	hits  []api.Hit // top-k
	plan  *api.Plan // hetesim only
}

// byIndex is the query surface the two baseline measures share.
type byIndex interface {
	PairByIndex(ctx context.Context, p *metapath.Path, src, dst int) (float64, error)
	SingleSourceByIndex(ctx context.Context, p *metapath.Path, src int) ([]float64, error)
}

// execute answers a decoded pair or top-k query under its measure. HeteSim
// goes through the optimizer, which owns plan choice, and reports the
// decision that produced the answer; the baselines have one plan.
func (s *Server) execute(ctx context.Context, es *engineSet, q query) (answer, error) {
	var a answer
	topk := q.Kind == "topk"
	if q.Measure != "hetesim" {
		var m byIndex = baseline.NewPCRWFromEngine(es.engine)
		if q.Measure == "pathsim" {
			m = baseline.NewPathSim(es.g)
		}
		if !topk {
			score, err := m.PairByIndex(ctx, q.path, q.src, q.dst)
			a.score = score
			return a, err
		}
		scores, err := m.SingleSourceByIndex(ctx, q.path, q.src)
		if err != nil {
			return a, err
		}
		sp := obs.FromContext(ctx).Start("rank")
		sel := rank.NewSelector(min(q.K, len(scores))) // dense: zeros rank too
		for i, v := range scores {
			sel.Push(i, v)
		}
		a.hits = namedHits(es.g, q.path.Target(), sel.Ranked(), 0)
		sp.End()
		return a, nil
	}

	opts := core.PlanOptions{Force: q.plan, Raw: q.Raw}
	var d core.PlanDecision
	var err error
	if topk {
		var top []core.Scored
		top, d, err = es.engine.TopKSearchWithPlan(ctx, q.path, q.src, q.K, q.Eps, opts)
		if err == nil {
			a.hits = namedHits(es.g, q.path.Target(), top, q.K)
		}
	} else {
		a.score, d, err = es.engine.PairWithPlan(ctx, q.path, q.src, q.dst, opts)
	}
	if d.Kind != "" {
		a.plan = planInfo(d)
	}
	return a, err
}

// namedHits turns ranked targets of one type into response hits, resolving
// each id by index (never copying the type's id table: 270 KB of garbage
// per answer at paper scale). The engine's rankings drop zero scores; a
// solo /v1/topk answer lists k targets regardless, so pad > len(top) fills
// the tail with zero-score targets in ascending index order — every target
// absent from the ranking scores exactly zero — up to pad or the type's
// population. Batch slots and ensembles pass pad 0: related targets only.
func namedHits(g *hin.Graph, typ string, top []rank.Scored, pad int) []api.Hit {
	pad = min(pad, g.NodeCount(typ))
	hits := make([]api.Hit, len(top), max(len(top), pad))
	for p, t := range top {
		hits[p].ID, _ = g.NodeID(typ, t.Index) // in range: t indexes a score vector over g
		hits[p].Score = t.Score
	}
	if len(hits) >= pad {
		return hits
	}
	seen := make(map[int]bool, len(top))
	for _, t := range top {
		seen[t.Index] = true
	}
	for i := 0; len(hits) < pad; i++ {
		if !seen[i] {
			id, _ := g.NodeID(typ, i)
			hits = append(hits, api.Hit{ID: id})
		}
	}
	return hits
}

// solo is the shared front of the solo handlers: resolve the serving
// generation, decode under the "decode" span, and on failure answer.
func (s *Server) solo(w http.ResponseWriter, r *http.Request, kind string) (*engineSet, url.Values, query, bool) {
	es := s.current()
	v := r.URL.Query()
	sp := obs.FromContext(r.Context()).Start("decode")
	q, err := s.soloQuery(es, v, kind)
	sp.End()
	if err != nil {
		writeError(w, err)
	}
	return es, v, q, err == nil
}

// inlineTrace returns the request's trace report when ?trace=1 asked for it.
func inlineTrace(ctx context.Context, v url.Values) *obs.Report {
	if !wantTrace(v) {
		return nil
	}
	tr := obs.FromContext(ctx)
	return tr.Report(tr.Elapsed())
}

// handleSolo serves GET /v1/pair and GET /v1/topk, which differ only in the
// body they encode.
func (s *Server) handleSolo(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		es, v, q, ok := s.solo(w, r, kind)
		if !ok {
			return
		}
		a, err := s.execute(r.Context(), es, q)
		if err != nil {
			writeError(w, err)
			return
		}
		path, trace := q.path.String(), inlineTrace(r.Context(), v)
		if kind == "pair" {
			writeJSON(w, http.StatusOK, api.Pair{Path: path, Source: q.Source, Target: q.Target, Measure: q.Measure,
				Score: a.score, Plan: a.plan, Trace: trace})
		} else {
			writeJSON(w, http.StatusOK, api.TopK{Path: path, Source: q.Source, Measure: q.Measure,
				Plan: a.plan, Results: a.hits, Trace: trace})
		}
	}
}

// handleWhy explains a pair's HeteSim score by its top meeting-object
// contributions.
func (s *Server) handleWhy(w http.ResponseWriter, r *http.Request) {
	es, _, q, ok := s.solo(w, r, "why")
	if !ok {
		return
	}
	score, contribs, err := es.engine.PairContributions(r.Context(), q.path, q.src, q.dst, q.K, q.Raw)
	if err != nil {
		writeError(w, err)
		return
	}
	body := api.Why{Path: q.path.String(), Source: q.Source, Target: q.Target, Score: score}
	for _, c := range contribs {
		body.Contributions = append(body.Contributions, api.Contribution{
			Label: c.Label, Value: c.Value, Fraction: c.Fraction,
		})
	}
	writeJSON(w, http.StatusOK, body)
}

// handleExplain exposes the HeteSim query planner: the estimated cost of
// every physical plan for a path, amortized over an expected query count.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	es, v, q, ok := s.solo(w, r, "explain")
	if !ok {
		return
	}
	queries, err := intParam(v, "queries", 1, 1)
	if err != nil {
		writeError(w, err)
		return
	}
	report, plans, err := es.engine.Explain(q.path, queries)
	if err != nil {
		writeError(w, err)
		return
	}
	body := api.Explain{Path: q.path.String(), Queries: queries, Report: report}
	for _, pl := range plans {
		body.Plans = append(body.Plans, api.PlanEstimate{
			Kind: string(pl.Kind), Flops: pl.Flops,
			Materialize: pl.Materialize, Description: pl.Description,
		})
	}
	writeJSON(w, http.StatusOK, body)
}
