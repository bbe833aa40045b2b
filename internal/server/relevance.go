package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"hetesim/internal/api"
	"hetesim/internal/obs"
	"hetesim/internal/rank"
	"hetesim/internal/relevance"
)

// POST /v1/relevance: relevance with no path given. The handler enumerates
// every schema-valid meta path between the endpoint types (bounded by the
// server's relevance limits), scores all of them through the batch
// scheduler — singleton per-path groups still share common half-chain
// prefixes — and combines the per-path scores into one weighted ensemble.
// With a target it answers a pair query; with only a target type it ranks
// the k most relevant nodes of that type. Failure is per path: a path that
// blows its deadline is excluded and flagged, never failing the whole answer.

func (s *Server) handleRelevance(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ctx := r.Context()
	es := s.current()

	sp := obs.FromContext(ctx).Start("decode")
	var req api.RelevanceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		sp.End()
		writeError(w, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	opts, src, dst, err := s.decodeRelevance(es, &req)
	sp.End()
	if err != nil {
		writeError(w, err)
		return
	}

	var (
		res    *relevance.Result
		ranked []rank.Scored
	)
	body := api.RelevanceResponse{Mode: "topk", Source: req.Source, Target: req.Target, Weighting: opts.Weighting}
	if dst >= 0 {
		body.Mode = "pair"
		res, err = relevance.Pair(ctx, es.engine, req.SourceType, src, req.TargetType, dst, opts)
	} else {
		res, ranked, err = relevance.TopK(ctx, es.engine, req.SourceType, src, req.TargetType, req.K, opts)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	if dst >= 0 {
		body.Score = res.PairScore()
	} else {
		body.Results = namedHits(es.g, req.TargetType, ranked, 0)
	}
	body.Paths, body.Partial = res.Paths, res.Partial
	body.Stats = api.RelevanceStats{
		Paths:      len(res.Paths),
		Sharing:    sharing(res.Stats),
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	body.Trace = inlineTrace(ctx, r.URL.Query())
	writeJSON(w, http.StatusOK, body)
}

// decodeRelevance validates the request against the server's relevance
// limits and resolves its endpoints; a target index of -1 is top-k mode.
func (s *Server) decodeRelevance(es *engineSet, req *api.RelevanceRequest) (relevance.Options, int, int, error) {
	o, err := s.relevanceLimits.Admit(req) // the router's check too: one wording per refusal
	if err != nil {
		return o, 0, 0, err
	}
	if !es.g.Schema().HasType(req.SourceType) || !es.g.Schema().HasType(req.TargetType) {
		return o, 0, 0, fmt.Errorf("%w: unknown node type", errBadRequest)
	}
	o.Learned = s.pathWeights
	o.Workers = s.batchWorkers
	o.PerPathTimeout = s.queryTimeout
	src, dst, err := endpoints(es.g, req.SourceType, req.Source, req.TargetType, req.Target)
	if err != nil {
		return o, 0, 0, err
	}
	if dst < 0 {
		if req.K == 0 {
			req.K = 10
		}
		if req.K < 0 {
			return o, 0, 0, fmt.Errorf("%w: k=%d", errBadRequest, req.K)
		}
	}
	return o, src, dst, nil
}
