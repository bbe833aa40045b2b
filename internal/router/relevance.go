package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"hetesim/internal/api"
	"hetesim/internal/hin"
	"hetesim/internal/relevance"
)

// POST /v1/relevance at the router. Pair-mode ensembles scatter: each
// candidate meta path becomes one pair query routed to the replica owning
// that path's key — so the ensemble's member paths are scored by the
// replicas whose caches are hot on them, each replica scoring its share in
// one sub-batch (fanout) — and the router recombines the
// raw per-path scores with its own weights, through the same
// relevance.Assemble a replica answering directly runs (routed == direct
// by construction). A path whose replica group is down is excluded and
// flagged; the surviving contributions keep their original weights
// (partial=true, unrenormalized — a partial answer is a lower bound, not a
// silently re-weighted ensemble). A member answering not_found names an
// endpoint the graph lacks, which fails the whole request with 404, as it
// does direct. Top-k mode and degree weighting need
// whole-graph state, so those proxy to one replica keyed by the
// endpoint-type pair.

func (r *Router) handleRelevance(w http.ResponseWriter, req *http.Request) {
	// Buffered first, decoded from the copy: the proxy branch resends it.
	body, err := io.ReadAll(req.Body)
	var rreq api.RelevanceRequest
	if err == nil {
		err = json.NewDecoder(bytes.NewReader(body)).Decode(&rreq)
	}
	if err != nil {
		badRequest(w, "decoding relevance request: "+err.Error())
		return
	}
	schema := r.schema.Load()
	switch rreq.Weighting {
	case "", relevance.WeightUniform, relevance.WeightLearned: // schema-only weights: the router can combine
		if rreq.Target != "" && schema != nil {
			r.scatterRelevance(w, req, &rreq, schema)
			return
		}
	}
	// Whole-request proxy, placed by the endpoint-type pair so repeat
	// queries between the same types keep hitting the same warm replica.
	r.relay(w, req, rreq.SourceType+"\x00"+rreq.TargetType, jsonPost("/v1/relevance", body))
}

func (r *Router) scatterRelevance(w http.ResponseWriter, req *http.Request, rreq *api.RelevanceRequest, schema *hin.Schema) {
	start := time.Now()
	// The ensemble's required fields, limits, paths and weights come from the
	// same code a replica runs, so a routed request is refused, validated and
	// weighted exactly like a direct one. The replicas return RAW per-path
	// scores (weights are a combine-time concern); the router owns the combine.
	opts, err := r.relevanceLimits.Admit(rreq)
	if err != nil {
		badRequest(w, err.Error())
		return
	}
	opts.Learned = r.pathWeights
	paths, weights, err := relevance.Candidates(schema, nil, rreq.SourceType, rreq.TargetType, opts)
	if err != nil {
		badRequest(w, err.Error())
		return
	}
	floor, ok := minWALSeq(w, req)
	if !ok {
		return
	}

	// One raw pair query per path, placed by the path's canonical key; fanout
	// sends each replica order one sub-batch of them.
	queries := make([]json.RawMessage, len(paths))
	keys := make([]string, len(paths))
	for i, p := range paths {
		queries[i], _ = json.Marshal(api.BatchQuery{
			Kind: "pair", Path: p.String(), Source: rreq.Source, Target: rreq.Target, Raw: rreq.Raw,
		})
		keys[i] = pathKey(p)
	}
	slots, stats, _ := r.fanout(req.Context(), queries, keys, floor)

	outs := make([]relevance.Outcome, len(slots))
	var notFound *api.Error // an endpoint no replica knows: the whole request's error
	for i, s := range slots {
		var sr api.BatchResult
		if s.raw == nil {
			outs[i].Err, outs[i].Code = s.err.Error, s.err.Code
			continue
		}
		switch err := json.Unmarshal(s.raw, &sr); {
		case err != nil:
			outs[i].Err, outs[i].Code = "malformed replica result: "+err.Error(), "replica_error"
		case sr.Error != "":
			outs[i].Err, outs[i].Code = sr.Error, sr.Code
		case sr.Score == nil:
			outs[i].Err, outs[i].Code = "replica result carries no score", "replica_error"
		default:
			outs[i].Score, outs[i].Shared = *sr.Score, sr.Shared
		}
		if outs[i].Code == "not_found" && notFound == nil {
			notFound = &api.Error{Error: outs[i].Err, Code: outs[i].Code}
		}
	}
	// A replica resolves both endpoints before it scores any path, so an
	// unknown source or target is a 404 for the whole ensemble there, not a
	// member failure; the routed answer is the same.
	if notFound != nil {
		writeJSON(w, http.StatusNotFound, notFound)
		return
	}
	res := relevance.Assemble(paths, weights, outs)
	resp := api.RelevanceResponse{
		Mode: "pair", Source: rreq.Source, Target: rreq.Target,
		Weighting: opts.Weighting, Score: res.PairScore(), Paths: res.Paths, Partial: res.Partial,
		Stats: api.RelevanceStats{
			Paths:      len(slots),
			Sharing:    stats.Sharing,
			DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
		},
	}
	writeJSON(w, http.StatusOK, resp)
}
