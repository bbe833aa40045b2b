package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"hetesim/internal/hin"
	"hetesim/internal/relevance"
)

// POST /v1/relevance at the router. Pair-mode ensembles scatter: each
// candidate meta path becomes one pair query routed to the replica owning
// that path's key — so the ensemble's member paths are scored by the
// replicas whose caches are hot on them — and the router recombines the
// raw per-path scores with its own weights. A path whose replica group is
// down is excluded and flagged; the surviving contributions keep their
// original weights (partial=true, unrenormalized — a partial answer is a
// lower bound, not a silently re-weighted ensemble). Top-k mode and
// degree weighting need whole-graph state, so those proxy to one replica
// keyed by the endpoint-type pair.

type relevanceRequest struct {
	Source     string   `json:"source"`
	SourceType string   `json:"source_type"`
	Target     string   `json:"target,omitempty"`
	TargetType string   `json:"target_type,omitempty"`
	K          int      `json:"k,omitempty"`
	MaxLen     int      `json:"max_len,omitempty"`
	MaxPaths   int      `json:"max_paths,omitempty"`
	Weighting  string   `json:"weighting,omitempty"`
	Paths      []string `json:"paths,omitempty"`
	Raw        bool     `json:"raw,omitempty"`
}

type relevancePathBody struct {
	Path   string  `json:"path"`
	Weight float64 `json:"weight"`
	Score  float64 `json:"score"`
	Shared bool    `json:"shared,omitempty"`
	Error  string  `json:"error,omitempty"`
	Code   string  `json:"code,omitempty"`
}

type relevanceStatsBody struct {
	Paths         int     `json:"paths"`
	SharedQueries int     `json:"shared_queries"`
	ChainBuilds   int     `json:"chain_builds"`
	RowSteps      int     `json:"row_steps"`
	NaiveRowSteps int     `json:"naive_row_steps"`
	PrefixResumes int     `json:"prefix_resumes"`
	DurationMS    float64 `json:"duration_ms"`
}

type relevanceResponse struct {
	Mode      string              `json:"mode"`
	Source    string              `json:"source"`
	Target    string              `json:"target,omitempty"`
	Score     *float64            `json:"score,omitempty"`
	Paths     []relevancePathBody `json:"paths"`
	Weighting string              `json:"weighting"`
	Partial   bool                `json:"partial,omitempty"`
	Stats     relevanceStatsBody  `json:"stats"`
}

func (r *Router) handleRelevance(w http.ResponseWriter, req *http.Request) {
	var body bytes.Buffer
	var rreq relevanceRequest
	if err := json.NewDecoder(io2(&body, req)).Decode(&rreq); err != nil {
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: "decoding relevance request: " + err.Error(), Code: "bad_request"})
		return
	}
	if rreq.Weighting == "" {
		rreq.Weighting = "uniform"
	}
	schema := r.schema.Load()
	scatterable := rreq.Target != "" && schema != nil &&
		(rreq.Weighting == "uniform" || rreq.Weighting == "learned")
	if !scatterable {
		// Whole-request proxy, placed by the endpoint-type pair so repeat
		// queries between the same types keep hitting the same warm replica.
		key := rreq.SourceType + "\x00" + rreq.TargetType
		res, err := r.forward(req.Context(), key, minWALSeq(req), func(base string) (*http.Request, error) {
			preq, err := http.NewRequest(http.MethodPost, base+"/v1/relevance", bytes.NewReader(body.Bytes()))
			if err != nil {
				return nil, err
			}
			preq.Header.Set("Content-Type", "application/json")
			return preq, nil
		})
		if err != nil {
			writeJSON(w, http.StatusServiceUnavailable,
				errorBody{Error: "no replica could answer: " + err.Error(), Code: "no_replicas"})
			return
		}
		writeResult(w, res)
		return
	}
	r.scatterRelevance(w, req, &rreq, schema)
}

// io2 tees the request body into buf so a proxied request can be resent.
func io2(buf *bytes.Buffer, req *http.Request) *bytes.Buffer {
	buf.ReadFrom(req.Body)
	return buf
}

func (r *Router) scatterRelevance(w http.ResponseWriter, req *http.Request, rreq *relevanceRequest, schema *hin.Schema) {
	start := time.Now()
	if rreq.Source == "" || rreq.SourceType == "" || rreq.TargetType == "" {
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: "source, source_type, and target_type are required", Code: "bad_request"})
		return
	}
	maxLen, maxPaths := r.relevanceMaxLen, r.relevanceMaxPaths
	if rreq.MaxLen > maxLen || rreq.MaxPaths > maxPaths {
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: fmt.Sprintf("max_len/max_paths exceed router limits %d/%d", maxLen, maxPaths), Code: "bad_request"})
		return
	}
	if rreq.MaxLen > 0 {
		maxLen = rreq.MaxLen
	}
	if rreq.MaxPaths > 0 {
		maxPaths = rreq.MaxPaths
	}
	if len(rreq.Paths) > maxPaths {
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: fmt.Sprintf("%d explicit paths exceed limit %d", len(rreq.Paths), maxPaths), Code: "bad_request"})
		return
	}

	// The ensemble's paths and weights come from the same code a replica
	// runs, so a routed request is validated and weighted exactly like a
	// direct one. The replicas return RAW per-path scores (weights are a
	// combine-time concern); the router owns the combine.
	paths, weights, err := relevance.Candidates(schema, nil, rreq.SourceType, rreq.TargetType, relevance.Options{
		MaxLen: maxLen, MaxPaths: maxPaths, Paths: rreq.Paths,
		Weighting: rreq.Weighting, Learned: r.pathWeights,
	})
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), Code: "bad_request"})
		return
	}
	specs := make([]string, len(paths))
	for i, p := range paths {
		specs[i] = p.String()
	}

	// One raw pair query per path, routed by the path's canonical key.
	queries := make([]json.RawMessage, len(paths))
	keys := make([]string, len(paths))
	for i, spec := range specs {
		q, _ := json.Marshal(map[string]any{
			"kind": "pair", "path": spec,
			"source": rreq.Source, "target": rreq.Target, "raw": rreq.Raw,
		})
		queries[i] = q
		keys[i] = r.canonicalKey(spec)
	}
	slots, stats, _ := r.fanout(req.Context(), queries, keys, minWALSeq(req))

	resp := relevanceResponse{
		Mode: "pair", Source: rreq.Source, Target: rreq.Target,
		Weighting: rreq.Weighting,
		Paths:     make([]relevancePathBody, len(slots)),
	}
	score := 0.0
	scored := false
	for i, s := range slots {
		pb := relevancePathBody{Path: specs[i], Weight: weights[i]}
		if s.raw != nil {
			var sr struct {
				Score  *float64 `json:"score"`
				Shared bool     `json:"shared"`
				Error  string   `json:"error"`
				Code   string   `json:"code"`
			}
			if err := json.Unmarshal(s.raw, &sr); err != nil {
				pb.Error, pb.Code = "malformed replica result: "+err.Error(), "replica_error"
			} else if sr.Error != "" {
				pb.Error, pb.Code = sr.Error, sr.Code
			} else if sr.Score == nil {
				pb.Error, pb.Code = "replica result carries no score", "replica_error"
			} else {
				pb.Score, pb.Shared = *sr.Score, sr.Shared
				score += weights[i] * pb.Score
				scored = true
			}
		} else {
			pb.Error, pb.Code = s.errMsg, s.errCode
		}
		if pb.Error != "" {
			resp.Partial = true
		}
		resp.Paths[i] = pb
	}
	if scored {
		resp.Score = &score
	}
	resp.Stats = relevanceStatsBody{
		Paths:         len(slots),
		SharedQueries: stats.SharedQueries,
		ChainBuilds:   stats.ChainBuilds,
		RowSteps:      stats.RowSteps,
		NaiveRowSteps: stats.NaiveRowSteps,
		PrefixResumes: stats.PrefixResumes,
		DurationMS:    float64(time.Since(start)) / float64(time.Millisecond),
	}
	writeJSON(w, http.StatusOK, resp)
}
