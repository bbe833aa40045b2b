package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"hetesim/internal/core"
	"hetesim/internal/metapath"
	"hetesim/internal/obs"
)

// POST /v1/batch: many heterogeneous queries in one request, executed by
// the core path-group scheduler so queries sharing a canonical relevance
// path pay its chain propagation once (Property 2's factorization shared
// N ways). Failure is per query — each result slot carries its own error
// and code — and the whole batch occupies one in-flight slot. The
// per-request query deadline is applied to each query individually by the
// scheduler rather than to the batch as a whole.

type batchRequest struct {
	Queries []batchQueryBody `json:"queries"`
}

type batchQueryBody struct {
	Kind    string  `json:"kind"`
	Path    string  `json:"path"`
	Source  string  `json:"source"`
	Target  string  `json:"target,omitempty"`
	K       int     `json:"k,omitempty"`
	Eps     float64 `json:"eps,omitempty"`
	Measure string  `json:"measure,omitempty"`
	Raw     bool    `json:"raw,omitempty"`
}

type batchResultBody struct {
	Kind    string    `json:"kind,omitempty"`
	Path    string    `json:"path,omitempty"`
	Source  string    `json:"source,omitempty"`
	Target  string    `json:"target,omitempty"`
	Score   *float64  `json:"score,omitempty"`
	Scores  []float64 `json:"scores,omitempty"`
	Results []hitBody `json:"results,omitempty"`
	Shared  bool      `json:"shared,omitempty"`
	Error   string    `json:"error,omitempty"`
	Code    string    `json:"code,omitempty"`
}

type batchStatsBody struct {
	Queries       int     `json:"queries"`
	Groups        int     `json:"groups"`
	SharedQueries int     `json:"shared_queries"`
	ChainBuilds   int     `json:"chain_builds"`
	RowSteps      int     `json:"row_steps"`
	NaiveRowSteps int     `json:"naive_row_steps"`
	PrefixResumes int     `json:"prefix_resumes"`
	Amortization  float64 `json:"amortization"`
	DurationMS    float64 `json:"duration_ms"`
}

type batchResponse struct {
	Results []batchResultBody `json:"results"`
	Stats   batchStatsBody    `json:"stats"`
	Trace   *obs.Report       `json:"trace,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ctx := r.Context()
	es := s.current()
	tr := obs.FromContext(ctx)
	sp := tr.Start("decode")
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		sp.End()
		writeError(w, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	if len(req.Queries) == 0 {
		sp.End()
		writeError(w, fmt.Errorf("%w: empty batch", errBadRequest))
		return
	}
	if s.maxBatchQueries > 0 && len(req.Queries) > s.maxBatchQueries {
		sp.End()
		writeError(w, fmt.Errorf("%w: batch has %d queries, limit is %d",
			errBadRequest, len(req.Queries), s.maxBatchQueries))
		return
	}

	// Decode every slot; a bad query fails in place, never the batch. Valid
	// queries split by engine: raw (Definition 3) and normalized (Definition
	// 10) scores come from distinct engines with distinct caches.
	out := make([]batchResultBody, len(req.Queries))
	paths := make([]*metapath.Path, len(req.Queries))
	var normQ, rawQ []core.BatchQuery
	var normPos, rawPos []int
	for i, qb := range req.Queries {
		out[i].Kind, out[i].Path, out[i].Source, out[i].Target = qb.Kind, qb.Path, qb.Source, qb.Target
		cq, err := s.decodeBatchQuery(es, qb)
		if err != nil {
			_, code := errorStatusCode(err)
			out[i].Error, out[i].Code = err.Error(), code
			continue
		}
		paths[i] = cq.Path
		out[i].Path = cq.Path.String()
		if qb.Raw {
			rawQ, rawPos = append(rawQ, cq), append(rawPos, i)
		} else {
			normQ, normPos = append(normQ, cq), append(normPos, i)
		}
	}
	sp.End()

	opts := core.BatchOptions{Workers: s.batchWorkers, PerQueryTimeout: s.queryTimeout}
	run := func(eng *core.Engine, qs []core.BatchQuery, pos []int) core.BatchStats {
		if len(qs) == 0 {
			return core.BatchStats{}
		}
		results, stats, err := eng.ExecuteBatch(ctx, qs, opts)
		if err != nil {
			_, code := errorStatusCode(err)
			for _, i := range pos {
				out[i].Error, out[i].Code = err.Error(), code
			}
			return stats
		}
		for k, res := range results {
			s.fillBatchResult(es, &out[pos[k]], paths[pos[k]], res)
		}
		return stats
	}
	st := run(es.engine, normQ, normPos)
	rawSt := run(es.raw, rawQ, rawPos)

	stats := batchStatsBody{
		Queries:       len(req.Queries),
		Groups:        st.Groups + rawSt.Groups,
		SharedQueries: st.SharedQueries + rawSt.SharedQueries,
		ChainBuilds:   st.ChainBuilds + rawSt.ChainBuilds,
		RowSteps:      st.RowSteps + rawSt.RowSteps,
		NaiveRowSteps: st.NaiveRowSteps + rawSt.NaiveRowSteps,
		PrefixResumes: st.PrefixResumes + rawSt.PrefixResumes,
		DurationMS:    float64(time.Since(start)) / float64(time.Millisecond),
	}
	if stats.Groups > 0 {
		stats.Amortization = float64(len(normQ)+len(rawQ)) / float64(stats.Groups)
	}
	body := batchResponse{Results: out, Stats: stats}
	if wantTrace(r) {
		body.Trace = tr.Report(tr.Elapsed())
	}
	writeJSON(w, http.StatusOK, body)
}

// decodeBatchQuery turns one request slot into a core batch query. Batch
// supports the hetesim measure only; raw selects the unnormalized engine.
func (s *Server) decodeBatchQuery(es *engineSet, qb batchQueryBody) (core.BatchQuery, error) {
	var cq core.BatchQuery
	if qb.Measure != "" && qb.Measure != "hetesim" {
		return cq, fmt.Errorf("%w: batch supports measure hetesim only (got %q)", errBadRequest, qb.Measure)
	}
	if qb.Path == "" {
		return cq, fmt.Errorf("%w: missing path", errBadRequest)
	}
	p, err := metapath.Parse(es.g.Schema(), qb.Path)
	if err != nil {
		return cq, err
	}
	if s.maxPathSteps > 0 && p.Len() > s.maxPathSteps {
		return cq, fmt.Errorf("%w: path has %d steps, limit is %d", errBadRequest, p.Len(), s.maxPathSteps)
	}
	if qb.Source == "" {
		return cq, fmt.Errorf("%w: missing source", errBadRequest)
	}
	src, err := es.g.NodeIndex(p.Source(), qb.Source)
	if err != nil {
		return cq, err
	}
	cq.Path, cq.Src = p, src
	switch qb.Kind {
	case "pair":
		cq.Kind = core.BatchPair
		if qb.Target == "" {
			return cq, fmt.Errorf("%w: missing target", errBadRequest)
		}
		cq.Dst, err = es.g.NodeIndex(p.Target(), qb.Target)
		if err != nil {
			return cq, err
		}
	case "single_source":
		cq.Kind = core.BatchSingleSource
	case "topk":
		cq.Kind = core.BatchTopK
		cq.K, cq.Eps = qb.K, qb.Eps
		if cq.K == 0 {
			cq.K = 10
		}
		if cq.K < 0 {
			return cq, fmt.Errorf("%w: k=%d", errBadRequest, cq.K)
		}
		if cq.Eps < 0 || cq.Eps >= 1 {
			return cq, fmt.Errorf("%w: eps=%v outside [0,1)", errBadRequest, cq.Eps)
		}
	default:
		return cq, fmt.Errorf("%w: unknown kind %q (want pair, single_source, or topk)", errBadRequest, qb.Kind)
	}
	return cq, nil
}

// fillBatchResult renders one core batch result into its response slot.
func (s *Server) fillBatchResult(es *engineSet, slot *batchResultBody, p *metapath.Path, res core.BatchResult) {
	slot.Shared = res.Shared
	if res.Err != nil {
		_, code := errorStatusCode(res.Err)
		slot.Error, slot.Code = res.Err.Error(), code
		return
	}
	switch slot.Kind {
	case "pair":
		score := res.Score
		slot.Score = &score
	case "single_source":
		slot.Scores = res.Scores
	case "topk":
		slot.Results = make([]hitBody, 0, len(res.TopK))
		for _, hit := range res.TopK {
			slot.Results = append(slot.Results, hitBody{ID: nodeID(es.g, p.Target(), hit.Index), Score: hit.Score})
		}
	}
}
