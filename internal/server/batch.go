package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"hetesim/internal/api"
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

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ctx := r.Context()
	tr := obs.FromContext(ctx)
	sp := tr.Start("decode")
	var req api.BatchRequest[api.BatchQuery]
	err := json.NewDecoder(r.Body).Decode(&req)
	switch {
	case err != nil:
		err = fmt.Errorf("%w: %v", errBadRequest, err)
	case len(req.Queries) == 0:
		err = fmt.Errorf("%w: empty batch", errBadRequest)
	case s.maxBatchQueries > 0 && len(req.Queries) > s.maxBatchQueries:
		err = fmt.Errorf("%w: batch has %d queries, limit is %d", errBadRequest, len(req.Queries), s.maxBatchQueries)
	}
	sp.End()
	if err != nil {
		writeError(w, err)
		return
	}
	body := s.batch(ctx, req.Queries)
	body.Stats.DurationMS = float64(time.Since(start)) / float64(time.Millisecond) // the request's, body decode included
	body.Trace = inlineTrace(ctx, r.URL.Query())
	writeJSON(w, http.StatusOK, body)
}

// batch answers a batch's slots in order — the transport-free body of
// POST /v1/batch. Every slot goes through the solo endpoints'
// decode; a bad one fails in place, never the batch. Batch supports the
// hetesim measure only; raw (Definition 3) and normalized (Definition 10)
// slots on one path share its group, since they differ at the last step only.
func (s *Server) batch(ctx context.Context, slots []api.BatchQuery) api.BatchResponse[api.BatchResult] {
	start := time.Now()
	es := s.current()
	out := make([]api.BatchResult, len(slots))
	paths := make([]*metapath.Path, len(slots))
	var cqs []core.BatchQuery
	var pos []int // cqs[k] answers slot pos[k]
	for i, slot := range slots {
		out[i] = api.BatchResult{Kind: slot.Kind, Path: slot.Path, Source: slot.Source, Target: slot.Target}
		q, err := s.decode(es, wireQuery{BatchQuery: slot})
		if err != nil {
			failSlot(&out[i], err)
			continue
		}
		paths[i] = q.path
		out[i].Path = q.path.String()
		cqs = append(cqs, core.BatchQuery{Kind: core.BatchKind(q.Kind), Path: q.path, Src: q.src, Dst: q.dst, K: q.K, Eps: q.Eps, Raw: q.Raw})
		pos = append(pos, i)
	}

	stats := api.BatchStats{Queries: len(slots)}
	if len(cqs) > 0 {
		opts := core.BatchOptions{Workers: s.batchWorkers, PerQueryTimeout: s.queryTimeout}
		results, st, err := es.engine.ExecuteBatch(ctx, cqs, opts)
		for k, i := range pos {
			if err != nil {
				failSlot(&out[i], err)
			} else {
				fillSlot(es, &out[i], paths[i], results[k])
			}
		}
		stats.Groups, stats.Amortization, stats.Sharing = st.Groups, st.Amortization, sharing(st)
	}
	stats.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	return api.BatchResponse[api.BatchResult]{Results: out, Stats: stats}
}

// sharing renders the scheduler's amortization account in wire form.
func sharing(st core.BatchStats) api.Sharing {
	return api.Sharing{
		SharedQueries: st.SharedQueries, ChainBuilds: st.ChainBuilds,
		RowSteps: st.RowSteps, NaiveRowSteps: st.NaiveRowSteps,
	}
}

// failSlot records a slot's own failure: message and stable code.
func failSlot(slot *api.BatchResult, err error) {
	_, slot.Code = errorStatusCode(err)
	slot.Error = err.Error()
}

// fillSlot renders one core batch result into its response slot.
func fillSlot(es *engineSet, slot *api.BatchResult, p *metapath.Path, res core.BatchResult) {
	slot.Shared = res.Shared
	switch {
	case res.Err != nil:
		failSlot(slot, res.Err)
	case slot.Kind == "pair":
		score := res.Score
		slot.Score = &score
	case slot.Kind == "single_source":
		slot.Scores = res.Scores
	default:
		slot.Results = namedHits(es.g, p.Target(), res.TopK, 0)
	}
}
