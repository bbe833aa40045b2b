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
	body := s.Batch(ctx, req.Queries)
	body.Stats.DurationMS = float64(time.Since(start)) / float64(time.Millisecond) // the request's, body decode included
	body.Trace = inlineTrace(ctx, r.URL.Query())
	writeJSON(w, http.StatusOK, body)
}

// Batch answers a batch's slots in order — the transport-free body of
// POST /v1/batch, which cmd/hetesim -batch calls directly so the CLI and
// the daemon cannot drift. Every slot goes through the solo endpoints'
// decode; a bad one fails in place, never the batch. Batch supports the
// hetesim measure only; valid slots split by engine, because raw
// (Definition 3) and normalized (Definition 10) scores come from distinct
// engines with distinct caches.
func (s *Server) Batch(ctx context.Context, slots []api.BatchQuery) api.BatchResponse[api.BatchResult] {
	start := time.Now()
	es := s.current()
	out := make([]api.BatchResult, len(slots))
	paths := make([]*metapath.Path, len(slots))
	engines := [2]*core.Engine{es.engine, es.raw}
	var cqs [2][]core.BatchQuery // by engine: 0 normalized, 1 raw
	var pos [2][]int             // cqs[e][k] answers slot pos[e][k]
	for i, slot := range slots {
		out[i] = api.BatchResult{Kind: slot.Kind, Path: slot.Path, Source: slot.Source, Target: slot.Target}
		q, err := s.decode(es, wireQuery{BatchQuery: slot})
		if err != nil {
			failSlot(&out[i], err)
			continue
		}
		paths[i] = q.path
		out[i].Path = q.path.String()
		e := 0
		if q.Raw {
			e = 1
		}
		cqs[e] = append(cqs[e], core.BatchQuery{Kind: core.BatchKind(q.Kind), Path: q.path, Src: q.src, Dst: q.dst, K: q.K, Eps: q.Eps})
		pos[e] = append(pos[e], i)
	}

	stats := api.BatchStats{Queries: len(slots)}
	opts := core.BatchOptions{Workers: s.batchWorkers, PerQueryTimeout: s.queryTimeout}
	for e, eng := range engines {
		if len(cqs[e]) == 0 {
			continue
		}
		results, st, err := eng.ExecuteBatch(ctx, cqs[e], opts)
		for k, i := range pos[e] {
			if err != nil {
				failSlot(&out[i], err)
			} else {
				fillSlot(es, &out[i], paths[i], results[k])
			}
		}
		stats.Groups += st.Groups
		stats.Sharing.Add(sharing(st))
	}
	if stats.Groups > 0 {
		stats.Amortization = float64(len(cqs[0])+len(cqs[1])) / float64(stats.Groups)
	}
	stats.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	return api.BatchResponse[api.BatchResult]{Results: out, Stats: stats}
}

// sharing renders the scheduler's amortization account in wire form.
func sharing(st core.BatchStats) api.Sharing {
	return api.Sharing{
		SharedQueries: st.SharedQueries, ChainBuilds: st.ChainBuilds,
		RowSteps: st.RowSteps, NaiveRowSteps: st.NaiveRowSteps, PrefixResumes: st.PrefixResumes,
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
