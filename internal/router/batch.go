package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"hetesim/internal/api"
)

// POST /v1/batch at the router: the batch is split into per-path groups
// (by canonical path key — the unit of both cache affinity and rendezvous
// placement), each group is fanned out to the replica owning its key, and
// the replies are re-assembled slot-for-slot in the original order. A
// group whose replica fleet is entirely unavailable fails per-slot with
// code "replica_unavailable"; the batch as a whole always answers 200 once
// it decodes. Slots travel as raw JSON both ways: the router reads only
// the fields it places by, and relays a replica's rendered slot verbatim.

// subResult is one slot's outcome after fan-out: the replica's rendered
// result verbatim, or a router-synthesized error.
type subResult struct {
	raw json.RawMessage // nil when the group's routing failed
	err api.Error
}

// fanout routes queries[i] under keys[i]: slots sharing a key travel in
// one sub-batch to the key's owner (keeping the replica-side scheduler's
// amortization within the group), groups run concurrently, and every
// slot comes back filled — with the replica's result or with a routing
// error. Returns the slots, the summed replica stats, and the fan-out
// width.
func (r *Router) fanout(ctx context.Context, queries []json.RawMessage, keys []string, minSeq uint64) ([]subResult, api.BatchStats, int) {
	groups := make(map[string][]int)
	for i, k := range keys {
		groups[k] = append(groups[k], i)
	}
	out := make([]subResult, len(queries))
	var (
		mu    sync.Mutex
		stats api.BatchStats
		wg    sync.WaitGroup
	)
	for key, slots := range groups {
		wg.Add(1)
		go func(key string, slots []int) {
			defer wg.Done()
			metFanout.Inc()
			fail := func(e api.Error) {
				for _, s := range slots {
					out[s] = subResult{err: e}
				}
			}
			sub := api.BatchRequest[json.RawMessage]{Queries: make([]json.RawMessage, len(slots))}
			for i, s := range slots {
				sub.Queries[i] = queries[s]
			}
			body, err := json.Marshal(sub)
			if err != nil {
				fail(api.Error{Error: "encoding sub-batch: " + err.Error(), Code: "internal"})
				return
			}
			res, err := r.forward(ctx, key, minSeq, jsonPost("/v1/batch", body))
			if err != nil {
				e, _ := unrouted(err, true)
				fail(e)
				return
			}
			if res.status != http.StatusOK {
				e := api.Error{Error: fmt.Sprintf("replica %s answered %d", res.rep.base, res.status), Code: "replica_error"}
				var eb api.Error
				if json.Unmarshal(res.body, &eb) == nil && eb.Error != "" {
					e = eb
				}
				fail(e)
				return
			}
			var sr api.BatchResponse[json.RawMessage]
			if err := json.Unmarshal(res.body, &sr); err != nil || len(sr.Results) != len(slots) {
				fail(api.Error{
					Error: fmt.Sprintf("malformed sub-batch reply from %s (%d results for %d queries)", res.rep.base, len(sr.Results), len(slots)),
					Code:  "replica_error"})
				return
			}
			for i, s := range slots {
				out[s] = subResult{raw: sr.Results[i]}
			}
			mu.Lock()
			stats.Queries += sr.Stats.Queries
			stats.Groups += sr.Stats.Groups
			stats.Sharing.Add(sr.Stats.Sharing)
			mu.Unlock()
		}(key, slots)
	}
	wg.Wait()
	return out, stats, len(groups)
}

func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	var breq api.BatchRequest[json.RawMessage]
	if err := json.NewDecoder(req.Body).Decode(&breq); err != nil {
		badRequest(w, "decoding batch: "+err.Error())
		return
	}
	if len(breq.Queries) == 0 {
		badRequest(w, "empty batch")
		return
	}
	floor, ok := minWALSeq(w, req)
	if !ok {
		return
	}
	// The router reads a slot only to place it (and to echo its identity if
	// it cannot be served); undecodable slots fail replica-side, in place.
	metas := make([]api.BatchQuery, len(breq.Queries))
	keys := make([]string, len(breq.Queries))
	for i, q := range breq.Queries {
		json.Unmarshal(q, &metas[i])
		keys[i] = r.canonicalKey(metas[i].Path)
	}
	slots, stats, groups := r.fanout(req.Context(), breq.Queries, keys, floor)

	results := make([]json.RawMessage, len(slots))
	for i, s := range slots {
		if s.raw != nil {
			results[i] = s.raw
			continue
		}
		results[i], _ = json.Marshal(api.BatchResult{
			Kind: metas[i].Kind, Path: metas[i].Path,
			Source: metas[i].Source, Target: metas[i].Target,
			Error: s.err.Error, Code: s.err.Code,
		})
	}
	stats.Queries = len(slots)
	if stats.Groups == 0 {
		stats.Groups = groups
	}
	if stats.Groups > 0 {
		stats.Amortization = float64(stats.Queries) / float64(stats.Groups)
	}
	stats.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, api.BatchResponse[json.RawMessage]{Results: results, Stats: stats})
}
