package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"hetesim/internal/api"
	"hetesim/internal/obs"
	"hetesim/internal/wal"
)

// Crash-safe incremental mutation. POST /v1/admin/edges applies a batch of
// edge/node deltas to the serving graph without a restart and without
// rebuilding the chain cache: the batch goes through the store's apply —
// validated against the current graph, appended (and fsynced) to the
// write-ahead log, and only then published as a fresh engine set over the
// copy-on-write graph whose cached chain matrices are maintained
// row-incrementally from the serving set. In-flight queries drain against
// the set they started with; an acked batch survives any crash because boot
// replays the log over the base graph through the same apply.
var (
	metMutations = obs.Default().Counter("hetesim_mutations_total",
		"Mutation batches acked through POST /v1/admin/edges.")
	metMutationOps = obs.Default().Counter("hetesim_mutation_ops_total",
		"Individual mutation operations acked.")
	metMutationBackpressure = obs.Default().Counter("hetesim_mutation_backpressure_total",
		"Mutation batches shed with 503 because a write was already in flight.")
	metWALReplayed = obs.Default().Counter("hetesim_wal_replayed_total",
		"Mutation batches re-applied from the write-ahead log at boot.")
)

// WALStatus reports what OpenWAL found and did.
type WALStatus struct {
	Replayed       int    `json:"replayed"`        // batches re-applied from the log
	Checkpointed   int    `json:"checkpointed"`    // idempotency keys restored from checkpoints
	TruncatedBytes int64  `json:"truncated_bytes"` // torn tail discarded
	SetAside       string `json:"set_aside,omitempty"`
}

// OpenWAL opens the configured write-ahead log against the currently
// served graph and replays any batches it holds through the incremental
// mutation path, leaving the server's graph caught up to the last acked
// mutation. The server reports "replaying" at /readyz for the duration.
// Call after WarmStart and before serving; with no WAL path it is a no-op.
//
// A log whose header names a different base-graph fingerprint is set
// aside, not replayed: it belongs to another generation (most often one
// already folded into the base by a compaction that crashed before
// resetting the log).
func (s *Server) OpenWAL() (*WALStatus, error) {
	if s.st.walPath == "" {
		return nil, nil
	}
	s.st.admit.Lock()
	defer s.st.admit.Unlock()
	rep, err := s.st.openWAL()
	if err != nil {
		return nil, err
	}
	st := &WALStatus{
		Checkpointed:   len(rep.Checkpoint),
		TruncatedBytes: rep.TruncatedBytes,
		SetAside:       rep.SetAside,
	}
	if len(rep.Batches) > 0 {
		prev := s.State()
		s.setState(StateReplaying)
		defer s.setState(prev)
	}
	for _, b := range rep.Batches {
		res, err := s.st.apply(s.st.ctx, b, true)
		if err != nil {
			return st, fmt.Errorf("server: replaying wal batch %d: %w", b.Seq, err)
		}
		if !res.duplicate {
			metWALReplayed.Inc()
			st.Replayed++
		}
	}

	// A snapshot saved after mutations names the post-replay fingerprint,
	// so WarmStart kept it for now: the graph has caught up, warm from it.
	// A base warm start that landed instead was carried forward by the
	// replay row by row.
	if snap := s.st.takeDeferredWarmStart(); snap != nil {
		if _, err := s.st.warmStart(s.st.ctx, s.current(), snap); err != nil { // cold is always correct
			s.st.logf("server: snapshot rejected after wal replay, starting cold: %v", err)
		}
	}
	return st, nil
}

// CloseWAL fsyncs and closes the write-ahead log. Call after the HTTP
// server has shut down; a no-op when no WAL is open. Close does this too.
func (s *Server) CloseWAL() error { return s.st.closeWAL() }

// handleMutate is POST /v1/admin/edges: validate, log, apply, ack — in
// that order, so an ack always implies durability. Writers are single-file:
// a batch arriving while another writer (or a reload) holds the admission
// lock is shed with 503 + Retry-After rather than queued, keeping the admin
// surface's backpressure visible to the caller. Readers of the log — a
// follower's tail poll, a state fetch — never hold that lock.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.st.walPath == "" {
		writeJSON(w, http.StatusNotImplemented,
			api.Error{Error: "mutations are disabled: no -wal-path configured", Code: "mutations_disabled"})
		return
	}
	if s.Draining() {
		writeJSON(w, http.StatusConflict, api.Error{Error: errDraining.Error(), Code: "draining"})
		return
	}
	if s.refuseNotPrimary(w) {
		return
	}
	var req api.EdgesRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest,
			api.Error{Error: "decoding mutation batch: " + err.Error(), Code: "bad_request"})
		return
	}
	if len(req.Ops) == 0 {
		writeJSON(w, http.StatusBadRequest,
			api.Error{Error: "mutation batch has no ops", Code: "bad_request"})
		return
	}
	if !s.st.admit.TryLock() {
		metMutationBackpressure.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable,
			api.Error{Error: "server: a mutation is already in flight", Code: "mutation_in_flight"})
		return
	}
	res, err := s.st.apply(r.Context(), wal.Batch{Key: req.Key, Ops: req.Ops}, false)
	s.st.admit.Unlock()
	switch {
	case errors.Is(err, errWALNotOpen):
		writeJSON(w, http.StatusServiceUnavailable, api.Error{Error: err.Error(), Code: "wal_not_open"})
		return
	case errors.Is(err, errWALAppend):
		writeJSON(w, http.StatusInternalServerError, api.Error{Error: err.Error(), Code: "wal_append_failed"})
		return
	case err != nil:
		writeError(w, err)
		return
	}
	body := api.EdgesAck{
		Status: "duplicate", Seq: res.seq,
		Fingerprint: fmt.Sprintf("%016x", res.es.fingerprint),
		WALBytes:    res.walBytes,
	}
	if !res.duplicate {
		metMutations.Inc()
		metMutationOps.Add(uint64(len(req.Ops)))
		body.Status, body.Rewarm = "applied", &res.rewarm
	}
	writeJSON(w, http.StatusOK, body)
}
