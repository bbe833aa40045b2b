package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"hetesim/internal/api"
	"hetesim/internal/obs"
)

// Hot-reload observability (swaps, failures) in the process-wide registry;
// the snapshot lifecycle's metrics live with the store.
var (
	metReloads = obs.Default().Counter("hetesim_reload_total",
		"Successful atomic graph hot-reloads.")
	metReloadErrors = obs.Default().Counter("hetesim_reload_errors_total",
		"Hot-reloads that failed validation and left the old graph serving.")
)

// ReadyState is the server's readiness lifecycle, exposed at /readyz.
type ReadyState int32

const (
	// StateCold: constructed, no warmup started; not ready for traffic.
	StateCold ReadyState = iota
	// StateWarming: background materialization running; not ready.
	StateWarming
	// StateReady: serving normally.
	StateReady
	// StateReloading: serving from the old graph while a replacement is
	// validated off to the side; still ready for traffic.
	StateReloading
	// StateReplaying: boot-time write-ahead-log replay running; the graph
	// is still catching up to its last acked mutation, so not ready.
	StateReplaying
)

func (s ReadyState) String() string {
	switch s {
	case StateCold:
		return "cold"
	case StateWarming:
		return "warming"
	case StateReady:
		return "ready"
	case StateReloading:
		return "reloading"
	case StateReplaying:
		return "replaying"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// current returns the engine set serving new requests. Handlers call it
// once per request and thread the result, never re-resolving mid-query.
func (s *Server) current() *engineSet { return s.st.cur.Load() }

// State returns the server's readiness lifecycle state.
func (s *Server) State() ReadyState { return ReadyState(s.state.Load()) }

func (s *Server) setState(st ReadyState) { s.state.Store(int32(st)) }

// MarkReady flips the server to StateReady. The daemon calls it (directly
// or via PrecomputeBackground) once boot-time warmup is complete.
func (s *Server) MarkReady() { s.setState(StateReady) }

// Ready reports whether the server should receive traffic: ready, or
// reloading (the old graph keeps serving during a reload).
func (s *Server) Ready() bool {
	st := s.State()
	return st == StateReady || st == StateReloading
}

// WarmStart rebuilds, before the server takes traffic, the relevance paths
// the configured snapshot lists, and remembers them like -precompute paths.
// It returns true when it built at least one; a missing snapshot file, or
// one older builds wrote (chain sections, no path list), is a normal cold
// start (false, nil). A snapshot that fails checksum, version or
// fingerprint validation is rejected with a reason, counted in
// hetesim_snapshot_corrupt_total, and warms nothing (false, error) — except
// that, while a write-ahead log is configured and not yet open, a snapshot
// of another fingerprint is what a clean restart after a write finds (the
// file names the post-write graph, the log not replayed yet): it is kept
// for OpenWAL, which warms from it after replay or rejects it then.
func (s *Server) WarmStart() (bool, error) {
	snap, err := s.st.loadSnapshot()
	if snap == nil {
		return false, err
	}
	if s.st.deferWarmStart(snap) {
		return false, nil
	}
	n, err := s.st.warmStart(s.st.ctx, s.current(), snap)
	return n > 0, err
}

// WarmFrom fetches a peer's state from base+/v1/admin/state and, when the
// state's fingerprint is the serving graph's, rebuilds the paths it lists
// before returning — the -warm-from boot path, for a replica without a log
// to follow. The peer's graph and wal_seq are never adopted. It returns how
// many paths it built; the state of a different graph is rejected whole.
func (s *Server) WarmFrom(ctx context.Context, base string) (int, error) {
	state, err := fetchState(ctx, http.DefaultClient, base)
	if err != nil {
		return 0, err
	}
	return s.st.warmStart(ctx, s.current(), state)
}

// SaveSnapshot writes the remembered relevance paths crash-safely to the
// configured snapshot path, under the serving graph's fingerprint.
// Concurrent calls (post-warm-up, shutdown) serialize; the previous
// snapshot survives any failure.
func (s *Server) SaveSnapshot() error { return s.st.saveSnapshot() }

// BeginDrain puts the server into shutdown drain: in-flight and new
// queries keep being answered (the HTTP server's own Shutdown bounds
// that), but mutations and reloads are refused with 409 from here on, so
// no graph swap races the drain. Drain is one-way.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close ends the server's lifecycle: it begins the drain, cancels and waits
// for every goroutine the server started (the boot warm-up, the rebuild a
// reload or a resync started), saves the spec list when a snapshot path is
// configured, and closes the write-ahead log. Call it after the HTTP
// listener has shut down and any RunFollower has returned; when it returns
// nothing the server started is running or writing. Idempotent.
func (s *Server) Close() {
	s.BeginDrain()
	s.st.close()
}

// ReloadResult summarizes a successful hot-reload.
type ReloadResult struct {
	Nodes       int           `json:"nodes"`
	Edges       int           `json:"edges"`
	Fingerprint string        `json:"fingerprint"`
	Duration    time.Duration `json:"-"`
	DurationMS  float64       `json:"duration_ms"`
}

var (
	// errReloadBusy reports a reload attempted while another is in flight.
	errReloadBusy = errors.New("server: reload already in progress")
	// errDraining marks mutations and reloads refused during shutdown drain.
	errDraining = errors.New("server: draining, mutating requests refused")
)

// Reload atomically replaces the served graph: it re-reads the configured
// graph file, builds and fully validates a fresh engine set off to the
// side, then publishes it and rebuilds the remembered paths in the
// background. In-flight queries finish against the set they started
// with; new requests see the new graph. Any failure leaves the old set
// serving untouched. The reload holds the writers' admission lock across
// its whole read-build-publish window, so a batch acked mid-reload can
// neither be clobbered from the serving graph nor silently undo the reload;
// concurrent client writes are shed with 503 + Retry-After for the duration.
func (s *Server) Reload(ctx context.Context) (*ReloadResult, error) {
	if s.st.graphPath == "" {
		return nil, errors.New("server: no reload graph source configured")
	}
	if s.Draining() {
		return nil, errDraining
	}
	if !s.st.reloading.CompareAndSwap(false, true) {
		return nil, errReloadBusy
	}
	defer s.st.reloading.Store(false)
	s.st.admit.Lock()
	defer s.st.admit.Unlock()

	if s.state.CompareAndSwap(int32(StateReady), int32(StateReloading)) {
		defer s.setState(StateReady)
	}
	start := time.Now()
	res, err := s.reload(ctx)
	if err != nil {
		metReloadErrors.Inc()
		return nil, err
	}
	res.Duration = time.Since(start)
	res.DurationMS = float64(res.Duration) / float64(time.Millisecond)
	metReloads.Inc()
	return res, nil
}

func (s *Server) reload(ctx context.Context) (*ReloadResult, error) {
	// With mutations enabled, the graph file on disk may trail the served
	// graph by the log's batches: fold the log into a fresh base first, so
	// the re-read below starts from the acked state instead of dropping
	// logged mutations.
	if err := s.st.compact(); err != nil {
		return nil, err
	}
	g, err := s.st.readGraph()
	if err != nil {
		return nil, fmt.Errorf("server: reload: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	next, err := s.st.adopt(g, s.current().seq, nil)
	if err != nil {
		return nil, fmt.Errorf("server: reload: %w", err)
	}
	return &ReloadResult{
		Nodes:       g.TotalNodes(),
		Edges:       g.TotalEdges(),
		Fingerprint: fmt.Sprintf("%016x", next.fingerprint),
	}, nil
}

// handleReload is POST /v1/admin/reload: trigger a hot-reload and report
// the outcome. 409 when a reload is already running, 500 when the new
// graph fails validation (the old graph keeps serving).
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	res, err := s.Reload(r.Context())
	if err != nil {
		if errors.Is(err, errReloadBusy) {
			writeJSON(w, http.StatusConflict, api.Error{Error: err.Error(), Code: "reload_in_progress"})
			return
		}
		if errors.Is(err, errDraining) {
			writeJSON(w, http.StatusConflict, api.Error{Error: err.Error(), Code: "draining"})
			return
		}
		writeJSON(w, http.StatusInternalServerError, api.Error{Error: err.Error(), Code: "reload_failed"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "reload": res})
}
