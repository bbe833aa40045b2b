package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"hetesim/internal/api"
	"hetesim/internal/obs"
	"hetesim/internal/wal"
)

// Primary/follower replication. The primary is the one replica that accepts
// POST /v1/admin/edges; it exposes its write-ahead log as a tail-read
// stream (GET /v1/admin/wal?from=seq) and its serving generation as a full
// resync source (GET /v1/admin/state, state.go). A follower polls the tail,
// records each batch in its own log at the primary-assigned sequence, and
// applies it through the same incremental path a direct mutation takes — so
// /readyz's wal_seq means the same thing fleet-wide and scores converge
// bit-identically (HeteSim is deterministic over a given graph). When the
// follower's sequence reaches the stream head, fingerprints must match;
// a mismatch is divergence: counted, flagged at /readyz, and self-healed
// by a full resync, which is also the fallback when the requested sequence
// was compacted away (HTTP 410).
var (
	metWALTailStreams = obs.Default().Counter("hetesim_wal_tail_streams_total",
		"Replication tail reads served over GET /v1/admin/wal.")
	metWALTailCompacted = obs.Default().Counter("hetesim_wal_tail_compacted_total",
		"Tail reads refused with 410 because the requested sequence was compacted away.")
	metFollowPulls = obs.Default().Counter("hetesim_follower_pulls_total",
		"Replication pulls issued by follower mode.")
	metFollowBatches = obs.Default().Counter("hetesim_follower_batches_total",
		"Mutation batches applied from a replication stream.")
	metFollowResyncs = obs.Default().Counter("hetesim_follower_resyncs_total",
		"Full state resyncs performed by follower mode (compaction overrun or divergence).")
	metFollowDivergence = obs.Default().Counter("hetesim_follower_divergence_total",
		"Divergence detected by follower mode: a fingerprint mismatch at stream head, or a replicated batch the local graph refuses.")
	metNotPrimary = obs.Default().Counter("hetesim_mutation_not_primary_total",
		"Mutation batches refused because this replica is a follower.")
)

const (
	defaultTailBatches = 256  // batches per tail read unless ?max= says otherwise
	maxTailBatches     = 1024 // hard cap per tail read, bounding state-lock hold time
	maxPullsPerTick    = 64   // catch-up pulls per follower tick before yielding
	maxTailBytes       = 1 << 31
)

// handleWALTail is GET /v1/admin/wal?from=seq[&max=n]: stream the log's
// batches from the given sequence in the CRC-framed replication format,
// fingerprint- and head-stamped. 410 means the sequence was compacted away
// and the follower must full-resync. The read takes the store's state lock
// but never the writers' admission lock: a poll can delay a write by one
// small scan (bounded by max), never shed it.
func (s *Server) handleWALTail(w http.ResponseWriter, r *http.Request) {
	if s.st.walPath == "" {
		writeJSON(w, http.StatusNotImplemented,
			api.Error{Error: "replication is disabled: no -wal-path configured", Code: "mutations_disabled"})
		return
	}
	v := r.URL.Query()
	from, err := intParam(v, "from", 1, 0)
	if err != nil {
		writeError(w, err)
		return
	}
	maxBatches, err := intParam(v, "max", defaultTailBatches, 1)
	if err != nil {
		writeError(w, err)
		return
	}

	stream, floor, err := s.st.tail(uint64(from), min(maxBatches, maxTailBatches))
	switch {
	case errors.Is(err, errWALNotOpen):
		writeJSON(w, http.StatusServiceUnavailable, api.Error{Error: err.Error(), Code: "wal_not_open"})
		return
	case errors.Is(err, wal.ErrCompacted):
		metWALTailCompacted.Inc()
		w.Header().Set("X-Hetesim-WAL-Floor", strconv.FormatUint(floor, 10))
		writeJSON(w, http.StatusGone,
			api.Error{Error: err.Error() + "; fetch /v1/admin/state and re-follow", Code: "compacted"})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError,
			api.Error{Error: "reading wal tail: " + err.Error(), Code: "wal_tail_failed"})
		return
	}
	raw, err := wal.EncodeStream(stream)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError,
			api.Error{Error: "encoding wal stream: " + err.Error(), Code: "wal_tail_failed"})
		return
	}
	metWALTailStreams.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Hetesim-Fingerprint", fmt.Sprintf("%016x", stream.Fingerprint))
	w.Header().Set("X-Hetesim-WAL-Seq", strconv.FormatUint(stream.Head, 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	w.Write(raw)
}

// FollowerOptions configures RunFollower.
type FollowerOptions struct {
	// Target is what the follower polls: the primary's base URL directly,
	// or a router's base URL — the follower asks GET /v1/admin/primary
	// first and follows whatever the router elected (a target without that
	// endpoint is taken to be the primary itself).
	Target string
	// Self is this replica's advertised base URL. When the router elects
	// this very replica primary, follower mode stands down and the replica
	// accepts writes. Empty means "never primary".
	Self string
	// Interval is the poll cadence (default 1s).
	Interval time.Duration
	// MaxBatch bounds batches per pull (default 256).
	MaxBatch int
	// Client issues the HTTP requests (default: 30s-timeout client).
	Client *http.Client
	// Logf overrides the server's logger (WithLogf) for follower messages.
	Logf func(string, ...any)
}

// Follower-internal sentinels: all mean "incremental catch-up cannot
// proceed; full-resync from the primary".
var (
	errFollowerBehind   = errors.New("server: follower is behind the primary's compaction horizon")
	errFollowerDiverged = errors.New("server: follower diverged: fingerprint mismatch at stream head")
	errFollowerForked   = errors.New("server: follower holds sequences past the primary's head")
)

// RunFollower pulls the primary's WAL tail every interval and applies it,
// blocking until ctx is canceled. It owns the replica's replication state:
// /readyz gains follows, replication_lag_seconds and diverged fields, and
// POST /v1/admin/edges refuses with 503/not_primary unless the router
// elected this replica primary. Call after OpenWAL (the local log position
// is where following resumes). When ctx ends it returns once the tick in
// flight has stopped; the one thing it can leave running is the background
// rebuild of a resync it performed, which the server owns: Close cancels
// that rebuild and waits for it.
func (s *Server) RunFollower(ctx context.Context, o FollowerOptions) {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = defaultTailBatches
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Logf == nil {
		o.Logf = s.st.logf
	}
	s.publish(followState{})
	t := time.NewTicker(o.Interval)
	defer t.Stop()
	for {
		s.followTick(ctx, o)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// followState is the replica's replication role as the follower loop last
// resolved it. It is immutable and published whole behind Server.follow —
// once when a tick has resolved who the primary is, once more when a pull
// changes the catch-up outcome — so /readyz and the write gate can never
// observe parts of two different roles.
type followState struct {
	acting   bool      // the router elected this very replica: it accepts writes
	primary  string    // base URL being followed; "" = none elected, or acting
	caughtUp time.Time // last confirmed fingerprint-matching catch-up; zero = never
	diverged bool      // the last stream-head comparison failed
}

// publish makes st — a copy, immutable from here on — the replica's role.
func (s *Server) publish(st followState) { s.follow.Store(&st) }

// followTick is one resolve-pull-apply cycle.
func (s *Server) followTick(ctx context.Context, o FollowerOptions) {
	primary, err := s.resolvePrimary(ctx, o)
	if err != nil {
		o.Logf("server: follower: resolving primary via %s: %v", o.Target, err)
		return
	}
	st := *s.follow.Load()
	if o.Self != "" && primary == o.Self {
		// The router elected us: stand down as follower, accept writes.
		s.publish(followState{acting: true, caughtUp: time.Now()})
		return
	}
	// Following primary — or, in a failover window (primary == ""), nobody:
	// hold position and keep serving reads at the current sequence. The
	// role goes out before the first pull, so a deposed primary refuses
	// writes from here on.
	st.acting, st.primary = false, primary
	s.publish(st)
	if primary == "" {
		return
	}

	for i := 0; i < maxPullsPerTick && ctx.Err() == nil; i++ {
		caughtUp := false
		stream, err := s.pullTail(ctx, o, primary)
		if err == nil {
			caughtUp, err = s.applyStream(ctx, stream)
		}
		switch {
		case errors.Is(err, errFollowerBehind), errors.Is(err, errFollowerDiverged), errors.Is(err, errFollowerForked):
			if !errors.Is(err, errFollowerBehind) {
				st.diverged = true
				s.publish(st)
				metFollowDivergence.Inc()
			}
			o.Logf("server: follower: %v; full resync from %s", err, primary)
			if rerr := s.resyncFromPrimary(ctx, o, primary); rerr != nil {
				o.Logf("server: follower: resync from %s: %v", primary, rerr)
			}
			return
		case err != nil:
			o.Logf("server: follower: replicating from %s: %v", primary, err)
			return
		case caughtUp:
			st.diverged, st.caughtUp = false, time.Now()
			s.publish(st)
			return
		}
	}
}

// get issues one GET on the follower's client and returns the status and
// the body, read up to limit bytes.
func (o FollowerOptions) get(ctx context.Context, url string, limit int64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := o.Client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	return resp.StatusCode, body, err
}

// resolvePrimary asks the target who the primary is. A target without the
// endpoint (a plain replica, or an old router) is itself the primary.
func (s *Server) resolvePrimary(ctx context.Context, o FollowerOptions) (string, error) {
	status, raw, err := o.get(ctx, o.Target+"/v1/admin/primary", 1<<16)
	if err != nil {
		return "", err
	}
	if status == http.StatusNotFound {
		return o.Target, nil
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("GET /v1/admin/primary: status %d", status)
	}
	var body api.Primary
	if err := json.Unmarshal(raw, &body); err != nil {
		return "", fmt.Errorf("decoding primary response: %w", err)
	}
	return body.Primary, nil
}

// pullTail fetches one bounded tail read from the primary. 410 means the
// follower's position predates the primary's retained floor:
// errFollowerBehind.
func (s *Server) pullTail(ctx context.Context, o FollowerOptions, primary string) (*wal.Stream, error) {
	metFollowPulls.Inc()
	status, body, err := o.get(ctx, fmt.Sprintf("%s/v1/admin/wal?from=%d&max=%d", primary, s.current().seq+1, o.MaxBatch), maxTailBytes)
	switch {
	case err != nil:
		return nil, err
	case status == http.StatusGone:
		return nil, errFollowerBehind
	case status != http.StatusOK:
		return nil, fmt.Errorf("GET /v1/admin/wal: status %d: %s", status, truncateBody(body))
	}
	return wal.DecodeStream(body)
}

func truncateBody(b []byte) string {
	const n = 256
	if len(b) > n {
		b = b[:n]
	}
	return string(bytes.TrimSpace(b))
}

// applyStream applies one replication pull through the store, holding the
// writers' admission lock so no reload interleaves. Batches at or below the
// local position are skipped (overlap is harmless); a gap, a local position
// past the stream head, a batch the local graph rejects, or a fingerprint
// mismatch once caught up all abort — the first is a protocol violation, the
// rest are forks, and every fork resolves by full resync. Returns whether
// the follower is now caught up to the stream's head.
func (s *Server) applyStream(ctx context.Context, st *wal.Stream) (bool, error) {
	s.st.admit.Lock()
	defer s.st.admit.Unlock()
	es := s.current()
	if es.seq > st.Head {
		// We hold acked-but-never-replicated history from a deposed primary
		// incarnation (or the fleet was rebuilt under us).
		return false, fmt.Errorf("%w: local seq %d, primary head %d", errFollowerForked, es.seq, st.Head)
	}
	for _, b := range st.Batches {
		if b.Seq <= es.seq {
			continue
		}
		if b.Seq != es.seq+1 {
			return false, fmt.Errorf("server: replication gap: have %d, stream jumps to %d", es.seq, b.Seq)
		}
		res, err := s.st.apply(ctx, b, false)
		switch {
		case errors.Is(err, errWALAppend), errors.Is(err, errWALNotOpen):
			return false, fmt.Errorf("server: applying replicated batch %d: %w", b.Seq, err)
		case err != nil:
			// The primary's graph took the batch and ours refuses it.
			return false, fmt.Errorf("%w: replicated batch %d does not apply: %v", errFollowerDiverged, b.Seq, err)
		}
		if !res.duplicate {
			metFollowBatches.Inc()
		}
		es = res.es
	}
	if es.seq < st.Head {
		return false, nil
	}
	if es.fingerprint != st.Fingerprint {
		return false, fmt.Errorf("%w: local %016x, primary %016x at seq %d",
			errFollowerDiverged, es.fingerprint, st.Fingerprint, es.seq)
	}
	return true, nil
}

// resyncFromPrimary replaces the follower's generation wholesale with the
// primary's: one GET /v1/admin/state, whose graph and sequence adopt
// publishes as one generation (durable base first, then log rebind, then
// serve), and whose path list joins the follower's own for the background
// rebuild that follows.
func (s *Server) resyncFromPrimary(ctx context.Context, o FollowerOptions, primary string) error {
	metFollowResyncs.Inc()
	state, err := fetchState(ctx, o.Client, primary)
	if err != nil {
		return err
	}
	g, seq, err := decodeState(state)
	if err != nil {
		return err
	}
	s.st.admit.Lock()
	_, err = s.st.adopt(g, seq, state)
	s.st.admit.Unlock()
	if err != nil {
		return err
	}
	o.Logf("server: follower: resynced from %s at seq %d (fingerprint %016x, warming %d paths)", primary, seq, state.Fingerprint, len(s.st.specList()))
	return nil
}

// FollowingPrimary reports the primary this replica currently follows, ""
// when none is elected, this replica is itself primary, or follower mode
// is off.
func (s *Server) FollowingPrimary() string {
	if st := s.follow.Load(); st != nil {
		return st.primary
	}
	return ""
}

// Diverged reports whether the last stream-head fingerprint comparison
// failed and the follower has not yet converged again.
func (s *Server) Diverged() bool {
	st := s.follow.Load()
	return st != nil && st.diverged
}

// AcceptsWrites reports whether a mutation posted directly to this
// replica would be admitted: always for a standalone daemon, and for a
// follower-configured one only while it holds the primary election.
func (s *Server) AcceptsWrites() bool {
	st := s.follow.Load()
	return st == nil || st.acting
}

// refuseNotPrimary answers a mutation with 503/not_primary when this
// replica runs follower mode and has not been elected primary. The
// X-Hetesim-Primary header names the place to write, when known.
func (s *Server) refuseNotPrimary(w http.ResponseWriter) bool {
	st := s.follow.Load()
	if st == nil || st.acting {
		return false
	}
	metNotPrimary.Inc()
	if st.primary != "" {
		w.Header().Set("X-Hetesim-Primary", st.primary)
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable,
		api.Error{Error: "this replica is a follower; send writes to the primary (or through the router)", Code: "not_primary"})
	return true
}

// describe adds the replication view to a /readyz body: nothing in
// standalone mode (st == nil), the role alone while acting as the elected
// primary, and as a follower the primary it follows, how stale it may be
// (seconds since it last confirmed catch-up; -1 = never yet) and whether it
// detected divergence. Absence of the fields is what tells the router "not
// a follower, rank by other signals".
func (st *followState) describe(body *api.Ready) {
	switch {
	case st == nil:
	case st.acting:
		body.Role = "primary"
	default:
		lag := -1.0
		if !st.caughtUp.IsZero() {
			lag = time.Since(st.caughtUp).Seconds()
		}
		body.Role, body.Follows, body.ReplicationLag, body.Diverged = "follower", &st.primary, &lag, &st.diverged
	}
}
