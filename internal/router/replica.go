package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetesim/internal/api"
)

// breaker states. A replica's breaker opens after a run of consecutive
// failures, sheds all traffic for a cooldown, then admits a single
// half-open probe; the probe's outcome closes or re-opens it.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

func breakerStateName(s int32) string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	}
	return fmt.Sprintf("state(%d)", s)
}

// latencyWindow keeps the most recent request durations for one replica
// and answers quantile queries over them — the source of the hedging
// delay. Fixed-size ring under a mutex; reads copy out.
type latencyWindow struct {
	mu   sync.Mutex
	buf  []time.Duration
	next int
	full bool
}

func newLatencyWindow(n int) *latencyWindow {
	if n <= 0 {
		n = 128
	}
	return &latencyWindow{buf: make([]time.Duration, n)}
}

func (w *latencyWindow) observe(d time.Duration) {
	w.mu.Lock()
	w.buf[w.next] = d
	w.next = (w.next + 1) % len(w.buf)
	if w.next == 0 {
		w.full = true
	}
	w.mu.Unlock()
}

// quantile returns the q-th latency quantile over the window, 0 when the
// window is empty.
func (w *latencyWindow) quantile(q float64) time.Duration {
	w.mu.Lock()
	n := w.next
	if w.full {
		n = len(w.buf)
	}
	s := make([]time.Duration, n)
	copy(s, w.buf[:n])
	w.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(n-1))
	return s[i]
}

// replica is the router's view of one hetesimd backend: its base URL,
// health as last probed at /readyz, circuit-breaker state, recent latency,
// and the freshness signals (wal_seq, fingerprint) the backend reports.
type replica struct {
	base string // normalized base URL, no trailing slash

	healthy atomic.Bool

	// Freshness as of the last successful probe (walSeq is also raised by
	// write acks the router relays to this replica as primary).
	walSeq      atomic.Uint64
	fingerprint atomic.Value // string

	// Replication view, as self-reported in /readyz. lagMS is -1 for
	// replicas that are not following anyone (a plain replica or the acting
	// primary) and for followers that have never caught up.
	follows      atomic.Value // string; "" when not a follower
	lagMS        atomic.Int64
	divergedSelf atomic.Bool // the replica flagged itself diverged
	divergedObs  atomic.Bool // the router's fingerprint cross-check flagged it

	lat *latencyWindow

	// Breaker. consecFails and openedAt are guarded by mu; state is atomic
	// so the hot path reads it without locking.
	state     atomic.Int32
	mu        sync.Mutex
	fails     int
	openedAt  time.Time
	threshold int
	cooldown  time.Duration
}

func newReplica(base string, threshold int, cooldown time.Duration) *replica {
	r := &replica{
		base:      strings.TrimRight(base, "/"),
		threshold: threshold,
		cooldown:  cooldown,
		lat:       newLatencyWindow(256),
	}
	r.fingerprint.Store("")
	r.follows.Store("")
	r.lagMS.Store(-1)
	return r
}

// isDiverged reports whether either signal — the replica's own admission
// or the router's fingerprint cross-check — marks this replica as forked
// from the fleet's canonical graph.
func (r *replica) isDiverged() bool {
	return r.divergedSelf.Load() || r.divergedObs.Load()
}

// staleClass buckets the replica for read ranking: 0 fresh, 1 lagging
// beyond maxLag (or a follower that has never caught up), 2 diverged.
// Order within a class is left to rendezvous hashing.
func (r *replica) staleClass(maxLag time.Duration) int {
	if r.isDiverged() {
		return 2
	}
	if r.follows.Load().(string) != "" {
		lag := r.lagMS.Load()
		if lag < 0 || time.Duration(lag)*time.Millisecond > maxLag {
			return 1
		}
	}
	return 0
}

// allow reports whether the breaker admits a request right now. An open
// breaker past its cooldown transitions to half-open and admits exactly
// one probe; concurrent callers see half-open and are refused until the
// probe reports back.
func (r *replica) allow(now time.Time, transitioned func(to string)) bool {
	switch r.state.Load() {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state.Load() != breakerOpen {
		return false
	}
	if now.Sub(r.openedAt) < r.cooldown {
		return false
	}
	r.state.Store(breakerHalfOpen)
	if transitioned != nil {
		transitioned("half_open")
	}
	return true
}

// onSuccess records a served request: failures reset, and a half-open
// probe's success closes the breaker.
func (r *replica) onSuccess(transitioned func(to string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails = 0
	if st := r.state.Load(); st != breakerClosed {
		r.state.Store(breakerClosed)
		if transitioned != nil {
			transitioned("closed")
		}
	}
}

// onFailure records a failed request: a half-open probe's failure reopens
// immediately; in closed state the threshold-th consecutive failure opens.
func (r *replica) onFailure(now time.Time, transitioned func(to string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails++
	st := r.state.Load()
	if st == breakerHalfOpen || (st == breakerClosed && r.threshold > 0 && r.fails >= r.threshold) {
		r.state.Store(breakerOpen)
		r.openedAt = now
		if transitioned != nil {
			transitioned("open")
		}
	}
}

// probe refreshes the replica's health from GET /readyz: 200 marks it
// healthy and records the freshness signals; anything else (including
// transport failure) marks it unhealthy. Returns the new health.
func (r *replica) probe(ctx context.Context, client *http.Client) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/readyz", nil)
	if err != nil {
		r.healthy.Store(false)
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		r.healthy.Store(false)
		return false
	}
	defer resp.Body.Close()
	// The replication fields only appear on follower-configured replicas;
	// their absence means "not a follower" (nil, not zero).
	var body api.Ready
	if json.NewDecoder(resp.Body).Decode(&body) == nil {
		r.walSeq.Store(body.WALSeq)
		r.fingerprint.Store(body.Fingerprint)
		follows := ""
		if body.Follows != nil {
			follows = *body.Follows
		}
		r.follows.Store(follows)
		if body.ReplicationLag != nil && *body.ReplicationLag >= 0 {
			r.lagMS.Store(int64(*body.ReplicationLag * 1000))
		} else {
			r.lagMS.Store(-1)
		}
		r.divergedSelf.Store(body.Diverged != nil && *body.Diverged)
	}
	ok := resp.StatusCode == http.StatusOK
	r.healthy.Store(ok)
	return ok
}

// hedgeDelay derives when a hedge should fire against this replica: its
// p99 latency, clamped to [minD, maxD].
func (r *replica) hedgeDelay(minD, maxD time.Duration) time.Duration {
	d := r.lat.quantile(0.99)
	if d < minD {
		d = minD
	}
	if maxD > 0 && d > maxD {
		d = maxD
	}
	return d
}
