package router

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"hetesim/internal/api"
	"hetesim/internal/obs"
)

// Primary election and the routed write path.
//
// The fleet has exactly one writer at a time. The router either has the
// primary pinned (WithPrimary) or elects it: among healthy, non-diverged
// replicas whose reported wal_seq has reached every write this router has
// acked (maxAckedSeq), keep the incumbent if still eligible (sticky —
// elections don't flap on probe jitter), otherwise take the highest
// wal_seq, tie-broken by lowest URL so concurrent routers converge on the
// same choice. Gating eligibility on maxAckedSeq is the no-lost-acks
// guarantee: a follower that has not replicated an acked delta can never
// be elected over it, so an acked write survives every failover the
// router performs — the fleet answers 503 until a caught-up candidate
// exists rather than silently forking history.
//
// POST /v1/admin/edges relays to the elected primary only — never fanned
// out, never retried onto a follower (a write that failed on the primary
// may or may not be durable; replaying it elsewhere could fork). During
// failover windows writes answer 503 with Retry-After and code
// "no_primary". Acks carry the committed wal_seq back to the client in
// X-Hetesim-WAL-Seq; a client that wants read-your-writes echoes it as
// X-Min-WAL-Seq on reads and the router only picks replicas at or past
// that sequence.

var (
	metDivergence = obs.Default().Gauge("hetesim_router_fingerprint_divergence",
		"Replicas whose fingerprint conflicts with the canonical one at the same wal_seq (self-reported or router-observed).")
	metWrites = obs.Default().CounterVec("hetesim_router_writes_total",
		"Routed writes, by outcome: relayed (acked by the primary), no_primary (failover window), upstream_error.", "outcome")
	metElections = obs.Default().Counter("hetesim_router_elections_total",
		"Primary changes, including the initial election.")
	metReplicaDiverged = obs.Default().GaugeVec("hetesim_router_replica_diverged",
		"1 when the replica is considered diverged from the fleet's canonical graph.", "replica")
)

// WithPrimary pins the write primary to one of the replica URLs instead
// of electing it. While the pinned replica is unhealthy the fleet has no
// primary (writes answer 503) — the router never fails writes over to a
// replica the operator did not name.
func WithPrimary(url string) Option { return func(r *Router) { r.pinnedPrimary = url } }

// WithMaxReadLag sets the replication lag beyond which a follower is
// deprioritized for reads (default 30s). It never excludes a replica —
// laggy beats down — it only orders them behind fresh ones.
func WithMaxReadLag(d time.Duration) Option { return func(r *Router) { r.maxReadLag = d } }

// electPrimary runs after every probe round, under probeAll's
// single-goroutine discipline (probes and elections never race each
// other; readers see the result through an atomic pointer).
func (r *Router) electPrimary() {
	var next *replica
	if r.pinnedPrimary != "" {
		for _, rep := range r.replicas {
			if rep.base == r.pinnedPrimary && rep.healthy.Load() {
				next = rep
			}
		}
	} else {
		floor := r.maxAckedSeq.Load()
		cur := r.primary.Load()
		eligible := func(rep *replica) bool {
			return rep.healthy.Load() && !rep.isDiverged() && rep.walSeq.Load() >= floor
		}
		if cur != nil && eligible(cur) {
			next = cur // sticky: the incumbent stays while eligible
		} else {
			for _, rep := range r.replicas {
				if !eligible(rep) {
					continue
				}
				if next == nil || rep.walSeq.Load() > next.walSeq.Load() ||
					(rep.walSeq.Load() == next.walSeq.Load() && rep.base < next.base) {
					next = rep
				}
			}
		}
	}
	prev := r.primary.Load()
	if prev != next {
		from, to := "none", "none"
		if prev != nil {
			from = prev.base
		}
		if next != nil {
			to = next.base
		}
		metElections.Inc()
		r.logf("router: primary %s -> %s (acked floor %d)", from, to, r.maxAckedSeq.Load())
	}
	r.primary.Store(next)
}

// detectDivergence cross-checks fingerprints after a probe round. Two
// healthy replicas at the same wal_seq serve the same deterministic graph
// by construction, so differing fingerprints at equal sequence mean one
// of them silently forked. The canonical fingerprint for a sequence group
// is the primary's when it is in the group, else the plurality (ties to
// the lexicographically smallest, so every router marks the same side).
// Replicas also self-report divergence in /readyz; either signal marks
// them, and the marks clear as soon as the conflict resolves (a diverged
// follower resyncs and its next probe matches).
func (r *Router) detectDivergence() {
	primary := r.primary.Load()
	groups := make(map[uint64][]*replica)
	for _, rep := range r.replicas {
		if rep.healthy.Load() && rep.fingerprint.Load().(string) != "" {
			groups[rep.walSeq.Load()] = append(groups[rep.walSeq.Load()], rep)
		}
	}
	for _, group := range groups {
		canon := ""
		counts := make(map[string]int)
		for _, rep := range group {
			fp := rep.fingerprint.Load().(string)
			counts[fp]++
			if rep == primary {
				canon = fp
			}
		}
		if canon == "" {
			for fp, n := range counts {
				if canon == "" || n > counts[canon] || (n == counts[canon] && fp < canon) {
					canon = fp
				}
			}
		}
		for _, rep := range group {
			rep.divergedObs.Store(len(counts) > 1 && rep.fingerprint.Load().(string) != canon)
		}
	}
	diverged := 0
	for _, rep := range r.replicas {
		d := rep.isDiverged()
		if d {
			diverged++
		}
		v := 0.0
		if d {
			v = 1
		}
		metReplicaDiverged.With(rep.base).Set(v)
	}
	metDivergence.Set(float64(diverged))
}

// handlePrimary answers GET /v1/admin/primary for followers in
// router-assigned mode: the elected primary's URL, or "" during a
// failover window (followers hold position and keep serving reads).
func (r *Router) handlePrimary(w http.ResponseWriter, _ *http.Request) {
	var body api.Primary
	if rep := r.primary.Load(); rep != nil {
		body.Primary = rep.base
	}
	writeJSON(w, http.StatusOK, body)
}

// handleWrite relays POST /v1/admin/edges to the primary — and only the
// primary — through the same one-attempt primitive reads use (tryOnce:
// breaker accounting, buffered body), exactly once.
func (r *Router) handleWrite(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		badRequest(w, "reading write body: "+err.Error())
		return
	}
	noPrimary := func(outcome, msg string) {
		metWrites.With(outcome).Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, api.Error{Error: msg, Code: "no_primary"})
	}
	rep := r.primary.Load()
	if rep == nil {
		noPrimary("no_primary", "no primary elected; retry after failover")
		return
	}
	res, err := r.tryOnce(req.Context(), rep, jsonPost("/v1/admin/edges", body), false)
	if err != nil {
		// The primary did not answer (or its answer was torn): the write's
		// durability is unknown, so do NOT replay it anywhere else. tryOnce
		// counted the failure toward the breaker/health picture; make the
		// client retry through the next election.
		noPrimary("upstream_error", "primary unreachable: "+err.Error())
		return
	}
	switch res.status {
	case http.StatusOK:
		var ack api.EdgesAck
		if json.Unmarshal(res.body, &ack) == nil && ack.Seq > 0 {
			storeMax(&r.maxAckedSeq, ack.Seq)
			// The primary serves this sequence right now; don't make
			// read-your-writes wait for the next probe to learn that.
			storeMax(&rep.walSeq, ack.Seq)
			w.Header().Set("X-Hetesim-WAL-Seq", strconv.FormatUint(ack.Seq, 10))
		}
		metWrites.With("relayed").Inc()
	case http.StatusServiceUnavailable:
		// Election race: the replica we relayed to no longer considers
		// itself primary (or is draining). Surface it as a failover window.
		metWrites.With("no_primary").Inc()
	default:
		metWrites.With("upstream_error").Inc()
	}
	writeResult(w, res)
}

// storeMax raises a to v unless a concurrent writer got there first.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// sortByFreshness stable-sorts a rendezvous order by staleness class —
// fresh (0), lagging past maxReadLag (1), diverged (2) — so cache
// affinity is preserved within a class but a diverged or badly lagging
// follower only serves reads when nothing better is alive.
func (r *Router) sortByFreshness(order []*replica) {
	classes := make(map[*replica]int, len(order))
	for _, rep := range order {
		classes[rep] = rep.staleClass(r.maxReadLag)
	}
	sort.SliceStable(order, func(i, j int) bool { return classes[order[i]] < classes[order[j]] })
}
