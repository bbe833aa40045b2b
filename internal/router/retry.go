// Package router is the fault-tolerant scale-out front for hetesimd: it
// consistent-hashes query traffic across N replicas by canonical relevance
// path (rendezvous hashing), so each replica's chain cache stays hot on a
// disjoint path set — the serving-layer dual of Property 2's half-chain
// factorization. Around that placement it layers the machinery that keeps
// the fleet answering when individual replicas degrade: /readyz-driven
// health checks, bounded retries with exponential backoff + jitter
// (honoring Retry-After), optional hedged reads after a p99-derived delay,
// per-replica circuit breakers, and graceful degradation to any healthy
// replica when the hash owner is down. Batch requests are split into one
// sub-batch per replica order, fanned out, and re-assembled slot-for-slot;
// failure stays per-slot, never whole-request.
package router

import (
	"context"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// RetryPolicy bounds how a transient failure is retried: up to Retries
// extra attempts, waiting Base·2^attempt (with jitter) between them, each
// wait capped at MaxWait. A server-provided Retry-After overrides the
// computed backoff, still capped at MaxWait so a misbehaving upstream
// cannot park the client for minutes.
type RetryPolicy struct {
	Retries int           // extra attempts after the first; 0 disables retry
	Base    time.Duration // first backoff step (default 100ms)
	MaxWait time.Duration // cap on any single wait (default 5s)
}

// withDefaults fills the zero durations.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.MaxWait <= 0 {
		p.MaxWait = 5 * time.Second
	}
	return p
}

// RetryableStatus reports whether an HTTP status indicates a transient
// condition worth retrying: shed load (429), and the bad-gateway family a
// dying or restarting replica produces (502/503/504).
func RetryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// ParseRetryAfter interprets a Retry-After header value — delta seconds or
// an HTTP date — as a wait duration. 0, false when absent or malformed.
func ParseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// Wait computes how long to sleep before retry attempt (1-based):
// retryAfter when the server provided one, else Base·2^(attempt-1) plus up
// to 100% jitter — desynchronizing a thundering herd of retriers — with
// either capped at MaxWait.
func (p RetryPolicy) Wait(attempt int, retryAfter time.Duration) time.Duration {
	p = p.withDefaults()
	if retryAfter > 0 {
		return min(retryAfter, p.MaxWait)
	}
	d := p.Base << uint(attempt-1)
	if d <= 0 || d > p.MaxWait {
		d = p.MaxWait
	}
	d += rand.N(d)
	return min(d, p.MaxWait)
}

// Do performs one HTTP request under the policy. mkReq builds a fresh
// request per attempt (a consumed body cannot be resent); transport errors
// and retryable statuses are retried with backoff until the attempts run
// out, at which point the last response (or error) is returned as-is. A
// non-retryable response is returned immediately, success or not. The
// caller owns the returned response body.
func (p RetryPolicy) Do(ctx context.Context, client *http.Client, mkReq func() (*http.Request, error)) (*http.Response, error) {
	if client == nil {
		client = http.DefaultClient
	}
	p = p.withDefaults()
	var (
		resp *http.Response
		err  error
	)
	for attempt := 0; ; attempt++ {
		var req *http.Request
		req, err = mkReq()
		if err != nil {
			return nil, err
		}
		resp, err = client.Do(req.WithContext(ctx))
		retryAfter := time.Duration(0)
		if err == nil {
			if !RetryableStatus(resp.StatusCode) {
				return resp, nil
			}
			if ra, ok := ParseRetryAfter(resp.Header.Get("Retry-After")); ok {
				retryAfter = ra
			}
		}
		if attempt >= p.Retries {
			return resp, err
		}
		if resp != nil {
			// Drain so the connection can be reused for the retry.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(p.Wait(attempt+1, retryAfter)):
		}
	}
}
