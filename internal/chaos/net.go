package chaos

// Network fault injection for the scale-out layer: a switchable
// net.Listener wrapper that models a replica dying (refused connections,
// killed established connections, mid-body resets) and an http.RoundTripper
// wrapper that injects the same faults from the client side (refused
// dials, added latency, response bodies that reset mid-stream). Both are
// toggled at runtime so a test can kill a replica mid-request and revive
// it later, and both are deterministic: faults fire on explicit counters,
// never on randomness. Inproc takes the socket out altogether, so a fleet
// under test runs step by step in one goroutine.

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"
)

// Listener wraps a net.Listener with runtime-switchable fault injection.
// While refusing, every newly accepted connection is closed immediately —
// from the client's side an instant connection reset, the signature of a
// crashed or restarting replica. ResetAfter arms per-connection resets:
// each accepted connection is torn down after writing n bytes, modelling a
// replica dying mid-response. CloseActive kills connections already
// established (HTTP keep-alive pools hold those open long after the
// listener starts refusing).
type Listener struct {
	inner net.Listener

	refuse     atomic.Bool
	resetAfter atomic.Int64 // bytes written per conn before reset; 0 = off

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// WrapListener wraps l. The returned listener injects no faults until
// Refuse or ResetAfter arm them.
func WrapListener(l net.Listener) *Listener {
	return &Listener{inner: l, conns: make(map[net.Conn]struct{})}
}

// Refuse starts (or stops) refusing new connections. Accepted connections
// are closed immediately while on, so the serving loop keeps running but
// every client sees its connection die.
func (l *Listener) Refuse(on bool) { l.refuse.Store(on) }

// ResetAfter arms mid-body resets: every connection accepted from now on is
// closed after n bytes have been written to it. 0 disarms.
func (l *Listener) ResetAfter(n int64) { l.resetAfter.Store(n) }

// CloseActive closes every currently tracked established connection —
// the keep-alive half of killing a replica.
func (l *Listener) CloseActive() {
	l.mu.Lock()
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.inner.Accept()
		if err != nil {
			return nil, err
		}
		if l.refuse.Load() {
			c.Close()
			continue
		}
		fc := &faultConn{Conn: c, l: l, resetAt: l.resetAfter.Load()}
		l.mu.Lock()
		l.conns[fc] = struct{}{}
		l.mu.Unlock()
		return fc, nil
	}
}

// Close implements net.Listener.
func (l *Listener) Close() error { return l.inner.Close() }

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

func (l *Listener) forget(c net.Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

// faultConn is one accepted connection; it resets (closes the underlying
// socket) once resetAt bytes have been written, and also dies as soon as
// its listener starts refusing, so in-flight requests on kept-alive
// connections fail like the fresh ones do.
type faultConn struct {
	net.Conn
	l       *Listener
	resetAt int64 // 0 = never
	written int64
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.l.refuse.Load() {
		c.Close()
		return 0, ErrInjected
	}
	if c.resetAt > 0 {
		remain := c.resetAt - c.written
		if remain <= 0 {
			c.Close()
			return 0, ErrInjected
		}
		if int64(len(p)) > remain {
			n, _ := c.Conn.Write(p[:remain])
			c.written += int64(n)
			c.Close()
			return n, ErrInjected
		}
	}
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	return n, err
}

func (c *faultConn) Close() error {
	c.l.forget(c)
	return c.Conn.Close()
}

// Transport wraps an http.RoundTripper with client-side fault injection:
// refused dials for the next N calls, fixed added latency, and response
// bodies that reset after a byte budget for the next N responses. It is
// safe for concurrent use; fault counters are consumed atomically so a
// parallel test gets exactly the number of faults it armed.
type Transport struct {
	// Base performs real round trips; http.DefaultTransport when nil.
	Base http.RoundTripper

	failNext    atomic.Int64 // calls to refuse before any I/O
	latency     atomic.Int64 // nanoseconds added before each round trip
	resetBodies atomic.Int64 // responses whose bodies should reset
	resetBytes  atomic.Int64 // bytes delivered before a reset body fails
}

// FailNext makes the next n round trips fail with ErrInjected before any
// bytes are sent — a refused connection.
func (t *Transport) FailNext(n int64) { t.failNext.Store(n) }

// Latency adds d before every round trip (0 disables).
func (t *Transport) Latency(d time.Duration) { t.latency.Store(int64(d)) }

// ResetBodyAfter makes the next n response bodies fail with ErrInjected
// after delivering the first max bytes — a connection reset mid-body.
func (t *Transport) ResetBodyAfter(max, n int64) {
	t.resetBytes.Store(max)
	t.resetBodies.Store(n)
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	for {
		n := t.failNext.Load()
		if n <= 0 {
			break
		}
		if t.failNext.CompareAndSwap(n, n-1) {
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, ErrInjected
		}
	}
	if d := t.latency.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	for {
		n := t.resetBodies.Load()
		if n <= 0 {
			break
		}
		if t.resetBodies.CompareAndSwap(n, n-1) {
			resp.Body = &resetBody{r: FailReader(resp.Body, t.resetBytes.Load(), nil), c: resp.Body}
			break
		}
	}
	return resp, nil
}

// resetBody delivers a bounded prefix of the real body, then fails.
type resetBody struct {
	r interface{ Read([]byte) (int, error) }
	c interface{ Close() error }
}

func (b *resetBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *resetBody) Close() error               { return b.c.Close() }

// Inproc is an http.RoundTripper serving a fleet from in-process handlers
// keyed by URL host: replica base URLs are fixed names, so rendezvous order
// — and with it which replica's cache a request warms — is the same on
// every run, and no socket is involved. A round trip runs the handler to
// completion on the caller's goroutine. A host with no handler refuses the
// connection. Wrap it in a Transport (as Base) to tear its bodies.
type Inproc map[string]http.Handler

// RoundTrip implements http.RoundTripper.
func (p Inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	h := p[req.URL.Host]
	if h == nil {
		return nil, fmt.Errorf("chaos: inproc connection to %s refused", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}
