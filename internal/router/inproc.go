package router

import (
	"fmt"
	"net/http"
	"net/http/httptest"
)

// Inproc is an http.RoundTripper serving from in-process handlers keyed by
// URL host. A round trip runs the handler to completion on the caller's
// goroutine and no socket is involved, so a fleet under test runs step by
// step with fixed replica names — rendezvous order, and with it which
// replica's cache a request warms, is the same on every run — and the CLI's
// local modes are clients of a server.Handler() in their own process. A host
// with no handler refuses the connection. Wrap it in a chaos.Transport (as
// Base) to tear its bodies.
type Inproc map[string]http.Handler

// RoundTrip implements http.RoundTripper.
func (p Inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	h := p[req.URL.Host]
	if h == nil {
		return nil, fmt.Errorf("router: inproc connection to %s refused", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}
