package router

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hetesim/internal/server"
)

// TestWarmQueryAllocs pins the allocation count of the thin plane around a
// warm query: decode → resolve → plan → encode on the replica, and relay on
// the router. The ceilings are the counts measured on the commit before the
// query plane was collapsed into one pipeline (same test, same fixture), so
// the collapse is shown not to have added a parse, a map or a copy per
// request. The routed counts include this test's in-process transport and
// response recorder, identically on both commits.
func TestWarmQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	srv := server.New(goldenGraph(), server.WithLogf(t.Logf))
	t.Cleanup(srv.Close)
	for _, spec := range []string{"APCPA", "APC"} {
		if err := srv.Precompute(spec); err != nil {
			t.Fatal(err)
		}
	}
	srv.MarkReady()
	rt, err := New([]string{"http://replica0"},
		WithClient(&http.Client{Transport: inproc{"replica0": srv.Handler()}}),
		WithSchema(goldenGraph().Schema()),
		WithHealthInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rt.Start(ctx)

	for _, tc := range []struct {
		name    string
		h       http.Handler
		target  string
		ceiling float64
	}{
		{"direct pair", srv.Handler(), "/v1/pair?path=APCPA&source=Tom&target=Bob", parentAllocs.directPair},
		{"direct topk", srv.Handler(), "/v1/topk?path=APC&source=Tom&k=3", parentAllocs.directTopK},
		{"routed pair", rt.Handler(), "/v1/pair?path=APCPA&source=Tom&target=Bob", parentAllocs.routedPair},
		{"routed topk", rt.Handler(), "/v1/topk?path=APC&source=Tom&k=3", parentAllocs.routedTopK},
	} {
		serve := func() {
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.target, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", tc.name, rec.Code, rec.Body)
			}
		}
		for i := 0; i < 5; i++ {
			serve() // warm: plan flips to the materialized chains, pools fill
		}
		got := testing.AllocsPerRun(200, serve)
		t.Logf("%s: %.0f allocs/request (parent %.0f)", tc.name, got, tc.ceiling)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs/request, above the pre-refactor count of %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// parentAllocs holds TestWarmQueryAllocs' counts as measured on the parent
// commit (ce36c71, go1.24, linux/amd64).
var parentAllocs = struct{ directPair, directTopK, routedPair, routedTopK float64 }{
	directPair: 119, directTopK: 143, routedPair: 185, routedTopK: 207,
}
