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
// the router, so a change that adds a parse, a map or a copy per request
// fails here. The routed counts include this test's in-process transport and
// response recorder.
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
		WithClient(&http.Client{Transport: Inproc{"replica0": srv.Handler()}}),
		WithSchema(goldenGraph().Schema()),
		WithHealthInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rt.Start(ctx)
	t.Cleanup(rt.Close)

	for _, tc := range []struct {
		name    string
		h       http.Handler
		target  string
		ceiling float64
	}{
		{"direct pair", srv.Handler(), "/v1/pair?path=APCPA&source=Tom&target=Bob", pinnedAllocs.directPair},
		{"direct topk", srv.Handler(), "/v1/topk?path=APC&source=Tom&k=3", pinnedAllocs.directTopK},
		{"routed pair", rt.Handler(), "/v1/pair?path=APCPA&source=Tom&target=Bob", pinnedAllocs.routedPair},
		{"routed topk", rt.Handler(), "/v1/topk?path=APC&source=Tom&k=3", pinnedAllocs.routedTopK},
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
		t.Logf("%s: %.0f allocs/request (pinned %.0f)", tc.name, got, tc.ceiling)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs/request, above the pinned count of %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// pinnedAllocs holds TestWarmQueryAllocs' counts as measured (go1.24,
// linux/amd64) on the commit that deleted the topk-approx plan: top-k planning
// stopped building an embedding cache key per request (132 → 128 direct,
// 196 → 192 routed); the pair counts are what they were before it.
var pinnedAllocs = struct{ directPair, directTopK, routedPair, routedTopK float64 }{
	directPair: 109, directTopK: 128, routedPair: 175, routedTopK: 192,
}
