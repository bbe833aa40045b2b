package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hetesim/internal/hin"
)

// batchFixtureGraph rebuilds the testServer fixture graph for servers that
// need non-default options.
func batchFixtureGraph(t *testing.T) *hin.Graph {
	t.Helper()
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("conference", 'C')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("published_in", "paper", "conference")
	b := hin.NewBuilder(s)
	b.AddEdge("writes", "Tom", "p1")
	b.AddEdge("writes", "Tom", "p2")
	b.AddEdge("writes", "Mary", "p2")
	b.AddEdge("writes", "Mary", "p3")
	b.AddEdge("published_in", "p1", "KDD")
	b.AddEdge("published_in", "p2", "KDD")
	b.AddEdge("published_in", "p3", "SIGMOD")
	return b.MustBuild()
}

func postJSON(t *testing.T, url string, body any, wantStatus int, into any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s status = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
}

// TestBatchEndpoint drives POST /v1/batch end to end on the Fig. 4-style
// fixture and cross-checks every result against the matching GET endpoint.
func TestBatchEndpoint(t *testing.T) {
	_, ts := testServer(t)
	req := batchRequest{Queries: []batchQueryBody{
		{Kind: "pair", Path: "APC", Source: "Tom", Target: "KDD"},
		{Kind: "pair", Path: "APC", Source: "Tom", Target: "KDD", Raw: true},
		{Kind: "single_source", Path: "APC", Source: "Mary"},
		{Kind: "topk", Path: "APC", Source: "Mary", K: 2},
	}}
	var body batchResponse
	postJSON(t, ts.URL+"/v1/batch", req, http.StatusOK, &body)
	if len(body.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(body.Results))
	}
	for i, res := range body.Results {
		if res.Error != "" {
			t.Fatalf("slot %d: %s (%s)", i, res.Error, res.Code)
		}
	}

	// Slot 0 matches GET /v1/pair.
	var pair pairBody
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD", http.StatusOK, &pair)
	if body.Results[0].Score == nil || *body.Results[0].Score != pair.Score {
		t.Errorf("batch pair = %v, GET pair = %v", body.Results[0].Score, pair.Score)
	}
	// Slot 1 is the raw meeting probability (Example 2: 0.5).
	if body.Results[1].Score == nil || math.Abs(*body.Results[1].Score-0.5) > 1e-12 {
		t.Errorf("raw pair = %v, want 0.5", body.Results[1].Score)
	}
	// Slot 2: every single-source entry matches a GET pair query.
	for _, conf := range []string{"KDD", "SIGMOD"} {
		getJSON(t, ts.URL+"/v1/pair?path=APC&source=Mary&target="+conf, http.StatusOK, &pair)
		found := false
		for _, s := range body.Results[2].Scores {
			if s == pair.Score {
				found = true
			}
		}
		if !found {
			t.Errorf("single_source scores %v missing GET score %v for %s", body.Results[2].Scores, pair.Score, conf)
		}
	}
	// Slot 3 matches GET /v1/topk (scores are distinct: 1/√2 vs 1/2).
	var topk topKBody
	getJSON(t, ts.URL+"/v1/topk?path=APC&source=Mary&k=2", http.StatusOK, &topk)
	if len(body.Results[3].Results) != len(topk.Results) {
		t.Fatalf("batch topk %d hits, GET topk %d", len(body.Results[3].Results), len(topk.Results))
	}
	for r := range topk.Results {
		if body.Results[3].Results[r] != topk.Results[r] {
			t.Errorf("topk rank %d: batch %+v, GET %+v", r, body.Results[3].Results[r], topk.Results[r])
		}
	}

	// Raw and normalized differ at the last step only: all four APC queries,
	// the raw one included, share one group.
	if body.Stats.Queries != 4 || body.Stats.Groups != 1 {
		t.Errorf("stats = %+v, want 4 queries in 1 group", body.Stats)
	}
	if body.Stats.SharedQueries != 4 {
		t.Errorf("SharedQueries = %d, want 4", body.Stats.SharedQueries)
	}
	for i, res := range body.Results {
		if !res.Shared {
			t.Errorf("slot %d (raw %v) not shared", i, req.Queries[i].Raw)
		}
	}
	if body.Stats.DurationMS <= 0 {
		t.Errorf("DurationMS = %v", body.Stats.DurationMS)
	}
}

// TestBatchEndpointPartialErrors: bad slots carry their own error and
// machine-readable code while good slots still answer; the batch is 200.
func TestBatchEndpointPartialErrors(t *testing.T) {
	_, ts := testServer(t)
	req := batchRequest{Queries: []batchQueryBody{
		{Kind: "pair", Path: "APC", Source: "Tom", Target: "KDD"},
		{Kind: "pair", Path: "APC", Source: "Nobody", Target: "KDD"},
		{Kind: "ranked", Path: "APC", Source: "Tom"},
		{Kind: "pair", Path: "APC", Source: "Tom", Target: "KDD", Measure: "pcrw"},
		{Kind: "pair", Path: "AXC", Source: "Tom", Target: "KDD"},
		{Kind: "topk", Path: "APC", Source: "Tom", Eps: 1.5},
	}}
	var body batchResponse
	postJSON(t, ts.URL+"/v1/batch", req, http.StatusOK, &body)
	wantCodes := []string{"", "not_found", "bad_request", "bad_request", "bad_request", "bad_request"}
	for i, want := range wantCodes {
		got := body.Results[i]
		if got.Code != want {
			t.Errorf("slot %d: code = %q (error %q), want %q", i, got.Code, got.Error, want)
		}
		if want != "" && got.Error == "" {
			t.Errorf("slot %d: missing error message", i)
		}
	}
	if body.Results[0].Score == nil || math.Abs(*body.Results[0].Score-1) > 1e-12 {
		t.Errorf("good slot = %v, want 1", body.Results[0].Score)
	}
}

// TestBatchEndpointRejects covers the whole-batch 400s: malformed JSON,
// an empty query list, and a batch above the configured size limit.
func TestBatchEndpointRejects(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}

	var e errorBody
	postJSON(t, ts.URL+"/v1/batch", batchRequest{}, http.StatusBadRequest, &e)
	if e.Code != "bad_request" {
		t.Errorf("empty batch: code = %q", e.Code)
	}

	small := New(batchFixtureGraph(t), WithBatchLimits(2, 2))
	tiny := httptest.NewServer(small.Handler())
	defer tiny.Close()
	over := batchRequest{Queries: []batchQueryBody{
		{Kind: "pair", Path: "APC", Source: "Tom", Target: "KDD"},
		{Kind: "pair", Path: "APC", Source: "Mary", Target: "KDD"},
		{Kind: "pair", Path: "APC", Source: "Tom", Target: "SIGMOD"},
	}}
	postJSON(t, tiny.URL+"/v1/batch", over, http.StatusBadRequest, &e)
	if e.Code != "bad_request" || !strings.Contains(e.Error, "limit") {
		t.Errorf("oversize batch: %+v", e)
	}
}

// TestBatchEndpointTrace: ?trace=1 returns the per-stage spans of the
// batch plan and materialization alongside the results.
func TestBatchEndpointTrace(t *testing.T) {
	_, ts := testServer(t)
	req := batchRequest{Queries: []batchQueryBody{
		{Kind: "pair", Path: "APC", Source: "Tom", Target: "KDD"},
		{Kind: "pair", Path: "APC", Source: "Mary", Target: "KDD"},
	}}
	var body batchResponse
	postJSON(t, ts.URL+"/v1/batch?trace=1", req, http.StatusOK, &body)
	if body.Trace == nil {
		t.Fatal("no trace in response")
	}
	names := make(map[string]bool)
	for _, sp := range body.Trace.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"decode", "batch_plan", "batch_materialize"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
}
