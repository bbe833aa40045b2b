package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hetesim/internal/hin"
)

// relevanceTestServer is testServer with custom options and four more
// authors, each with a paper at ICDE.
func relevanceTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
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
	for i := 0; i < 4; i++ {
		a, p := "a"+string(rune('0'+i)), "q"+string(rune('0'+i))
		b.AddEdge("writes", a, p)
		b.AddEdge("published_in", p, "ICDE")
	}
	srv := New(b.MustBuild(), opts...)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestRelevanceAutoPair(t *testing.T) {
	_, ts := relevanceTestServer(t)
	var body relevanceResponse
	postJSON(t, ts.URL+"/v1/relevance", map[string]any{
		"source": "Tom", "source_type": "author",
		"target": "Mary", "target_type": "author",
	}, http.StatusOK, &body)
	if body.Mode != "pair" || body.Score == nil {
		t.Fatalf("response = %+v", body)
	}
	if body.Partial {
		t.Fatalf("unexpected partial: %+v", body)
	}
	specs := map[string]bool{}
	var sum float64
	for _, ps := range body.Paths {
		specs[ps.Path] = true
		sum += ps.Weight * *ps.Score
	}
	if !specs["APA"] || !specs["APCPA"] {
		t.Fatalf("paths = %+v, want APA and APCPA enumerated", body.Paths)
	}
	if math.Abs(*body.Score-sum) > 1e-15 {
		t.Errorf("ensemble %v != weighted contribution sum %v", *body.Score, sum)
	}
	if *body.Score <= 0 {
		t.Errorf("HeteSim ensemble (Tom, Mary) = %v, want > 0 (they share p2)", *body.Score)
	}
}

func TestRelevanceAutoTopK(t *testing.T) {
	_, ts := testServer(t)
	var body relevanceResponse
	postJSON(t, ts.URL+"/v1/relevance", map[string]any{
		"source": "Tom", "source_type": "author",
		"target_type": "conference", "k": 2,
	}, http.StatusOK, &body)
	if body.Mode != "topk" || body.Score != nil {
		t.Fatalf("response = %+v", body)
	}
	if len(body.Results) == 0 {
		t.Fatal("no ranked results")
	}
	// Tom wrote p1 and p2, both at KDD; KDD must rank first.
	if body.Results[0].ID != "KDD" {
		t.Errorf("top conference = %q, want KDD", body.Results[0].ID)
	}
	for i := 1; i < len(body.Results); i++ {
		if body.Results[i].Score > body.Results[i-1].Score {
			t.Errorf("results not sorted at %d", i)
		}
	}
}

func TestRelevanceExplicitPathsAndTrace(t *testing.T) {
	_, ts := testServer(t)
	var body relevanceResponse
	postJSON(t, ts.URL+"/v1/relevance?trace=1", map[string]any{
		"source": "Tom", "source_type": "author",
		"target": "Mary", "target_type": "author",
		"paths": []string{"APA", "APCPA"},
	}, http.StatusOK, &body)
	if len(body.Paths) != 2 {
		t.Fatalf("paths = %+v", body.Paths)
	}
	if body.Trace == nil {
		t.Fatal("no trace")
	}
	want := map[string]bool{
		"decode": false, "enumerate": false, "score_paths": false,
		"combine": false, "batch_plan": false,
	}
	for _, sp := range body.Trace.Spans {
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace misses span %q", name)
		}
	}
}

func TestRelevanceValidation(t *testing.T) {
	_, ts := testServer(t)
	bad := []map[string]any{
		{"source_type": "author", "target_type": "author", "target": "Mary"}, // no source
		{"source": "Tom", "target_type": "author", "target": "Mary"},         // no source_type
		{"source": "Tom", "source_type": "author"},                           // no target_type
		{"source": "Tom", "source_type": "author", "target_type": "author", "max_len": 99},
		{"source": "Tom", "source_type": "author", "target_type": "author", "max_paths": 999},
		{"source": "Tom", "source_type": "author", "target_type": "author", "k": -1},
		{"source": "Tom", "source_type": "author", "target_type": "author", "weighting": "bogus"},
		{"source": "Tom", "source_type": "author", "target_type": "author", "weighting": "learned"}, // no weights configured
		{"source": "Tom", "source_type": "wizard", "target_type": "author"},
		{"source": "Tom", "source_type": "author", "target_type": "author",
			"paths": []string{"APC"}}, // wrong endpoints
	}
	for i, req := range bad {
		postJSON(t, ts.URL+"/v1/relevance", req, http.StatusBadRequest, nil)
		_ = i
	}
	// Unknown source node is 404, not 400.
	postJSON(t, ts.URL+"/v1/relevance", map[string]any{
		"source": "Nobody", "source_type": "author", "target_type": "author", "target": "Mary",
	}, http.StatusNotFound, nil)
	// No path between the types within the cap: paper→paper needs length 2,
	// which exists (PAP/PCP), but term-less schema has no author→author path
	// of length 1 — force it with max_len 1.
	postJSON(t, ts.URL+"/v1/relevance", map[string]any{
		"source": "Tom", "source_type": "author", "target_type": "author", "target": "Mary", "max_len": 1,
	}, http.StatusBadRequest, nil)
}

func TestRelevanceLearnedWeights(t *testing.T) {
	_, ts := relevanceTestServer(t, WithPathWeights(map[string]float64{"APA": 0.75, "APCPA": 0.25}))
	var body relevanceResponse
	postJSON(t, ts.URL+"/v1/relevance", map[string]any{
		"source": "Tom", "source_type": "author",
		"target": "Mary", "target_type": "author",
		"weighting": "learned",
	}, http.StatusOK, &body)
	if body.Weighting != "learned" {
		t.Fatalf("weighting = %q", body.Weighting)
	}
	for _, ps := range body.Paths {
		switch ps.Path {
		case "APA":
			if ps.Weight != 0.75 {
				t.Errorf("APA weight = %v", ps.Weight)
			}
		case "APCPA":
			if ps.Weight != 0.25 {
				t.Errorf("APCPA weight = %v", ps.Weight)
			}
		default:
			t.Errorf("unexpected path %s in learned ensemble", ps.Path)
		}
	}
}

// TestRelevancePartialPathFailure: per-path deadlines small enough to kill
// exact scoring produce a 200 partial answer (every path flagged) that
// carries no score: no path scored.
func TestRelevancePartialPathFailure(t *testing.T) {
	_, ts := relevanceTestServer(t, WithQueryTimeout(time.Nanosecond))
	var body relevanceResponse
	postJSON(t, ts.URL+"/v1/relevance", map[string]any{
		"source": "Tom", "source_type": "author",
		"target": "Mary", "target_type": "author",
	}, http.StatusOK, &body)
	if !body.Partial || body.Score != nil {
		t.Fatalf("response = %+v, want partial with no score", body)
	}
	for _, ps := range body.Paths {
		if ps.Error == "" || ps.Code != "path_failed" {
			t.Errorf("path %s = %+v, want flagged failure", ps.Path, ps)
		}
	}
}

func TestRelevanceStatsOptions(t *testing.T) {
	_, ts := relevanceTestServer(t, WithRelevanceLimits(6, 32))
	var stats struct {
		Options map[string]any `json:"options"`
	}
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Options["relevance_max_len"] != 6.0 || stats.Options["relevance_max_paths"] != 32.0 {
		t.Errorf("options = %v", stats.Options)
	}
}
