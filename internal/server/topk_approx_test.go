package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"hetesim/internal/hin"
	"hetesim/internal/snapshot"
)

func approxGraph(t *testing.T) *hin.Graph {
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
	b.AddEdge("writes", "Bob", "p3")
	b.AddEdge("writes", "Bob", "p4")
	b.AddEdge("published_in", "p1", "KDD")
	b.AddEdge("published_in", "p2", "KDD")
	b.AddEdge("published_in", "p3", "SIGMOD")
	b.AddEdge("published_in", "p4", "ICDM")
	return b.MustBuild()
}

// Forcing ?plan=topk-approx must report the plan as forced and
// approximate, and on a graph where the rank clamps to the full middle
// dimension its scores (and, at full rank, its ranking) are identical to
// the automatic exact plan — the re-rank runs the exact operators.
func TestTopKApproxForcedMatchesExact(t *testing.T) {
	srv := New(approxGraph(t))
	ts := serveHTTP(t, srv)

	var auto topKBody
	getJSON(t, ts.URL+"/v1/topk?path=APCPA&source=Tom&k=3", http.StatusOK, &auto)
	if auto.Plan == nil || auto.Plan.Kind == "topk-approx" {
		t.Fatalf("auto plan = %+v, expected an exact kind", auto.Plan)
	}
	if auto.Approximate {
		t.Fatal("auto topk reported approximate")
	}

	var body topKBody
	getJSON(t, ts.URL+"/v1/topk?path=APCPA&source=Tom&k=3&plan=topk-approx", http.StatusOK, &body)
	if body.Plan == nil || body.Plan.Kind != "topk-approx" || !body.Plan.Forced {
		t.Fatalf("forced plan = %+v, want forced topk-approx", body.Plan)
	}
	if !body.Approximate {
		t.Error("topk-approx response not marked approximate")
	}
	if len(body.Results) != len(auto.Results) {
		t.Fatalf("results = %+v, auto = %+v", body.Results, auto.Results)
	}
	for i := range body.Results {
		if body.Results[i] != auto.Results[i] {
			t.Errorf("result[%d] = %+v, auto = %+v (scores must be bit-identical)",
				i, body.Results[i], auto.Results[i])
		}
	}

	// The build is cached: a second forced query serves from the warm
	// embedding and still agrees.
	var again topKBody
	getJSON(t, ts.URL+"/v1/topk?path=APCPA&source=Tom&k=3&plan=topk-approx", http.StatusOK, &again)
	for i := range again.Results {
		if again.Results[i] != auto.Results[i] {
			t.Errorf("warm result[%d] = %+v, auto = %+v", i, again.Results[i], auto.Results[i])
		}
	}
	if n := srv.current().engine.EmbeddingCount(); n == 0 {
		t.Error("forced topk-approx query built no embedding")
	}
}

func serveHTTP(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestTopKErrorBudgetParam pins the knob's validation: a legal budget is
// accepted on hetesim topk, out-of-range and wrong-measure uses are 400s.
func TestTopKErrorBudgetParam(t *testing.T) {
	srv := New(approxGraph(t))
	ts := serveHTTP(t, srv)

	var body topKBody
	getJSON(t, ts.URL+"/v1/topk?path=APCPA&source=Tom&k=2&plan=topk-approx&error_budget=0.5", http.StatusOK, &body)
	if body.Plan == nil || body.Plan.Kind != "topk-approx" {
		t.Fatalf("plan = %+v", body.Plan)
	}

	var e errorBody
	getJSON(t, ts.URL+"/v1/topk?path=APCPA&source=Tom&error_budget=1.5", http.StatusBadRequest, &e)
	getJSON(t, ts.URL+"/v1/topk?path=APCPA&source=Tom&error_budget=0", http.StatusBadRequest, &e)
	getJSON(t, ts.URL+"/v1/topk?path=APCPA&source=Tom&error_budget=nope", http.StatusBadRequest, &e)
	getJSON(t, ts.URL+"/v1/topk?path=APCPA&source=Tom&measure=pcrw&error_budget=0.1", http.StatusBadRequest, &e)
}

// TestStatsReportsTopKErrorBudget: the configured default budget shows up
// in /v1/stats options so a stats snapshot is interpretable on its own.
func TestStatsReportsTopKErrorBudget(t *testing.T) {
	srv := New(approxGraph(t), WithTopKErrorBudget(0.1))
	ts := serveHTTP(t, srv)
	var stats struct {
		Options map[string]any `json:"options"`
	}
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if got, ok := stats.Options["topk_error_budget"].(float64); !ok || got != 0.1 {
		t.Fatalf("options[topk_error_budget] = %v, want 0.1", stats.Options["topk_error_budget"])
	}
}

// TestSnapshotPersistsEmbeddings: an embedding built by a forced
// topk-approx query survives SaveSnapshot and warms a second server, which
// then answers identically without rebuilding.
func TestSnapshotPersistsEmbeddings(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "chains.snap")

	first := New(approxGraph(t), WithSnapshotPath(snapPath), WithLogf(t.Logf))
	fts := serveHTTP(t, first)
	var want topKBody
	getJSON(t, fts.URL+"/v1/topk?path=APCPA&source=Tom&k=3&plan=topk-approx", http.StatusOK, &want)
	if first.current().engine.EmbeddingCount() == 0 {
		t.Fatal("no embedding built to persist")
	}
	if err := first.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}

	second := New(approxGraph(t), WithSnapshotPath(snapPath), WithLogf(t.Logf))
	warm, err := second.WarmStart()
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("warm start reported cold")
	}
	if second.current().engine.EmbeddingCount() == 0 {
		t.Fatal("warm start restored no embeddings")
	}
	sts := serveHTTP(t, second)
	var got topKBody
	getJSON(t, sts.URL+"/v1/topk?path=APCPA&source=Tom&k=3&plan=topk-approx", http.StatusOK, &got)
	if len(got.Results) != len(want.Results) {
		t.Fatalf("warm results = %+v, want %+v", got.Results, want.Results)
	}
	for i := range got.Results {
		if got.Results[i] != want.Results[i] {
			t.Errorf("warm result[%d] = %+v, want %+v", i, got.Results[i], want.Results[i])
		}
	}
}

// TestSnapshotShipsEmbeddings: GET /v1/admin/snapshot carries the embed:
// sections the on-disk snapshot does, so a joiner warmed over HTTP answers
// its first forced topk-approx query without an embed_build span and with
// hits bit-identical to the donor's.
func TestSnapshotShipsEmbeddings(t *testing.T) {
	const q = "/v1/topk?path=APCPA&source=Tom&k=3&plan=topk-approx&trace=1"
	donor := New(approxGraph(t), WithLogf(t.Logf))
	dts := serveHTTP(t, donor)
	var want topKBody
	getJSON(t, dts.URL+q, http.StatusOK, &want)
	built := false
	for _, sp := range want.Trace.Spans {
		built = built || sp.Name == "embed_build"
	}
	if !built {
		t.Fatal("donor's cold topk-approx query shows no embed_build span; the test proves nothing")
	}

	resp, err := http.Get(dts.URL + "/v1/admin/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Read(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	joiner := New(approxGraph(t), WithLogf(t.Logf))
	if n, err := joiner.ImportSnapshot(snap); err != nil || n == 0 {
		t.Fatalf("importing shipped snapshot: n=%d err=%v", n, err)
	}
	var got topKBody
	getJSON(t, serveHTTP(t, joiner).URL+q, http.StatusOK, &got)
	for _, sp := range got.Trace.Spans {
		if sp.Name == "embed_build" {
			t.Fatal("joiner rebuilt the embedding: the shipped snapshot dropped its embed: sections")
		}
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("joiner results = %+v, donor = %+v", got.Results, want.Results)
	}
	for i := range got.Results {
		if got.Results[i] != want.Results[i] {
			t.Errorf("joiner result[%d] = %+v, donor = %+v", i, got.Results[i], want.Results[i])
		}
	}
}
