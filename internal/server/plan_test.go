package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hetesim/internal/hin"
)

// planTestServer is a small A-P-C server built with the given options.
func planTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
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
	srv := New(b.MustBuild(), opts...)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// Forcing each exact plan through ?plan= must return the same score the
// automatic plan picks, and the response must report what ran.
func TestPlanOverrideExactKindsAgree(t *testing.T) {
	_, ts := testServer(t)
	var auto pairBody
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD", http.StatusOK, &auto)
	if auto.Plan == nil {
		t.Fatal("auto pair response has no plan info")
	}
	if auto.Plan.Forced {
		t.Errorf("auto plan reported forced: %+v", auto.Plan)
	}
	for _, kind := range []string{"pair-vectors", "single-vs-matrix", "all-pairs"} {
		var body pairBody
		getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD&plan="+kind, http.StatusOK, &body)
		if body.Score != auto.Score {
			t.Errorf("plan=%s score = %v, auto = %v (must be identical)", kind, body.Score, auto.Score)
		}
		if body.Plan == nil || body.Plan.Kind != kind || !body.Plan.Forced {
			t.Errorf("plan=%s response plan = %+v", kind, body.Plan)
		}
	}
}

func TestPlanOverrideTopK(t *testing.T) {
	_, ts := testServer(t)
	var auto topKBody
	getJSON(t, ts.URL+"/v1/topk?path=APC&source=Mary&k=2", http.StatusOK, &auto)
	if auto.Plan == nil {
		t.Fatal("auto topk response has no plan info")
	}
	for _, kind := range []string{"single-vs-matrix", "all-pairs"} {
		var body topKBody
		getJSON(t, ts.URL+"/v1/topk?path=APC&source=Mary&k=2&plan="+kind, http.StatusOK, &body)
		if body.Plan == nil || body.Plan.Kind != kind || !body.Plan.Forced {
			t.Fatalf("plan=%s topk plan = %+v", kind, body.Plan)
		}
		if len(body.Results) != len(auto.Results) {
			t.Fatalf("plan=%s results = %+v, auto = %+v", kind, body.Results, auto.Results)
		}
		for i := range body.Results {
			if body.Results[i] != auto.Results[i] {
				t.Errorf("plan=%s result[%d] = %+v, auto = %+v", kind, i, body.Results[i], auto.Results[i])
			}
		}
	}
}

func TestPlanOverrideErrors(t *testing.T) {
	_, ts := testServer(t)
	var e errorBody
	// Unknown plan name.
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD&plan=nonsense", http.StatusBadRequest, &e)
	// Plan override only applies to hetesim.
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD&measure=pcrw&plan=all-pairs", http.StatusBadRequest, &e)
	// pair-vectors produces a single score, not a ranking.
	getJSON(t, ts.URL+"/v1/topk?path=APC&source=Mary&k=2&plan=pair-vectors", http.StatusBadRequest, &e)
}

// TestPlanForcedMonteCarlo: every answer is exact, so monte-carlo is not a
// plan: forcing it on /v1/pair or /v1/topk is refused as an unknown plan, the
// same 400 that any other unknown name gets.
func TestPlanForcedMonteCarlo(t *testing.T) {
	_, ts := planTestServer(t)
	for _, target := range []string{
		"/v1/pair?path=APC&source=Tom&target=KDD&plan=monte-carlo",
		"/v1/topk?path=APC&source=Tom&k=2&plan=monte-carlo",
	} {
		var e errorBody
		getJSON(t, ts.URL+target, http.StatusBadRequest, &e)
		if e.Code != "bad_request" || !strings.Contains(e.Error, `unknown plan "monte-carlo"`) {
			t.Errorf("%s: %+v, want bad_request for an unknown plan", target, e)
		}
	}
}

func TestDefaultPlanOption(t *testing.T) {
	_, ts := planTestServer(t, WithDefaultPlan("all-pairs"))
	var body pairBody
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD", http.StatusOK, &body)
	if body.Plan == nil || body.Plan.Kind != "all-pairs" || !body.Plan.Forced {
		t.Fatalf("plan = %+v, want forced all-pairs via server default", body.Plan)
	}
	// An explicit ?plan= still wins over the server default.
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD&plan=pair-vectors", http.StatusOK, &body)
	if body.Plan == nil || body.Plan.Kind != "pair-vectors" {
		t.Fatalf("plan = %+v, want pair-vectors override", body.Plan)
	}
}

func TestStatsReportsPlanSelections(t *testing.T) {
	_, ts := testServer(t)
	var pair pairBody
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD", http.StatusOK, &pair)
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD&plan=all-pairs", http.StatusOK, &pair)
	var stats struct {
		Plans map[string]uint64 `json:"plans"`
	}
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Plans == nil {
		t.Fatal("stats has no plans map")
	}
	var total uint64
	for _, v := range stats.Plans {
		total += v
	}
	if total < 2 {
		t.Errorf("plan selections = %v, want at least 2 total", stats.Plans)
	}
	if stats.Plans["all-pairs"] < 1 {
		t.Errorf("plans[all-pairs] = %v, want >= 1 after forced query", stats.Plans)
	}
}

func TestTracePlanSelectAttrs(t *testing.T) {
	_, ts := testServer(t)
	var body pairBody
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD&plan=all-pairs&trace=1", http.StatusOK, &body)
	if body.Trace == nil {
		t.Fatal("no trace in response")
	}
	found := false
	for _, sp := range body.Trace.Spans {
		if sp.Name != "plan_select" {
			continue
		}
		found = true
		if sp.Attrs["kind"] != "all-pairs" {
			t.Errorf("plan_select kind = %q, want all-pairs", sp.Attrs["kind"])
		}
		if sp.Attrs["est_flops"] == "" {
			t.Errorf("plan_select span missing est_flops: %+v", sp.Attrs)
		}
		if sp.Attrs["forced"] != "true" {
			t.Errorf("plan_select forced = %q, want true", sp.Attrs["forced"])
		}
	}
	if !found {
		t.Fatalf("no plan_select span in trace: %+v", body.Trace.Spans)
	}
}

func TestBatchPlanUnaffected(t *testing.T) {
	// The batch endpoint schedules its own path groups; a sanity query
	// confirms the optimizer refactor did not change batch scoring.
	_, ts := testServer(t)
	var pair pairBody
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD", http.StatusOK, &pair)
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"queries":[{"kind":"pair","path":"APC","source":"Tom","target":"KDD"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var out struct {
		Results []struct {
			Score *float64 `json:"score"`
			Error string   `json:"error"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Score == nil || *out.Results[0].Score != pair.Score {
		t.Fatalf("batch = %+v, pair score = %v", out, pair.Score)
	}
}
