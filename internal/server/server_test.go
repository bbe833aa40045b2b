package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/rank"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
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
	srv := New(b.MustBuild())
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s status = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	var body map[string]string
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &body)
	if body["status"] != "ok" {
		t.Errorf("health = %v", body)
	}
}

func TestSchemaAndStats(t *testing.T) {
	_, ts := testServer(t)
	var schema schemaBody
	getJSON(t, ts.URL+"/v1/schema", http.StatusOK, &schema)
	if len(schema.Types) != 3 || len(schema.Relations) != 2 {
		t.Fatalf("schema = %+v", schema)
	}
	if schema.Types[0].Name != "author" || schema.Types[0].Count != 2 {
		t.Errorf("author type = %+v", schema.Types[0])
	}
	if schema.Relations[0].Edges != 4 {
		t.Errorf("writes edges = %d, want 4", schema.Relations[0].Edges)
	}
	var stats map[string]any
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats["nodes"] != 7.0 || stats["edges"] != 7.0 {
		t.Errorf("stats = %v", stats)
	}
}

func TestPairQuery(t *testing.T) {
	_, ts := testServer(t)
	var body pairBody
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD", http.StatusOK, &body)
	if math.Abs(body.Score-1) > 1e-12 {
		t.Errorf("HeteSim(Tom,KDD) = %v, want 1", body.Score)
	}
	if body.Measure != "hetesim" || body.Path != "APC" {
		t.Errorf("pair body = %+v", body)
	}
	// Raw meeting probability (Example 2 shape: both papers in KDD).
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD&raw=true", http.StatusOK, &body)
	if math.Abs(body.Score-0.5) > 1e-12 {
		t.Errorf("raw score = %v, want 0.5", body.Score)
	}
	// PCRW is asymmetric: A→C reaches 1.0 for Tom.
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD&measure=pcrw", http.StatusOK, &body)
	if math.Abs(body.Score-1) > 1e-12 {
		t.Errorf("pcrw = %v, want 1", body.Score)
	}
	// PathSim on the symmetric APA path.
	getJSON(t, ts.URL+"/v1/pair?path=APA&source=Tom&target=Mary&measure=pathsim", http.StatusOK, &body)
	if math.Abs(body.Score-0.5) > 1e-12 {
		t.Errorf("pathsim = %v, want 0.5", body.Score)
	}
}

func TestTopKQuery(t *testing.T) {
	_, ts := testServer(t)
	var body topKBody
	getJSON(t, ts.URL+"/v1/topk?path=APC&source=Mary&k=2", http.StatusOK, &body)
	if len(body.Results) != 2 {
		t.Fatalf("results = %+v", body.Results)
	}
	// Mary has one paper in each conference, but SIGMOD's entire paper
	// set is hers (cosine 1/√2) while she shares KDD with Tom (cosine
	// 1/2), so SIGMOD leads.
	if body.Results[0].ID != "SIGMOD" {
		t.Errorf("top result = %+v", body.Results[0])
	}
	if !(body.Results[0].Score > body.Results[1].Score) {
		t.Errorf("scores not ordered: %+v", body.Results)
	}
	// Default k.
	getJSON(t, ts.URL+"/v1/topk?path=APC&source=Tom", http.StatusOK, &body)
	if len(body.Results) != 2 { // only two conferences exist
		t.Errorf("default-k results = %d", len(body.Results))
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var body explainBody
	getJSON(t, ts.URL+"/v1/explain?path=APC&queries=500", http.StatusOK, &body)
	if body.Path != "APC" || body.Queries != 500 {
		t.Errorf("explain = %+v", body)
	}
	if len(body.Plans) != 3 {
		t.Fatalf("plans = %d, want 3", len(body.Plans))
	}
	for i := 1; i < len(body.Plans); i++ {
		if body.Plans[i].Flops < body.Plans[i-1].Flops {
			t.Error("plans not cheapest-first")
		}
	}
	if body.Report == "" {
		t.Error("empty report")
	}
	var e errorBody
	getJSON(t, ts.URL+"/v1/explain", http.StatusBadRequest, &e)
	getJSON(t, ts.URL+"/v1/explain?path=APC&queries=0", http.StatusBadRequest, &e)
	getJSON(t, ts.URL+"/v1/explain?path=AXC", http.StatusBadRequest, &e)
}

func TestWhyEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var body whyBody
	getJSON(t, ts.URL+"/v1/why?path=APC&source=Tom&target=KDD&k=5", http.StatusOK, &body)
	if body.Score <= 0 || len(body.Contributions) != 2 {
		t.Fatalf("why = %+v", body)
	}
	var fracSum float64
	for _, c := range body.Contributions {
		if c.Label != "p1" && c.Label != "p2" {
			t.Errorf("unexpected meeting object %q", c.Label)
		}
		fracSum += c.Fraction
	}
	if math.Abs(fracSum-1) > 1e-9 {
		t.Errorf("fractions sum to %v", fracSum)
	}
	var e errorBody
	getJSON(t, ts.URL+"/v1/why?path=APC&source=Tom", http.StatusBadRequest, &e)
	getJSON(t, ts.URL+"/v1/why?path=APC&source=Tom&target=KDD&measure=pcrw", http.StatusBadRequest, &e)
	getJSON(t, ts.URL+"/v1/why?path=APC&source=Tom&target=KDD&k=0", http.StatusBadRequest, &e)
	getJSON(t, ts.URL+"/v1/why?path=APC&source=Nobody&target=KDD", http.StatusNotFound, &e)
}

func TestErrorMapping(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		url    string
		status int
	}{
		{"/v1/pair?path=APC&source=Tom", http.StatusBadRequest},             // missing target
		{"/v1/pair?source=Tom&target=KDD", http.StatusBadRequest},           // missing path
		{"/v1/pair?path=APC&target=KDD", http.StatusBadRequest},             // missing source
		{"/v1/pair?path=AXC&source=Tom&target=KDD", http.StatusBadRequest},  // bad path
		{"/v1/pair?path=APC&source=Nobody&target=KDD", http.StatusNotFound}, // unknown node
		{"/v1/pair?path=APC&source=Tom&target=ICML", http.StatusNotFound},   // unknown target
		{"/v1/pair?path=APC&source=Tom&target=KDD&measure=x", http.StatusBadRequest},
		{"/v1/pair?path=APC&source=Tom&target=KDD&measure=pcrw&raw=true", http.StatusBadRequest},
		{"/v1/pair?path=APC&source=Tom&target=KDD&raw=zzz", http.StatusBadRequest},
		{"/v1/topk?path=APC&source=Tom&k=0", http.StatusBadRequest},
		{"/v1/topk?path=APC&source=Tom&k=x", http.StatusBadRequest},
		{"/v1/pair?path=APC&source=Tom&target=KDD&measure=pathsim", http.StatusBadRequest}, // asymmetric path
	}
	for _, c := range cases {
		var e errorBody
		getJSON(t, ts.URL+c.url, c.status, &e)
		if e.Error == "" {
			t.Errorf("%s: empty error body", c.url)
		}
	}
}

func TestConcurrentRequests(t *testing.T) {
	_, ts := testServer(t)
	done := make(chan error, 16)
	for w := 0; w < 16; w++ {
		go func() {
			for i := 0; i < 20; i++ {
				resp, err := http.Get(ts.URL + "/v1/topk?path=APC&source=Tom")
				if err != nil {
					done <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 16; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDenseTopKNamesOnlyWinners pins the allocations of the one hit namer
// every top-k answer goes through: it must resolve the k winners by index,
// not copy the target type's whole id table (16 bytes a node) to name them
// — and must not build its padding set when there is nothing to pad.
func TestDenseTopKNamesOnlyWinners(t *testing.T) {
	const n, k = 20000, 10
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddRelation("writes", "author", "paper")
	b := hin.NewBuilder(s)
	for i := 0; i < n; i++ {
		b.AddEdge("writes", "a", "p"+strconv.Itoa(i))
	}
	g := b.MustBuild()
	scores := make([]float64, n)
	top := make([]core.Scored, k)
	for i := range scores {
		scores[i] = float64(i % 97)
	}
	for i := range top {
		top[i] = core.Scored{Index: 96 + 97*i, Score: 96}
	}
	bytesPerRun := func(f func()) uint64 {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	var dense, padded []hitBody
	idTable := uint64(n * 16)
	rankDense := func() []core.Scored { // what execute does for pcrw / pathsim
		sel := rank.NewSelector(k)
		for i, v := range scores {
			sel.Push(i, v)
		}
		return sel.Ranked()
	}
	if got := bytesPerRun(func() { dense = namedHits(g, "paper", rankDense(), 0) }); got > idTable/16 {
		t.Errorf("namedHits allocates %d B/op; the id table it must not copy is %d B", got, idTable)
	}
	if got := bytesPerRun(func() { padded = namedHits(g, "paper", top, k) }); got > idTable/16 {
		t.Errorf("namedHits allocates %d B/op with nothing to pad", got)
	}
	for i := range top {
		want := hitBody{ID: "p" + strconv.Itoa(96+97*i), Score: 96}
		if dense[i] != want || padded[i] != want {
			t.Errorf("hit %d: dense %+v, engine %+v, want %+v", i, dense[i], padded[i], want)
		}
	}
}
