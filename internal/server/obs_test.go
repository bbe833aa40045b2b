package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"hetesim/internal/hin"
	"hetesim/internal/obs"
)

// scrapeMetrics fetches GET /metrics, validates every line against the
// Prometheus text exposition grammar, and returns the sample values keyed
// by "name{labels}" (or bare name for unlabeled metrics).
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q, want text/plain", ct)
	}
	helpRe := regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	typeRe := regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) ([0-9eE.+-]+|NaN|\+Inf|-Inf)$`)
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP") {
			if !helpRe.MatchString(line) {
				t.Errorf("malformed HELP line: %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE") {
			if !typeRe.MatchString(line) {
				t.Errorf("malformed TYPE line: %q", line)
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Errorf("unparseable sample value in %q: %v", line, err)
			continue
		}
		out[m[1]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("metrics scrape returned no samples")
	}
	return out
}

// TestMetricsEndToEnd drives pair, top-k and shed queries
// against live httptest servers and asserts a /metrics scrape is valid
// exposition text whose counters moved accordingly. The registry is
// process-wide, so all assertions are on before/after deltas.
func TestMetricsEndToEnd(t *testing.T) {
	srv, ts := lifecycleServer(t, WithMaxInflight(1))
	before := scrapeMetrics(t, ts.URL)

	// One successful pair and one successful top-k query.
	var pair pairBody
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD", http.StatusOK, &pair)
	var topk topKBody
	getJSON(t, ts.URL+"/v1/topk?path=APC&source=Tom", http.StatusOK, &topk)

	// Fill the single in-flight slot, then shed a query with 429.
	started := make(chan struct{})
	release := make(chan struct{})
	srv.mux.HandleFunc("GET /v1/obsblock", func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		writeJSON(w, http.StatusOK, map[string]string{"status": "unblocked"})
	})
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		resp, err := http.Get(ts.URL + "/v1/obsblock")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	resp, err := http.Get(ts.URL + "/v1/pair?path=APC&source=Tom&target=KDD")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed query status = %d, want 429", resp.StatusCode)
	}
	close(release)
	<-blocked

	after := scrapeMetrics(t, ts.URL)
	delta := func(key string) float64 { return after[key] - before[key] }

	checks := []struct {
		key string
		min float64
	}{
		{`hetesim_http_requests_total{route="/v1/pair",status="200"}`, 1},
		{`hetesim_http_requests_total{route="/v1/topk",status="200"}`, 1},
		{`hetesim_http_requests_total{route="/v1/pair",status="429"}`, 1},
		{`hetesim_http_shed_total`, 1},
		{`hetesim_http_request_duration_seconds_count`, 3},
		{`hetesim_engine_queries_total{kind="pair"}`, 1},
		{`hetesim_engine_queries_total{kind="topk"}`, 1},
		{`hetesim_engine_cache_misses_total`, 1},
		{`hetesim_sparse_vecmul_total`, 1},
		{`hetesim_sparse_vecmul_flops_total`, 1},
	}
	for _, c := range checks {
		if d := delta(c.key); d < c.min {
			t.Errorf("%s moved by %v, want >= %v", c.key, d, c.min)
		}
	}
	if _, ok := after["hetesim_http_inflight_queries"]; !ok {
		t.Error("inflight gauge missing from scrape")
	}
	// Histogram sum/count coherence for the request latency series.
	if after["hetesim_http_request_duration_seconds_count"] <
		before["hetesim_http_request_duration_seconds_count"] {
		t.Error("latency histogram count went backwards")
	}
	if after[`hetesim_http_request_duration_seconds_bucket{le="+Inf"}`] !=
		after["hetesim_http_request_duration_seconds_count"] {
		t.Error("latency histogram +Inf bucket disagrees with _count")
	}
}

// TestMetricsWritePhases asserts every applied batch lands in each phase
// of hetesim_write_phase_seconds, whether a client wrote it to the primary
// or a follower applied it from the primary's stream.
func TestMetricsWritePhases(t *testing.T) {
	newWAL := func() (*Server, *httptest.Server) {
		srv := New(reloadGraph(t, 0), WithWALPath(filepath.Join(t.TempDir(), "edges.wal")), WithLogf(t.Logf))
		t.Cleanup(srv.Close)
		srv.MarkReady()
		if _, err := srv.OpenWAL(); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts
	}
	primary, pts := newWAL()
	follower, _ := newWAL()
	phases := []string{"apply", "log", "engine", "rewarm"}
	counts := func() map[string]float64 {
		m := scrapeMetrics(t, pts.URL)
		out := make(map[string]float64)
		for _, ph := range phases {
			out[ph] = m[`hetesim_write_phase_seconds_count{phase="`+ph+`"}`]
		}
		return out
	}

	before := counts()
	if resp, mb := postMutation(t, pts.URL, "phase-1", mutationBatches()[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation = %d %+v", resp.StatusCode, mb)
	}
	afterPrimary := counts()
	stream, _, err := primary.st.tail(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if caught, err := follower.applyStream(context.Background(), &stream); err != nil || !caught {
		t.Fatalf("follower applying the primary's stream: caught up %v, %v", caught, err)
	}
	afterFollower := counts()
	for _, ph := range phases {
		if d := afterPrimary[ph] - before[ph]; d < 1 {
			t.Errorf("primary write: phase %s observed %v times, want 1", ph, d)
		}
		if d := afterFollower[ph] - afterPrimary[ph]; d < 1 {
			t.Errorf("follower apply: phase %s observed %v times, want 1", ph, d)
		}
	}
}

// obsHeavyServer builds a dense bipartite graph whose chain multiplies
// take real wall time, so engine spans dominate a traced query.
func obsHeavyServer(t *testing.T, n int, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	s := hin.NewSchema()
	s.MustAddType("a", 'A')
	s.MustAddType("b", 'B')
	s.MustAddRelation("r", "a", "b")
	b := hin.NewBuilder(s)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.AddWeightedEdge("r", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", j), float64(1+(i+j)%7))
		}
	}
	srv := New(b.MustBuild(), opts...)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// zigzagSpec returns the (AB)^k A path over the bipartite schema.
func zigzagSpec(k int) string {
	return strings.Repeat("AB", k) + "A"
}

// TestTraceInlinePair asserts ?trace=1 returns a span breakdown covering
// at least 90% of the wall time of a multi-step pair query — the tracer
// acceptance bar: a slow query's time must be attributable to stages.
func TestTraceInlinePair(t *testing.T) {
	_, ts := obsHeavyServer(t, 150)
	path := zigzagSpec(20)
	url := ts.URL + "/v1/pair?path=" + path + "&source=a0&target=a1"
	// Warm the transition cache so the traced run measures chain
	// propagation rather than one-time matrix construction.
	getJSON(t, url, http.StatusOK, &pairBody{})

	var body pairBody
	getJSON(t, url+"&trace=1", http.StatusOK, &body)
	if body.Trace == nil {
		t.Fatal("?trace=1 returned no trace")
	}
	if body.Trace.TotalUS <= 0 {
		t.Fatalf("trace total = %v", body.Trace.TotalUS)
	}
	names := make(map[string]int)
	for _, sp := range body.Trace.Spans {
		names[sp.Name]++
	}
	for _, want := range []string{"decode", "plan_select", "chain_multiply", "normalize"} {
		if names[want] == 0 {
			t.Errorf("trace missing %q span; got %v", want, names)
		}
	}
	// (AB)^20A splits into 20 steps per half-path.
	if names["chain_multiply"] < 40 {
		t.Errorf("trace has %d chain_multiply spans, want >= 40", names["chain_multiply"])
	}
	// Every chain_multiply span carries the matrix dims and output nnz.
	for _, sp := range body.Trace.Spans {
		if sp.Name != "chain_multiply" {
			continue
		}
		if sp.Attrs["nnz"] == "" || sp.Attrs["side"] == "" {
			t.Fatalf("chain_multiply span missing attrs: %+v", sp.Attrs)
		}
	}
	if body.Trace.Coverage < 0.9 {
		t.Errorf("trace coverage = %v, want >= 0.9 (spans: %v)", body.Trace.Coverage, names)
	}

	// Without ?trace=1 the response stays clean.
	var plain pairBody
	getJSON(t, url, http.StatusOK, &plain)
	if plain.Trace != nil {
		t.Error("untraced query returned a trace")
	}
}

// TestTraceInlineTopK asserts the top-k handler also reports its stages,
// including the cache_hit event once the right-half matrix is warm.
func TestTraceInlineTopK(t *testing.T) {
	_, ts := obsHeavyServer(t, 60)
	path := zigzagSpec(6)
	url := ts.URL + "/v1/topk?path=" + path + "&source=a0&k=3"
	getJSON(t, url, http.StatusOK, &topKBody{})

	var body topKBody
	getJSON(t, url+"&trace=1", http.StatusOK, &body)
	if body.Trace == nil {
		t.Fatal("?trace=1 returned no trace")
	}
	names := make(map[string]int)
	for _, sp := range body.Trace.Spans {
		names[sp.Name]++
	}
	for _, want := range []string{"decode", "plan_select", "combine", "normalize", "rank"} {
		if names[want] == 0 {
			t.Errorf("trace missing %q span; got %v", want, names)
		}
	}
	// The warm-up query materialized the right-half chain; the traced run
	// must observe the cache hit.
	if names["cache_hit"] == 0 {
		t.Errorf("warm top-k trace has no cache_hit event; got %v", names)
	}
}

// TestSlowLogCapturesSlowQuery runs queries against a server whose slow
// bar is effectively zero and checks /v1/slowlog retains them, newest
// first, with their stage traces attached.
func TestSlowLogCapturesSlowQuery(t *testing.T) {
	_, ts := obsHeavyServer(t, 60, WithSlowLog(time.Microsecond, 4))
	path := zigzagSpec(6)
	getJSON(t, ts.URL+"/v1/pair?path="+path+"&source=a0&target=a1", http.StatusOK, &pairBody{})
	getJSON(t, ts.URL+"/v1/topk?path="+path+"&source=a0&k=3", http.StatusOK, &topKBody{})

	var log struct {
		Enabled     bool            `json:"enabled"`
		ThresholdMS float64         `json:"threshold_ms"`
		Total       int             `json:"total"`
		Entries     []obs.SlowEntry `json:"entries"`
	}
	getJSON(t, ts.URL+"/v1/slowlog", http.StatusOK, &log)
	if !log.Enabled {
		t.Fatal("slowlog reports disabled")
	}
	if log.Total < 2 || len(log.Entries) < 2 {
		t.Fatalf("slowlog total = %d, entries = %d, want >= 2", log.Total, len(log.Entries))
	}
	// Newest first: the topk query landed after the pair query.
	if !strings.Contains(log.Entries[0].Query, "/v1/topk") {
		t.Errorf("newest entry = %q, want the /v1/topk query", log.Entries[0].Query)
	}
	for _, e := range log.Entries {
		if e.Status != http.StatusOK {
			t.Errorf("entry %q status = %d", e.Query, e.Status)
		}
		if e.DurationMS <= 0 {
			t.Errorf("entry %q duration = %v", e.Query, e.DurationMS)
		}
		if e.Trace == nil || len(e.Trace.Spans) == 0 {
			t.Errorf("entry %q has no trace spans", e.Query)
		}
	}
	// The ring is bounded at its configured capacity.
	for i := 0; i < 8; i++ {
		getJSON(t, ts.URL+"/v1/pair?path="+path+"&source=a0&target=a1", http.StatusOK, &pairBody{})
	}
	getJSON(t, ts.URL+"/v1/slowlog", http.StatusOK, &log)
	if len(log.Entries) > 4 {
		t.Errorf("slowlog holds %d entries, capacity is 4", len(log.Entries))
	}
	if log.Total < 10 {
		t.Errorf("slowlog total = %d, want >= 10 admitted", log.Total)
	}
}

// TestSlowLogDisabled checks threshold 0 turns the log off and the
// endpoint still answers.
func TestSlowLogDisabled(t *testing.T) {
	_, ts := lifecycleServer(t, WithSlowLog(0, 0))
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD", http.StatusOK, &pairBody{})
	var log map[string]json.RawMessage
	getJSON(t, ts.URL+"/v1/slowlog", http.StatusOK, &log)
	var enabled bool
	if err := json.Unmarshal(log["enabled"], &enabled); err != nil || enabled {
		t.Errorf("slowlog enabled = %v (err %v), want false", enabled, err)
	}
}
