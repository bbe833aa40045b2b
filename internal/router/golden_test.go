package router

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"hetesim/internal/hin"
	"hetesim/internal/server"
)

// The golden corpus: every query endpoint, direct (a replica's own handler)
// and routed (through the router's), answered for a fixed request list over
// a fixed graph and compared byte for byte with testdata/golden.json, so a
// green run is the proof that the wire surface did not move; the only
// responses allowed to differ from the recording are those listed in
// goldenFixes.
var update = flag.Bool("update", false, "re-record testdata/golden.json from the current build")

// goldenGraph is a small bibliographic network with enough structure for
// every endpoint: a third type beyond the paper's A-P-C running example so
// the auto-relevance ensemble has several member paths, an author (Sue)
// whose neighbourhood is disjoint from the rest so top-k answers need zero
// padding, and distinct scores everywhere a ranking is recorded.
func goldenGraph() *hin.Graph {
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("conference", 'C')
	s.MustAddType("term", 'T')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("published_in", "paper", "conference")
	s.MustAddRelation("mentions", "paper", "term")
	b := hin.NewBuilder(s)
	for _, e := range [][2]string{
		{"Tom", "p1"}, {"Tom", "p2"}, {"Tom", "p7"}, {"Mary", "p2"}, {"Mary", "p3"},
		{"Bob", "p3"}, {"Bob", "p4"}, {"Ann", "p4"}, {"Ann", "p5"}, {"Joe", "p5"},
		{"Joe", "p1"}, {"Sue", "p6"},
	} {
		b.AddEdge("writes", e[0], e[1])
	}
	for _, e := range [][2]string{
		{"p1", "KDD"}, {"p2", "KDD"}, {"p7", "KDD"}, {"p3", "SIGMOD"}, {"p4", "SIGMOD"},
		{"p5", "VLDB"}, {"p6", "ICDE"},
	} {
		b.AddEdge("published_in", e[0], e[1])
	}
	for _, e := range [][2]string{
		{"p1", "mining"}, {"p2", "mining"}, {"p2", "graphs"}, {"p3", "graphs"},
		{"p4", "db"}, {"p5", "db"}, {"p6", "index"}, {"p7", "mining"},
	} {
		b.AddEdge("mentions", e[0], e[1])
	}
	return b.MustBuild()
}

// goldenFleet is one configuration of the corpus: a standalone server for
// the direct requests and a router over its own replicas for the routed
// ones, so neither side's cache warmth depends on the other's traffic.
type goldenFleet struct {
	direct http.Handler
	routed http.Handler
}

var goldenWeights = map[string]float64{"APA": 0.7, "APCPA": 0.3}

func newGoldenFleet(t *testing.T, replicas int, down bool, sopts []server.Option, ropts ...Option) goldenFleet {
	t.Helper()
	newServer := func() http.Handler {
		srv := server.New(goldenGraph(), append([]server.Option{server.WithLogf(t.Logf)}, sopts...)...)
		t.Cleanup(srv.Close)
		srv.MarkReady()
		return srv.Handler()
	}
	fleet := Inproc{}
	var urls []string
	for i := 0; i < replicas; i++ {
		host := fmt.Sprintf("replica%d", i)
		urls = append(urls, "http://"+host)
		if !down {
			fleet[host] = newServer()
		}
	}
	base := []Option{
		WithClient(&http.Client{Transport: fleet}),
		WithSchema(goldenGraph().Schema()),
		WithRetryPolicy(RetryPolicy{Retries: 2, Base: time.Millisecond, MaxWait: 2 * time.Millisecond}),
		WithBreaker(0, time.Second), // breaker off: the corpus repeats failing requests on purpose
		WithHealthInterval(time.Hour),
		WithLogf(t.Logf),
	}
	rt, err := New(urls, append(base, ropts...)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rt.Start(ctx)
	return goldenFleet{direct: newServer(), routed: rt.Handler()}
}

// goldenCase is one request of the corpus. via selects the sides it is sent
// to ("both" when empty).
type goldenCase struct {
	name     string
	fleet    string
	via      string
	method   string
	target   string
	body     string
	floor    string // X-Min-WAL-Seq; "-" sends the header empty
	canceled bool
}

func get(name, fleet, target string) goldenCase {
	return goldenCase{name: name, fleet: fleet, method: http.MethodGet, target: target}
}

func post(name, fleet, target, body string) goldenCase {
	return goldenCase{name: name, fleet: fleet, method: http.MethodPost, target: target, body: body}
}

func (c goldenCase) only(via string) goldenCase { c.via = via; return c }
func (c goldenCase) withFloor(v string) goldenCase {
	c.floor = v
	return c
}

var longPath = strings.Repeat("AP", 200) + "A" // 400 steps, past the 128-step cap

const relTomMary = `"source":"Tom","source_type":"author","target":"Mary","target_type":"author"`

func goldenCases() []goldenCase {
	batchMixed := `{"queries":[
		{"kind":"pair","path":"APC","source":"Tom","target":"KDD"},
		{"kind":"pair","path":"APC","source":"Tom","target":"KDD","raw":true},
		{"kind":"single_source","path":"APC","source":"Mary"},
		{"kind":"topk","path":"APC","source":"Mary","k":2},
		{"kind":"topk","path":"APA","source":"Sue","k":4},
		{"kind":"topk","path":"APTPA","source":"Tom","k":3,"eps":0.1},
		{"kind":"topk","path":"APCPA","source":"Tom"},
		{"kind":"pair","path":"APCPA","source":"Tom","target":"Bob","measure":"hetesim"},
		{"kind":"pair","path":"APCP","source":"Tom","target":"p3"}]}`
	batchBad := `{"queries":[
		{"kind":"pair","path":"APC","source":"Nobody","target":"KDD"},
		{"kind":"pair","path":"APC","source":"Tom","target":"Nowhere"},
		{"kind":"pair","path":"APC","source":"Tom"},
		{"kind":"pair","source":"Tom","target":"KDD"},
		{"kind":"pair","path":"APC","target":"KDD"},
		{"kind":"scan","path":"APC","source":"Tom"},
		{"kind":"topk","path":"APC","source":"Tom","k":-1},
		{"kind":"topk","path":"APC","source":"Tom","eps":1.5},
		{"kind":"pair","path":"APC","source":"Tom","target":"KDD","measure":"pcrw"},
		{"kind":"pair","path":"AXC","source":"Tom","target":"KDD"},
		{"kind":"pair","path":"AC","source":"Tom","target":"KDD"},
		{"kind":"topk","path":"` + longPath + `","source":"Tom"},
		{"kind":"pair","path":"APC","source":"Tom","target":"KDD"}]}`
	batchSmall := `{"queries":[
		{"kind":"pair","path":"APC","source":"Tom","target":"KDD"},
		{"kind":"topk","path":"APA","source":"Tom","k":2}]}`
	cs := []goldenCase{
		// --- pair
		get("pair", "main", "/v1/pair?path=APC&source=Tom&target=KDD"),
		get("pair raw", "main", "/v1/pair?path=APC&source=Tom&target=KDD&raw=true"),
		get("pair pcrw", "main", "/v1/pair?path=APA&source=Tom&target=Mary&measure=pcrw"),
		get("pair pathsim", "main", "/v1/pair?path=APA&source=Tom&target=Mary&measure=pathsim"),
		get("pair odd path", "main", "/v1/pair?path=APCP&source=Tom&target=p3"),
		get("pair long spec", "main", "/v1/pair?path=author%3Epaper%3Econference&source=Tom&target=KDD"),
		get("pair plan pair-vectors", "main", "/v1/pair?path=APCPA&source=Tom&target=Bob&plan=pair-vectors"),
		get("pair plan single-vs-matrix", "main", "/v1/pair?path=APCPA&source=Tom&target=Bob&plan=single-vs-matrix"),
		get("pair plan all-pairs", "main", "/v1/pair?path=APCPA&source=Tom&target=Bob&plan=all-pairs"),
		get("pair plan auto after warm", "main", "/v1/pair?path=APCPA&source=Tom&target=Bob&plan=auto"),
		get("pair plan monte-carlo", "main", "/v1/pair?path=APCPA&source=Tom&target=Bob&plan=monte-carlo"),
		get("pair trace", "main", "/v1/pair?path=APTPA&source=Tom&target=Joe&trace=1"),
		// --- top-k
		get("topk", "main", "/v1/topk?path=APC&source=Tom&k=2"),
		get("topk default k", "main", "/v1/topk?path=APA&source=Tom"),
		get("topk zero padded", "main", "/v1/topk?path=APA&source=Sue&k=4"),
		get("topk k past type", "main", "/v1/topk?path=APC&source=Mary&k=99"),
		get("topk raw", "main", "/v1/topk?path=APC&source=Tom&k=3&raw=1"),
		get("topk pcrw", "main", "/v1/topk?path=APA&source=Tom&k=3&measure=pcrw"),
		get("topk pathsim", "main", "/v1/topk?path=APA&source=Tom&k=3&measure=pathsim"),
		get("topk plan all-pairs", "main", "/v1/topk?path=APTPA&source=Mary&k=3&plan=all-pairs"),
		get("topk plan topk-approx", "main", "/v1/topk?path=APTPA&source=Mary&k=3&plan=topk-approx&error_budget=0.2"),
		get("topk plan monte-carlo", "main", "/v1/topk?path=APC&source=Tom&k=2&plan=monte-carlo"),
		get("topk trace", "main", "/v1/topk?path=CPA&source=KDD&k=3&trace=true"),
		// --- why / explain
		get("why", "main", "/v1/why?path=APCPA&source=Tom&target=Bob&k=2"),
		get("why raw default k", "main", "/v1/why?path=APTPA&source=Tom&target=Mary&raw=true"),
		get("explain", "main", "/v1/explain?path=APCPA&queries=10"),
		get("explain default", "main", "/v1/explain?path=APC"),
		// --- batch
		post("batch mixed", "main", "/v1/batch", batchMixed),
		post("batch bad slots", "main", "/v1/batch", batchBad),
		// --- relevance
		post("relevance pair", "main", "/v1/relevance", `{`+relTomMary+`}`),
		post("relevance pair raw", "main", "/v1/relevance", `{`+relTomMary+`,"raw":true}`),
		post("relevance pair degree", "main", "/v1/relevance", `{`+relTomMary+`,"weighting":"degree"}`),
		post("relevance pair learned", "main", "/v1/relevance", `{`+relTomMary+`,"weighting":"learned"}`),
		post("relevance pair explicit", "main", "/v1/relevance", `{`+relTomMary+`,"paths":["APA","APTPA"],"max_len":4,"max_paths":8}`),
		post("relevance pair unknown target", "main", "/v1/relevance", `{"source":"Tom","source_type":"author","target":"Nobody","target_type":"author"}`),
		post("relevance pair trace", "main", "/v1/relevance?trace=1", `{`+relTomMary+`,"max_len":2}`).only("direct"),
		post("relevance topk", "main", "/v1/relevance", `{"source":"Tom","source_type":"author","target_type":"conference","k":2}`),
		post("relevance topk default k", "main", "/v1/relevance", `{"source":"Sue","source_type":"author","target_type":"author","max_len":2}`),
		// --- 400 / 404 on the GET surface
		get("pair missing path", "main", "/v1/pair?source=Tom&target=KDD"),
		get("pair missing source", "main", "/v1/pair?path=APC&target=KDD"),
		get("pair missing target", "main", "/v1/pair?path=APC&source=Tom"),
		get("pair unknown source", "main", "/v1/pair?path=APC&source=Nobody&target=KDD"),
		get("pair unknown target", "main", "/v1/pair?path=APC&source=Tom&target=Nowhere"),
		get("pair unknown target pcrw", "main", "/v1/pair?path=APC&source=Tom&target=Nowhere&measure=pcrw"),
		get("pair unknown type", "main", "/v1/pair?path=AXC&source=Tom&target=KDD"),
		get("pair not chained", "main", "/v1/pair?path=AC&source=Tom&target=KDD"),
		get("pair bad syntax", "main", "/v1/pair?path=author%3E&source=Tom&target=KDD"),
		get("pair bad measure", "main", "/v1/pair?path=APC&source=Tom&target=KDD&measure=cosine"),
		get("pair bad raw", "main", "/v1/pair?path=APC&source=Tom&target=KDD&raw=maybe"),
		get("pair raw pcrw", "main", "/v1/pair?path=APC&source=Tom&target=KDD&raw=true&measure=pcrw"),
		get("pair bad plan", "main", "/v1/pair?path=APC&source=Tom&target=KDD&plan=fastest"),
		get("pair plan pcrw", "main", "/v1/pair?path=APC&source=Tom&target=KDD&plan=all-pairs&measure=pcrw"),
		get("pair plan not applicable", "main", "/v1/pair?path=APC&source=Tom&target=KDD&plan=subset-chain"),
		get("pair pathsim asymmetric", "main", "/v1/pair?path=APC&source=Tom&target=KDD&measure=pathsim"),
		get("pair path too long", "main", "/v1/pair?path="+longPath+"&source=Tom&target=Tom"),
		get("topk path too long", "main", "/v1/topk?path="+longPath+"&source=Tom"),
		get("explain path too long", "main", "/v1/explain?path="+longPath),
		get("topk k zero", "main", "/v1/topk?path=APC&source=Tom&k=0"),
		get("topk k text", "main", "/v1/topk?path=APC&source=Tom&k=ten"),
		get("topk plan pair-vectors", "main", "/v1/topk?path=APC&source=Tom&plan=pair-vectors"),
		get("topk unknown source", "main", "/v1/topk?path=APC&source=Nobody"),
		get("why pcrw", "main", "/v1/why?path=APC&source=Tom&target=KDD&measure=pcrw"),
		get("why missing target", "main", "/v1/why?path=APC&source=Tom"),
		get("why k zero", "main", "/v1/why?path=APC&source=Tom&target=KDD&k=0"),
		get("why unknown target", "main", "/v1/why?path=APC&source=Tom&target=Nowhere"),
		get("explain missing path", "main", "/v1/explain"),
		get("explain bad queries", "main", "/v1/explain?path=APC&queries=0"),
		get("explain unknown type", "main", "/v1/explain?path=AXC"),
		// --- 400 / 404 on the POST surface
		post("batch empty", "main", "/v1/batch", `{"queries":[]}`),
		post("batch bad json", "main", "/v1/batch", `{"queries":`),
		post("batch slot not an object", "main", "/v1/batch", `{"queries":["pair APC Tom KDD"]}`),
		post("relevance bad json", "main", "/v1/relevance", `{"source":`),
		post("relevance missing source type", "main", "/v1/relevance", `{"source":"Tom","target":"Mary","target_type":"author"}`),
		post("relevance missing target type", "main", "/v1/relevance", `{"source":"Tom","source_type":"author","target":"Mary"}`),
		post("relevance unknown type", "main", "/v1/relevance", `{"source":"Tom","source_type":"author","target":"x","target_type":"venue"}`),
		post("relevance unknown source", "main", "/v1/relevance", `{"source":"Nobody","source_type":"author","target":"Mary","target_type":"author"}`),
		post("relevance max_len over", "main", "/v1/relevance", `{`+relTomMary+`,"max_len":9}`),
		post("relevance max_paths over", "main", "/v1/relevance", `{`+relTomMary+`,"max_paths":99}`),
		post("relevance bad weighting", "main", "/v1/relevance", `{`+relTomMary+`,"weighting":"vibes"}`),
		post("relevance path off endpoints", "main", "/v1/relevance", `{`+relTomMary+`,"paths":["APC"]}`),
		post("relevance bad explicit path", "main", "/v1/relevance", `{`+relTomMary+`,"paths":["AXA"]}`),
		post("relevance no paths", "main", "/v1/relevance", `{`+relTomMary+`,"max_len":1}`),
		post("relevance negative k", "main", "/v1/relevance", `{"source":"Tom","source_type":"author","target_type":"author","k":-1}`),
		// --- a client that went away (499)
		goldenCase{name: "pair canceled", fleet: "main", via: "direct", method: http.MethodGet,
			target: "/v1/pair?path=APC&source=Tom&target=KDD", canceled: true},
		// --- configured limits
		post("batch over max queries", "limits", "/v1/batch", batchMixed).only("direct"), // routed, each path group is its own sub-batch under the cap
		post("relevance explicit paths over", "limits", "/v1/relevance", `{`+relTomMary+`,"paths":["APA","APCPA","APTPA"]}`),
		post("relevance within limits", "limits", "/v1/relevance", `{`+relTomMary+`}`),
		get("topk over path cap", "limits", "/v1/topk?path=APCPA&source=Tom"),
		get("topk default plan", "limits", "/v1/topk?path=APC&source=Tom&k=2"),
		// --- deadline spent: 504, or per-path failures in an ensemble
		get("timeout pair", "timeout", "/v1/pair?path=APC&source=Tom&target=KDD"),
		get("timeout topk", "timeout", "/v1/topk?path=APC&source=Tom"),
		post("timeout batch", "timeout", "/v1/batch", batchSmall),
		post("timeout relevance pair", "timeout", "/v1/relevance", `{`+relTomMary+`,"max_len":2}`),
		post("timeout relevance topk", "timeout", "/v1/relevance", `{"source":"Tom","source_type":"author","target_type":"conference","k":2}`),
		// --- the whole fleet unreachable
		get("down pair", "down", "/v1/pair?path=APC&source=Tom&target=KDD").only("routed"),
		get("down schema", "down", "/v1/schema").only("routed"),
		post("down batch", "down", "/v1/batch", batchSmall).only("routed"),
		post("down relevance scatter", "down", "/v1/relevance", `{`+relTomMary+`,"max_len":2}`).only("routed"),
		post("down relevance topk", "down", "/v1/relevance", `{"source":"Tom","source_type":"author","target_type":"conference"}`).only("routed"),
		post("down write", "down", "/v1/admin/edges", `{"ops":[{"op":"add_node","type":"author","id":"New"}]}`).only("routed"),
		// --- read-your-writes floor (X-Min-WAL-Seq) at the router
		get("floor reached", "main", "/v1/pair?path=APC&source=Tom&target=KDD").only("routed").withFloor("0"),
		get("floor empty", "main", "/v1/pair?path=APC&source=Tom&target=KDD").only("routed").withFloor("-"),
		get("floor stale pair", "main", "/v1/pair?path=APC&source=Tom&target=KDD").only("routed").withFloor("42"),
		get("floor stale topk", "main", "/v1/topk?path=APC&source=Tom&k=2").only("routed").withFloor("42"),
		get("floor stale schema", "main", "/v1/schema").only("routed").withFloor("42"),
		get("floor max uint64", "main", "/v1/pair?path=APC&source=Tom&target=KDD").only("routed").withFloor("18446744073709551615"),
		post("floor stale batch", "main", "/v1/batch", batchSmall).only("routed").withFloor("42"),
		post("floor stale relevance scatter", "main", "/v1/relevance", `{`+relTomMary+`,"max_len":2}`).only("routed").withFloor("42"),
		post("floor stale relevance topk", "main", "/v1/relevance", `{"source":"Tom","source_type":"author","target_type":"conference","k":2}`).only("routed").withFloor("42"),
		get("floor text", "main", "/v1/pair?path=APC&source=Tom&target=KDD").only("routed").withFloor("abc"),
		get("floor negative", "main", "/v1/pair?path=APC&source=Tom&target=KDD").only("routed").withFloor("-1"),
		get("floor 2^64", "main", "/v1/pair?path=APC&source=Tom&target=KDD").only("routed").withFloor("18446744073709551616"),
		get("floor 2^64+100000", "main", "/v1/pair?path=APC&source=Tom&target=KDD").only("routed").withFloor("18446744073709651616"),
		// --- schema through both sides
		get("schema", "main", "/v1/schema"),
	}
	return cs
}

// goldenFix is an intended difference from the recording. status,
// retryAfter, code and the body fragment are what the build must answer
// now; the recorded response stays in the file as the evidence of what the
// parent did.
type goldenFix struct {
	status     int
	retryAfter string
	code       string // error code; "" for a 200
	contains   string // a fragment the body must carry
	why        string
}

// goldenFixes lists every response allowed to differ from the recording,
// each with the answer it must give instead and why — how a bug fix or a
// removal lands without re-recording the other ~230 responses. A deliberate
// -update records the current answers, after which the table must be empty
// (the test says so); CHANGES.md lists what each re-recording changed.
var goldenFixes = map[string]goldenFix{}

type goldenRecord struct {
	Name       string          `json:"name"`
	Request    string          `json:"request"`
	Status     int             `json:"status"`
	RetryAfter string          `json:"retry_after,omitempty"`
	Body       json.RawMessage `json:"body"`
}

var maskTimings = regexp.MustCompile(`"(duration_ms|total_us|coverage|start_us|dur_us)":-?[0-9.eE+-]+`)

func (c goldenCase) run(t *testing.T, h http.Handler, via string) goldenRecord {
	t.Helper()
	var body *strings.Reader
	req := httptest.NewRequest(c.method, c.target, nil)
	if c.method == http.MethodPost {
		body = strings.NewReader(c.body)
		req = httptest.NewRequest(c.method, c.target, body)
		req.Header.Set("Content-Type", "application/json")
	}
	switch c.floor {
	case "":
	case "-":
		req.Header.Set("X-Min-WAL-Seq", "")
	default:
		req.Header.Set("X-Min-WAL-Seq", c.floor)
	}
	if c.canceled {
		ctx, cancel := context.WithCancel(req.Context())
		cancel()
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	raw := maskTimings.ReplaceAll(rec.Body.Bytes(), []byte(`"$1":0`))
	if !json.Valid(raw) {
		t.Fatalf("%s [%s]: response is not JSON:\n%s", c.name, via, rec.Body.Bytes())
	}
	target := c.target
	if len(target) > 120 {
		target = target[:60] + "..." + target[len(target)-40:]
	}
	request := c.method + " " + target
	if c.floor != "" {
		request += " X-Min-WAL-Seq:" + c.floor
	}
	return goldenRecord{
		Name:       c.name + " [" + via + "]",
		Request:    request,
		Status:     rec.Code,
		RetryAfter: rec.Header().Get("Retry-After"),
		Body:       bytes.TrimSpace(raw),
	}
}

func TestGoldenCorpus(t *testing.T) {
	fleets := map[string]goldenFleet{
		"main": newGoldenFleet(t, 2, false,
			[]server.Option{server.WithPathWeights(goldenWeights)},
			WithPathWeights(goldenWeights)),
		"limits": newGoldenFleet(t, 2, false,
			[]server.Option{server.WithBatchLimits(4, 1), server.WithRelevanceLimits(4, 2), server.WithMaxPathSteps(3),
				server.WithDefaultPlan("all-pairs")},
			WithRelevanceLimits(4, 2)),
		"timeout": newGoldenFleet(t, 1, false,
			[]server.Option{server.WithQueryTimeout(time.Nanosecond)}),
		"down": newGoldenFleet(t, 2, true, nil),
	}
	var got []goldenRecord
	for _, c := range goldenCases() {
		f, ok := fleets[c.fleet]
		if !ok {
			t.Fatalf("%s: unknown fleet %q", c.name, c.fleet)
		}
		if c.via != "routed" {
			got = append(got, c.run(t, f.direct, "direct"))
		}
		if c.via != "direct" {
			got = append(got, c.run(t, f.routed, "routed"))
		}
	}

	const file = "testdata/golden.json"
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d responses to %s", len(got), file)
		if len(goldenFixes) > 0 {
			t.Errorf("re-recorded with %d entries still in goldenFixes: the recording now holds the fixed answers, empty the table", len(goldenFixes))
		}
		return
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (record it with: go test ./internal/router -run TestGoldenCorpus -update)", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	recorded := make(map[string]goldenRecord, len(want))
	for _, r := range want {
		recorded[r.Name] = r
	}
	if len(got) != len(want) {
		t.Errorf("corpus has %d requests, recording has %d", len(got), len(want))
	}
	seenFix := map[string]bool{}
	for _, g := range got {
		w, ok := recorded[g.Name]
		if !ok {
			t.Errorf("%s: not in the recording", g.Name)
			continue
		}
		// Compare compacted: the file's indentation is not the contract.
		same := g.Status == w.Status && g.RetryAfter == w.RetryAfter && compact(t, g.Body) == compact(t, w.Body)
		if fix, ok := goldenFixes[g.Name]; ok {
			seenFix[g.Name] = true
			var eb struct {
				Code string `json:"code"`
			}
			json.Unmarshal(g.Body, &eb)
			if same {
				t.Errorf("%s: listed in goldenFixes (%s) but answers exactly as recorded", g.Name, fix.why)
			}
			if g.Status != fix.status || g.RetryAfter != fix.retryAfter || eb.Code != fix.code || !bytes.Contains(g.Body, []byte(fix.contains)) {
				t.Errorf("%s: got %d Retry-After=%q code=%q, want %d %q %q with %q in the body (%s)\n%s",
					g.Name, g.Status, g.RetryAfter, eb.Code, fix.status, fix.retryAfter, fix.code, fix.contains, fix.why, g.Body)
			}
			continue
		}
		if !same {
			t.Errorf("%s (%s):\n got %d Retry-After=%q\n    %s\nwant %d Retry-After=%q\n    %s",
				g.Name, g.Request, g.Status, g.RetryAfter, g.Body, w.Status, w.RetryAfter, w.Body)
		}
	}
	for name := range goldenFixes {
		if !seenFix[name] {
			t.Errorf("goldenFixes names %q, which is not in the corpus", name)
		}
	}
}

// compact strips the recording's indentation (and applies encoding/json's
// string escaping to both sides alike); member order and number literals
// are kept as the handler wrote them.
func compact(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	b, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
