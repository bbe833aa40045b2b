package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"hetesim/internal/api"
	"hetesim/internal/relevance"
	"hetesim/internal/router"
	"hetesim/internal/server"
)

// request builds the one HTTP request of the query mode, the same for the
// local server and -server: a GET with parameters or a POST with a body;
// flag.ErrHelp when the flags name no query.
func (o *options) request() (method, endpoint string, params url.Values, body []byte, err error) {
	switch {
	case o.batch != "":
		body, err = readFileOrStdin(o.batch)
		return http.MethodPost, "/v1/batch", nil, body, err
	case o.relevance:
		req := api.RelevanceRequest{
			Source: o.source, SourceType: o.sourceType, Target: o.target, TargetType: o.targetType,
			Weighting: o.weighting, Raw: o.raw, MaxLen: max(o.maxLen, 0), MaxPaths: max(o.maxPaths, 0),
		}
		if o.target == "" {
			req.K = o.k
		}
		body, err = json.Marshal(req)
		return http.MethodPost, "/v1/relevance", nil, body, err
	case o.explain > 0 && o.path != "":
		return http.MethodGet, "/v1/explain", url.Values{"path": {o.path}, "queries": {strconv.Itoa(o.explain)}}, nil, nil
	case o.path == "" || o.source == "":
		return "", "", nil, nil, flag.ErrHelp
	}
	params = url.Values{"path": {o.path}, "source": {o.source}}
	endpoint, k := "/v1/topk", o.k
	switch {
	case o.target != "" && o.why > 0:
		endpoint, k = "/v1/why", o.why
	case o.target != "":
		endpoint = "/v1/pair"
	}
	set := func(name, v string, ok bool) {
		if ok {
			params.Set(name, v)
		}
	}
	set("target", o.target, o.target != "")
	set("k", strconv.Itoa(k), endpoint != "/v1/pair")
	set("raw", "true", o.raw)
	set("measure", o.measure, o.measure != "hetesim" && endpoint != "/v1/why")
	set("plan", o.plan, o.plan != "" && endpoint != "/v1/why")
	return http.MethodGet, endpoint, params, nil, nil
}

// runQuery sends the query mode's request and renders the answer to out.
func runQuery(o *options, out io.Writer) error {
	method, endpoint, params, body, err := o.request()
	if err != nil {
		return err
	}
	rc, done, err := newClient(o)
	if err != nil {
		return err
	}
	defer done()
	raw, err := rc.call(method, endpoint, params, body)
	if err != nil {
		return err
	}
	return rc.render(out, endpoint, raw, o)
}

// runBatch answers a -batch file against the graph file.
func runBatch(graphPath, file string, out io.Writer) error {
	return runQuery(&options{graph: graphPath, batch: file}, out)
}

type remoteClient struct {
	base   string
	policy router.RetryPolicy
	client *http.Client
	local  bool // an in-process server: its error messages are reported bare
}

// newClient returns a client of -server or, without one, of a server over
// the -graph file in this process, which done closes. The local query is
// the operator's own: no query deadline, no body, batch or path-step cap;
// relevance limits from -maxlen/-maxpaths, learned weights from -weights.
func newClient(o *options) (rc *remoteClient, done func(), err error) {
	rc = &remoteClient{
		base:   strings.TrimRight(o.server, "/"),
		policy: router.RetryPolicy{Retries: o.retries, Base: 100 * time.Millisecond, MaxWait: o.retryMax},
		client: &http.Client{Timeout: 2 * time.Minute},
	}
	if o.server != "" {
		return rc, func() {}, nil
	}
	g, err := loadGraph(o.graph)
	var learned map[string]float64
	if err == nil && o.weights != "" {
		learned, err = relevance.LoadWeightsFile(o.weights)
	}
	if err != nil {
		return nil, nil, err
	}
	srv := server.New(g, server.WithMaxBodyBytes(0), server.WithBatchLimits(0, 0), server.WithMaxPathSteps(0),
		server.WithRelevanceLimits(o.maxLen, o.maxPaths), server.WithPathWeights(learned),
		server.WithSlowLog(0, 0), server.WithLogf(func(string, ...any) {}))
	rc.base, rc.local = "http://local", true
	rc.client = &http.Client{Transport: router.Inproc{"local": srv.Handler()}}
	return rc, srv.Close, nil
}

// call sends one request (rebuilt per attempt so bodies replay), retrying
// shed statuses, and returns the final response body. A non-2xx final
// status becomes an error carrying the server's message.
func (rc *remoteClient) call(method, path string, query url.Values, body []byte) ([]byte, error) {
	u := rc.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	resp, err := rc.policy.Do(context.Background(), rc.client, func() (*http.Request, error) {
		req, err := http.NewRequest(method, u, bytes.NewReader(body))
		if err == nil && body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	})
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, u, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading response: %w", method, u, err)
	}
	if resp.StatusCode/100 == 2 {
		return raw, nil
	}
	var eb api.Error
	msg := strings.TrimSpace(string(raw))
	if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	switch {
	case rc.local:
		return nil, errors.New(msg)
	case router.RetryableStatus(resp.StatusCode):
		return nil, fmt.Errorf("%s %s: server still shedding after retries (%d): %s", method, u, resp.StatusCode, msg)
	}
	return nil, fmt.Errorf("%s %s: %d: %s", method, u, resp.StatusCode, msg)
}

// render is the one printer of the query modes, local and -server alike: the
// endpoint's api body as text on out, with the plan and the ensemble's
// per-path account on stderr so stdout stays machine-readable; a batch
// answer as its JSON.
func (rc *remoteClient) render(out io.Writer, endpoint string, raw []byte, o *options) error {
	pair, topk, why, explain, rel := &api.Pair{}, &api.TopK{}, &api.Why{}, &api.Explain{}, &api.RelevanceResponse{}
	body := map[string]any{"/v1/pair": pair, "/v1/topk": topk, "/v1/why": why, "/v1/explain": explain, "/v1/relevance": rel}[endpoint]
	if body == nil {
		return printJSON(out, raw)
	}
	if err := json.Unmarshal(raw, body); err != nil {
		return err
	}
	if p := cmp.Or(pair.Plan, topk.Plan); p != nil {
		fmt.Fprintf(os.Stderr, "plan: %s (est %.3g flops, %s)\n", p.Kind, p.EstFlops, p.Reason)
	}
	switch endpoint {
	case "/v1/pair":
		fmt.Fprintf(out, "%s(%s, %s | %s) = %.6f\n", pair.Measure, pair.Source, pair.Target, pair.Path, pair.Score)
	case "/v1/topk":
		typ, err := rc.targetType(topk.Path)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "top %d %s objects related to %s along %s (%s):\n", len(topk.Results), typ, topk.Source, topk.Path, topk.Measure)
		width := 0
		for _, h := range topk.Results {
			width = max(width, len(h.ID))
		}
		for i, h := range topk.Results {
			fmt.Fprintf(out, "%2d  %-*s  %.4f\n", i+1, width, h.ID, h.Score)
		}
	case "/v1/why":
		fmt.Fprintf(out, "hetesim(%s, %s | %s) = %.6f; top meeting objects:\n", why.Source, why.Target, why.Path, why.Score)
		for _, c := range why.Contributions {
			fmt.Fprintf(out, "  %-24s %.6f (%.1f%%)\n", c.Label, c.Value, 100*c.Fraction)
		}
	case "/v1/explain":
		fmt.Fprint(out, explain.Report)
	case "/v1/relevance": // each member path's weight, score (pair mode) and plan, or its failure
		fmt.Fprintf(os.Stderr, "ensemble of %d %s→%s paths (%s weighting):\n", len(rel.Paths), o.sourceType, o.targetType, rel.Weighting)
		for _, ps := range rel.Paths {
			switch {
			case ps.Error != "":
				fmt.Fprintf(os.Stderr, "  %-12s w=%.4f FAILED: %s\n", ps.Path, ps.Weight, ps.Error)
			case rel.Mode == "pair":
				fmt.Fprintf(os.Stderr, "  %-12s w=%.4f score=%.6f plan=%s\n", ps.Path, ps.Weight, *ps.Score, ps.Plan)
			default: // a top-k member contributes a score vector, not a scalar
				fmt.Fprintf(os.Stderr, "  %-12s w=%.4f plan=%s\n", ps.Path, ps.Weight, ps.Plan)
			}
		}
		fmt.Fprintf(os.Stderr, "  shared %d/%d path queries; %d row-steps vs %d naive\n",
			rel.Stats.SharedQueries, len(rel.Paths), rel.Stats.RowSteps, rel.Stats.NaiveRowSteps)
		switch {
		case rel.Mode != "pair":
			fmt.Fprintf(out, "top %d %s objects related to %s (auto relevance):\n", len(rel.Results), o.targetType, rel.Source)
			for i, h := range rel.Results {
				fmt.Fprintf(out, "  %2d. %-24s %.6f\n", i+1, h.ID, h.Score)
			}
		case rel.Score == nil:
			return fmt.Errorf("relevance(%s, %s): no member path scored", rel.Source, rel.Target)
		default:
			fmt.Fprintf(out, "relevance(%s, %s) = %.6f\n", rel.Source, rel.Target, *rel.Score)
		}
	}
	return nil
}

// printJSON indents a JSON answer for the terminal, keeping its key order.
func printJSON(out io.Writer, raw []byte) error {
	var b bytes.Buffer
	err := json.Indent(&b, bytes.TrimSpace(raw), "", "  ")
	if err == nil {
		_, err = fmt.Fprintln(out, b.String())
	}
	return err
}

// targetType names the node type a served path ends at: the name after the
// last '>' of a long-form path, else the type whose abbreviation ends the
// compact form, as GET /v1/schema lists it.
func (rc *remoteClient) targetType(path string) (string, error) {
	if i := strings.LastIndexByte(path, '>'); i >= 0 {
		return path[i+1:], nil
	}
	raw, err := rc.call(http.MethodGet, "/v1/schema", nil, nil)
	var s api.Schema
	if err == nil {
		err = json.Unmarshal(raw, &s)
	}
	for _, t := range s.Types {
		if t.Abbrev == path[len(path)-1:] {
			return t.Name, nil
		}
	}
	return "", cmp.Or(err, fmt.Errorf("path %s ends at no known node type", path))
}

func readFileOrStdin(name string) ([]byte, error) {
	if name == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(name)
}
