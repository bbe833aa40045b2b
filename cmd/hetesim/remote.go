package main

// Remote mode: -server points the CLI at a running hetesimd (or a
// hetesim-router fronting a fleet) instead of loading -graph locally. The
// same query flags drive the HTTP surface: -path/-source/-target becomes
// GET /v1/pair or /v1/topk, -batch posts to /v1/batch, -relevance posts to
// /v1/relevance. Shed responses (429/503, and the other retryable statuses)
// are retried with exponential backoff, honoring the server's Retry-After,
// so a briefly overloaded or restarting server degrades a query into a
// short wait instead of a hard failure. -retries and -retry-max-wait bound
// the persistence.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"hetesim/internal/api"
	"hetesim/internal/router"
)

type remoteClient struct {
	base   string
	policy router.RetryPolicy
	client *http.Client
}

func newRemoteClient(base string, retries int, maxWait time.Duration) *remoteClient {
	return &remoteClient{
		base:   strings.TrimRight(base, "/"),
		policy: router.RetryPolicy{Retries: retries, Base: 100 * time.Millisecond, MaxWait: maxWait},
		client: &http.Client{Timeout: 2 * time.Minute},
	}
}

// call sends one request (rebuilt per attempt so bodies replay), retrying
// retryable statuses, and decodes the final response. Non-2xx final
// statuses become errors carrying the server's error body.
func (rc *remoteClient) call(method, path string, query url.Values, body []byte) (json.RawMessage, error) {
	u := rc.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	resp, err := rc.policy.Do(context.Background(), rc.client, func() (*http.Request, error) {
		var rd io.Reader
		if body != nil {
			rd = strings.NewReader(string(body))
		}
		req, err := http.NewRequest(method, u, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, u, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading response: %w", method, u, err)
	}
	if resp.StatusCode/100 != 2 {
		var eb api.Error
		msg := strings.TrimSpace(string(raw))
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		if router.RetryableStatus(resp.StatusCode) {
			return nil, fmt.Errorf("%s %s: server still shedding after retries (%d): %s", method, u, resp.StatusCode, msg)
		}
		return nil, fmt.Errorf("%s %s: %d: %s", method, u, resp.StatusCode, msg)
	}
	return raw, nil
}

// printJSON re-indents the server's response for the terminal.
func printJSON(raw json.RawMessage) error {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		_, werr := os.Stdout.Write(raw)
		return werr
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runRemote dispatches the CLI's query flags against the server.
// -enumerate/-explain stay local-graph operations; -apply posts the batch
// to the fleet's mutation endpoint (through a router it lands on the
// elected primary and replicates from there).
func runRemote(rc *remoteClient, pathSpec, source, target, measure string, k int, raw bool,
	batchFile, applyFile string, relevanceQ bool, sourceType, targetType, weighting string, maxLen, maxPaths int, why int) error {
	// Each mode is one request: a GET with parameters or a POST with a body.
	method, endpoint := http.MethodPost, ""
	var q url.Values
	var body []byte
	switch {
	case applyFile != "":
		return runRemoteApply(rc, applyFile)

	case batchFile != "":
		var err error
		if body, err = readFileOrStdin(batchFile); err != nil {
			return err
		}
		endpoint = "/v1/batch"

	case relevanceQ:
		if source == "" || sourceType == "" || targetType == "" {
			return fmt.Errorf("-relevance needs -source, -source-type and -target-type")
		}
		req := api.RelevanceRequest{
			Source: source, SourceType: sourceType, Target: target, TargetType: targetType,
			Weighting: weighting, Raw: raw, MaxLen: max(maxLen, 0), MaxPaths: max(maxPaths, 0),
		}
		if target == "" {
			req.K = k
		}
		body, _ = json.Marshal(req)
		endpoint = "/v1/relevance"

	case pathSpec != "" && source != "":
		method, endpoint = http.MethodGet, "/v1/topk"
		q = url.Values{"path": {pathSpec}, "source": {source}}
		if raw {
			q.Set("raw", "true")
		}
		switch {
		case target != "" && why > 0:
			endpoint = "/v1/why"
			q.Set("target", target)
			q.Set("k", strconv.Itoa(why))
		case target != "":
			endpoint = "/v1/pair"
			q.Set("target", target)
		default:
			q.Set("k", strconv.Itoa(k))
		}
		if measure != "" && measure != "hetesim" && endpoint != "/v1/why" {
			q.Set("measure", measure)
		}

	default:
		return fmt.Errorf("-server supports -path queries, -batch, -relevance, and -apply (local-only modes: -enumerate, -explain)")
	}
	out, err := rc.call(method, endpoint, q, body)
	if err != nil {
		return err
	}
	return printJSON(out)
}

// runRemoteApply posts a mutation batch file to POST /v1/admin/edges. The
// file is the local -apply format plus an optional "key" — an idempotency
// key the server dedups on, so re-running the command after a dropped
// connection cannot double-apply the batch. The file is validated locally
// before anything is sent: a typo'd field fails here, not after a network
// round trip.
func runRemoteApply(rc *remoteClient, applyFile string) error {
	raw, err := readFileOrStdin(applyFile)
	if err != nil {
		return err
	}
	var batch api.EdgesRequest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		return fmt.Errorf("decoding mutation batch %s: %w", applyFile, err)
	}
	if len(batch.Ops) == 0 {
		return fmt.Errorf("mutation batch %s has no ops", applyFile)
	}
	body, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	out, err := rc.call(http.MethodPost, "/v1/admin/edges", nil, body)
	if err != nil {
		return err
	}
	return printJSON(out)
}

func readFileOrStdin(name string) ([]byte, error) {
	if name == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(name)
}
