package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hetesim/internal/chaos"
	"hetesim/internal/snapshot"
)

// stateServer is a ready server over reloadGraph(t, gen), served over
// httptest.
func stateServer(t *testing.T, gen int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(reloadGraph(t, gen), WithLogf(t.Logf))
	t.Cleanup(srv.Close)
	srv.MarkReady()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// groupBatch is two pair slots sharing the path's group: a solo slot would
// be answered by row propagation without materializing chains, and an empty
// chain cache would make a transferred state (and the tests) vacuous.
func groupBatch(path string) batchRequest {
	return batchRequest{Queries: []batchQueryBody{
		{Kind: "pair", Path: path, Source: "Tom", Target: "Mary"},
		{Kind: "pair", Path: path, Source: "Mary", Target: "Tom"},
	}}
}

// stateBytes GETs base's whole state with client and returns the body and
// its ETag.
func stateBytes(t *testing.T, client *http.Client, base string) ([]byte, string) {
	t.Helper()
	resp, err := client.Get(base + "/v1/admin/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/admin/state = %d, %v", resp.StatusCode, err)
	}
	return raw, resp.Header.Get("ETag")
}

// TestWarmFromState: a replica that warms from a peer's state rebuilds the
// paths the peer materializes and serves its first query on one of them
// warm — zero chain builds, the donor's score bits. A path only a query
// built on the donor is not in its state. A replica over a different graph
// rebuilds nothing and keeps its own graph and wal_seq: -warm-from never
// adopts the peer's.
func TestWarmFromState(t *testing.T) {
	donorSrv, donor := stateServer(t, 0)
	client := &http.Client{Timeout: 5 * time.Second}
	if err := donorSrv.Precompute("APCPA"); err != nil {
		t.Fatal(err)
	}
	// A query-built chain on another path: not a spec, not transferred.
	apc := batchRequest{Queries: []batchQueryBody{
		{Kind: "pair", Path: "APC", Source: "Tom", Target: "KDD"},
		{Kind: "pair", Path: "APC", Source: "Mary", Target: "KDD"},
	}}
	if status := callJSON(t, client, http.MethodPost, donor.URL+"/v1/batch", apc, nil); status != http.StatusOK {
		t.Fatalf("donor APC batch = %d", status)
	}
	var br batchResponse
	if status := callJSON(t, client, http.MethodPost, donor.URL+"/v1/batch", groupBatch("APCPA"), &br); status != http.StatusOK {
		t.Fatalf("donor batch = %d", status)
	}
	if br.Results[0].Error != "" || br.Results[0].Score == nil {
		t.Fatalf("donor result: %+v", br.Results[0])
	}
	donorScore := *br.Results[0].Score

	joiner, jts := stateServer(t, 0)
	n, err := joiner.WarmFrom(context.Background(), donor.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || fmt.Sprint(joiner.st.specList()) != "[APCPA]" {
		t.Fatalf("warming from the donor built %d paths and remembers %q, want the donor's one spec", n, joiner.st.specList())
	}
	br = batchResponse{}
	br.Stats.ChainBuilds = -1
	if status := callJSON(t, client, http.MethodPost, jts.URL+"/v1/batch", groupBatch("APCPA"), &br); status != http.StatusOK {
		t.Fatalf("joiner batch = %d", status)
	}
	if br.Results[0].Error != "" || br.Results[0].Score == nil {
		t.Fatalf("joiner result: %+v", br.Results[0])
	}
	if math.Float64bits(*br.Results[0].Score) != math.Float64bits(donorScore) {
		t.Fatalf("joiner score %v != donor score %v", *br.Results[0].Score, donorScore)
	}
	if br.Stats.ChainBuilds != 0 {
		t.Fatalf("joiner's first query built %d chains; a warm joiner must build none", br.Stats.ChainBuilds)
	}
	br = batchResponse{}
	if status := callJSON(t, client, http.MethodPost, jts.URL+"/v1/batch", apc, &br); status != http.StatusOK || br.Stats.ChainBuilds == 0 {
		t.Fatalf("joiner's APC batch = %d with %d chain builds; a path only a query built does not travel", status, br.Stats.ChainBuilds)
	}

	other, _ := stateServer(t, 1)
	before := other.current()
	if n, err := other.WarmFrom(context.Background(), donor.URL); !errors.Is(err, snapshot.ErrMismatch) || n != 0 {
		t.Fatalf("warming over a different graph: n=%d err=%v, want ErrMismatch", n, err)
	}
	if after := other.current(); after != before || other.current().engine.CacheStats().Chain != 0 || len(other.st.specList()) != 0 {
		t.Fatalf("a rejected warm-from moved the replica: fingerprint %016x seq %d -> %016x seq %d",
			before.fingerprint, before.seq, after.fingerprint, after.seq)
	}
}

// TestFetchStateTornStream: a mid-body connection reset during the state
// download resumes from the reached offset and yields the identical bytes;
// a state that moves on between the tear and the resume — one more path
// materialized — answers the resume 412 and the fetch restarts from zero,
// ending on the new state.
func TestFetchStateTornStream(t *testing.T) {
	donor, dts := stateServer(t, 0)
	client := &http.Client{Timeout: 5 * time.Second}
	for _, p := range []string{"APCPA", "APA"} {
		if err := donor.Precompute(p); err != nil {
			t.Fatal(err)
		}
	}
	encode := func(s *snapshot.Snapshot) []byte {
		var buf bytes.Buffer
		if err := snapshot.Write(&buf, s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	whole, _ := stateBytes(t, client, dts.URL)

	tr := &chaos.Transport{}
	torn := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	tr.ResetBodyAfter(64, 1) // the first stream dies after 64 bytes
	resumes := metStateResumes.Value()
	state, err := fetchState(context.Background(), torn, dts.URL)
	if err != nil {
		t.Fatalf("resumable fetch failed after a torn stream: %v", err)
	}
	if metStateResumes.Value() == resumes {
		t.Fatal("the fetch never resumed; the torn stream proves nothing")
	}
	if !bytes.Equal(encode(state), whole) {
		t.Fatal("the resumed state differs from the whole one")
	}
	if g, seq, err := decodeState(state); err != nil || g.Fingerprint() != donor.current().fingerprint || seq != 0 ||
		fmt.Sprint(snapshot.DecodeSpecs(state)) != "[APCPA APA]" {
		t.Fatalf("decoding the resumed state: seq %d, specs %q, err %v", seq, snapshot.DecodeSpecs(state), err)
	}

	// Tear again, and materialize one more path before the resume lands.
	moved := false
	tr.Base = roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.URL.Query().Get("offset") != "0" && !moved {
			moved = true
			if err := donor.Precompute("APC"); err != nil {
				return nil, err
			}
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	tr.ResetBodyAfter(64, 1)
	restarts := metStateRestarts.Value()
	if state, err = fetchState(context.Background(), torn, dts.URL); err != nil {
		t.Fatalf("fetch across a moved state: %v", err)
	}
	if !moved || metStateRestarts.Value() != restarts+1 {
		t.Fatalf("moved=%v, restarts %d -> %d; want one restart", moved, restarts, metStateRestarts.Value())
	}
	if now, _ := stateBytes(t, client, dts.URL); !bytes.Equal(encode(state), now) || bytes.Equal(now, whole) {
		t.Fatal("the restarted fetch does not hold the moved state")
	}
}

// TestStateResumePreconditions pins GET /v1/admin/state's resume surface: a
// resume under a stale ETag answers 412, an offset past the end 416, a
// malformed offset 400; the endpoints it replaced are gone.
func TestStateResumePreconditions(t *testing.T) {
	srv, ts := stateServer(t, 0)
	client := &http.Client{Timeout: 5 * time.Second}
	raw, etag := stateBytes(t, client, ts.URL)
	get := func(offset, ifMatch string) (int, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/admin/state?offset="+offset, nil)
		if ifMatch != "" {
			req.Header.Set("If-Match", ifMatch)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorBody
		if resp.StatusCode != http.StatusOK {
			json.NewDecoder(resp.Body).Decode(&e)
		}
		return resp.StatusCode, e.Code
	}
	if status, _ := get(fmt.Sprint(len(raw)), etag); status != http.StatusOK {
		t.Errorf("resume at the end = %d, want 200 with an empty body", status)
	}
	if status, code := get(fmt.Sprint(len(raw)+1), etag); status != http.StatusRequestedRangeNotSatisfiable || code != "bad_offset" {
		t.Errorf("offset past the end = %d %q, want 416 bad_offset", status, code)
	}
	if status, code := get("x", ""); status != http.StatusBadRequest || code != "bad_request" {
		t.Errorf("malformed offset = %d %q, want 400 bad_request", status, code)
	}
	if err := srv.Precompute("APC"); err != nil {
		t.Fatal(err)
	}
	if status, code := get("10", etag); status != http.StatusPreconditionFailed || code != "state_changed" {
		t.Errorf("resume under a stale ETag = %d %q, want 412 state_changed", status, code)
	}
	for _, gone := range []string{"/v1/admin/graph", "/v1/admin/snapshot"} {
		resp, err := client.Get(ts.URL + gone)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", gone, resp.StatusCode)
		}
	}
}
