package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hetesim/internal/api"
	"hetesim/internal/hin"
	"hetesim/internal/obs"
	"hetesim/internal/snapshot"
)

// State transfer: GET /v1/admin/state ships one serving generation — its
// graph, the WAL sequence the graph embodies and the relevance paths the
// replica materializes — as one snapshot container: a "graph" section
// (hin.Write bytes), a "seq" section (u64) and the "specs" section the
// on-disk snapshot holds too, under the graph's fingerprint. A resyncing
// follower adopts graph and seq from one response and rebuilds the paths;
// -warm-from rebuilds the paths alone. Chains are never shipped: rebuilding
// them costs about what decoding them did. Readers skip section names they
// do not know, so a saved body also warm-starts a replica through
// WithSnapshotPath.
//
// One generation and path list always encode to the same bytes, so the body
// is resumable: ?offset=N with If-Match carrying the ETag (fingerprint, seq,
// body CRC) continues a torn stream, and a state that moved on in between
// answers 412, on which the client restarts from zero rather than splice two
// states. snapshot.Read then validates every CRC of the assembled bytes.
var (
	metStateStreams = obs.Default().Counter("hetesim_state_stream_total",
		"State transfers served over GET /v1/admin/state.")
	metStateResumes = obs.Default().Counter("hetesim_state_stream_resume_total",
		"State transfers served from a non-zero offset.")
	metStateRestarts = obs.Default().Counter("hetesim_state_fetch_restart_total",
		"State fetches restarted from zero because the peer's state changed mid-download.")
)

const (
	stateGraphSection  = "graph"
	stateSeqSection    = "seq"
	stateFetchAttempts = 5 // requests per fetch, resumes and restarts included
)

// encodeState serializes es and the path list specs as a state container.
func encodeState(es *engineSet, specs []string) ([]byte, error) {
	var g, buf bytes.Buffer
	if err := hin.Write(&g, es.g); err != nil {
		return nil, err
	}
	snap := &snapshot.Snapshot{Fingerprint: es.fingerprint, Sections: []snapshot.Section{
		{Name: stateGraphSection, Data: g.Bytes()},
		{Name: stateSeqSection, Data: binary.LittleEndian.AppendUint64(nil, es.seq)},
	}}
	snapshot.EncodeSpecs(snap, specs)
	err := snapshot.Write(&buf, snap)
	return buf.Bytes(), err
}

// decodeState extracts the graph and WAL sequence a state container
// carries, checking the graph against the header fingerprint.
func decodeState(snap *snapshot.Snapshot) (*hin.Graph, uint64, error) {
	var (
		g   *hin.Graph
		seq []byte
		err error
	)
	for _, sec := range snap.Sections {
		switch sec.Name {
		case stateGraphSection:
			if g, err = hin.Read(bytes.NewReader(sec.Data)); err != nil {
				return nil, 0, fmt.Errorf("server: decoding transferred graph: %w", err)
			}
		case stateSeqSection:
			seq = sec.Data
		}
	}
	if g == nil || len(seq) != 8 {
		return nil, 0, errors.New("server: state carries no graph and seq sections")
	}
	if fp := g.Fingerprint(); fp != snap.Fingerprint {
		return nil, 0, fmt.Errorf("server: transferred graph fingerprint %016x does not match the state's %016x", fp, snap.Fingerprint)
	}
	return g, binary.LittleEndian.Uint64(seq), nil
}

// handleState is GET /v1/admin/state: the serving generation as a state
// container, resumable. ?offset=N skips the first N bytes; If-Match must
// then carry the ETag of the stream being resumed (412 on mismatch — the
// partial download is of a state that no longer exists).
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	offset, err := intParam(r.URL.Query(), "offset", 0, 0)
	if err != nil {
		writeError(w, err)
		return
	}
	es := s.current()
	raw, err := encodeState(es, s.st.specList())
	if err != nil {
		writeJSON(w, http.StatusInternalServerError,
			api.Error{Error: "encoding state: " + err.Error(), Code: "state_encode_failed"})
		return
	}
	// The body's CRC is the container's trailing file CRC: a CRC over the
	// whole body, that trailer included, is the same constant for every body.
	etag := fmt.Sprintf("\"%016x-%d-%08x\"", es.fingerprint, es.seq, binary.LittleEndian.Uint32(raw[len(raw)-4:]))
	w.Header().Set("ETag", etag)
	if offset > 0 {
		if im := r.Header.Get("If-Match"); im != "" && im != etag {
			writeJSON(w, http.StatusPreconditionFailed,
				api.Error{Error: "state changed since the interrupted download; restart from offset 0", Code: "state_changed"})
			return
		}
		if offset > len(raw) {
			writeJSON(w, http.StatusRequestedRangeNotSatisfiable,
				api.Error{Error: fmt.Sprintf("offset %d beyond state size %d", offset, len(raw)), Code: "bad_offset"})
			return
		}
		metStateResumes.Inc()
	}
	metStateStreams.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)-offset))
	w.Write(raw[offset:])
}

// fetchState downloads a peer's state from base+/v1/admin/state — the one
// client behind a follower's resync and -warm-from — resuming a torn stream
// from the offset it reached and restarting from zero when the peer's state
// moved on, within stateFetchAttempts requests. It returns the container
// fully validated; decodeState reads its graph and sequence.
func fetchState(ctx context.Context, client *http.Client, base string) (*snapshot.Snapshot, error) {
	base = strings.TrimRight(base, "/")
	var (
		buf  bytes.Buffer
		etag string
		last error
		wait bool // the last attempt failed: back off before the next
	)
	for attempt := 0; attempt < stateFetchAttempts; attempt++ {
		if wait {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(100 * time.Millisecond << attempt):
			}
			wait = false
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/admin/state?offset=%d", base, buf.Len()), nil)
		if err != nil {
			return nil, err
		}
		if etag != "" {
			req.Header.Set("If-Match", etag)
		}
		resp, err := client.Do(req)
		if err != nil {
			last, wait = err, true
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			etag = resp.Header.Get("ETag")
			_, last = buf.ReadFrom(resp.Body)
		case http.StatusPreconditionFailed, http.StatusRequestedRangeNotSatisfiable:
			metStateRestarts.Inc()
			buf.Reset()
			etag, last = "", fmt.Errorf("peer state changed mid-download (status %d)", resp.StatusCode)
		default:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			last, wait = fmt.Errorf("GET /v1/admin/state: status %d: %s", resp.StatusCode, truncateBody(body)), true
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || last != nil {
			continue // back off, restart, or resume a torn body from where it broke
		}
		snap, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("server: decoding state from %s: %w", base, err)
		}
		return snap, nil
	}
	return nil, fmt.Errorf("server: fetching state from %s: %w", base, last)
}
