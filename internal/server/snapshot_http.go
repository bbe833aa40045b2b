package server

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"

	"hetesim/internal/api"
	"hetesim/internal/obs"
	"hetesim/internal/snapshot"
)

// Snapshot shipping: GET /v1/admin/snapshot streams the serving engines'
// chain cache through the same encoder the on-disk snapshot uses, so a
// fresh replica can boot warm from a peer instead of rematerializing. The encoder sorts its sections, so the same cache state
// always encodes to the same bytes — which is what makes offset-based resumption sound: a
// client that lost the stream mid-body retries with ?offset=N and If-Match
// carrying the ETag it saw; if the cache advanced in between, the ETag no
// longer matches, the server answers 412, and the client restarts from 0
// rather than splicing bytes from two different snapshots.
var (
	metSnapshotStreams = obs.Default().Counter("hetesim_snapshot_stream_total",
		"Snapshot streams started over GET /v1/admin/snapshot.")
	metSnapshotResumes = obs.Default().Counter("hetesim_snapshot_stream_resume_total",
		"Snapshot streams resumed from a non-zero offset.")
)

// handleSnapshot is GET /v1/admin/snapshot: stream the chain cache,
// resumable. ?offset=N skips the first N bytes; If-Match must then carry
// the ETag of the stream being resumed (412 on mismatch — the cache moved
// on and the partial download is for a snapshot that no longer exists).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	es := s.current()
	var buf bytes.Buffer
	snap, err := exportSnapshot(es)
	if err == nil {
		err = snapshot.Write(&buf, snap)
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError,
			api.Error{Error: "encoding snapshot: " + err.Error(), Code: "snapshot_encode_failed"})
		return
	}
	raw, fp := buf.Bytes(), es.fingerprint
	etag := fmt.Sprintf("\"%016x-%08x\"", fp, crc32.ChecksumIEEE(raw))

	offset, err := intParam(r.URL.Query(), "offset", 0, 0)
	if err != nil {
		writeError(w, err)
		return
	}
	if offset > 0 {
		if im := r.Header.Get("If-Match"); im != "" && im != etag {
			// The resume target is a different snapshot than the one the
			// client started downloading; splicing would corrupt it.
			w.Header().Set("ETag", etag)
			writeJSON(w, http.StatusPreconditionFailed,
				api.Error{Error: "snapshot changed since the interrupted download; restart from offset 0", Code: "snapshot_changed"})
			return
		}
		if offset > len(raw) {
			w.Header().Set("ETag", etag)
			writeJSON(w, http.StatusRequestedRangeNotSatisfiable,
				api.Error{Error: fmt.Sprintf("offset %d beyond snapshot size %d", offset, len(raw)), Code: "bad_offset"})
			return
		}
		metSnapshotResumes.Inc()
	}
	metSnapshotStreams.Inc()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Hetesim-Fingerprint", fmt.Sprintf("%016x", fp))
	w.Header().Set("X-Hetesim-Snapshot-Size", strconv.Itoa(len(raw)))
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)-offset))
	w.WriteHeader(http.StatusOK)
	w.Write(raw[offset:])
}
