package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"hetesim/internal/sparse"
)

// The chains codec maps an engine's materialized chain-matrix cache — the
// reachable-probability matrices PM_P of Definition 9, keyed by the chain
// cache key — onto snapshot sections named "chain:<key>". No server writes
// or reads them: a warm start rebuilds its chains from the specs section,
// which costs about what decoding them did. The codec stays for the
// benchmarks that price the decode against the rebuild.

const chainPrefix = "chain:"

// EncodeChains appends one section per chain matrix, in sorted key order so
// identical caches produce byte-identical snapshots.
func EncodeChains(s *Snapshot, chains map[string]*sparse.Matrix) error {
	keys := make([]string, 0, len(chains))
	for k := range chains {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var buf bytes.Buffer
		if err := sparse.WriteMatrix(&buf, chains[k]); err != nil {
			return fmt.Errorf("snapshot: encoding chain %q: %w", k, err)
		}
		s.Sections = append(s.Sections, Section{Name: chainPrefix + k, Data: buf.Bytes()})
	}
	return nil
}

// DecodeChains extracts every chain section back into a key → matrix map.
// Sections with other names are ignored, so the format can grow new section
// kinds without breaking old readers of the chains.
func DecodeChains(s *Snapshot) (map[string]*sparse.Matrix, error) {
	chains := make(map[string]*sparse.Matrix)
	for _, sec := range s.Sections {
		key, ok := strings.CutPrefix(sec.Name, chainPrefix)
		if !ok {
			continue
		}
		m, err := decodeMatrix(sec.Data)
		if err != nil {
			return nil, fmt.Errorf("%w: chain %q: %v", ErrCorrupt, key, err)
		}
		chains[key] = m
	}
	return chains, nil
}

// decodeMatrix parses one serialized sparse matrix, first checking that the
// declared dimensions account for exactly the bytes present. The check
// rejects a payload whose header promises billions of entries before any
// proportional allocation happens — the length-prefix cap the snapshot
// fuzzer locks in.
func decodeMatrix(data []byte) (*sparse.Matrix, error) {
	// Matrix layout: magic(4) version(4) rows(8) cols(8) nnz(8) then
	// rowPtr (rows+1)×8, colIdx nnz×8, val nnz×8.
	const headerLen = 4 + 4 + 8*3
	if len(data) < headerLen {
		return nil, fmt.Errorf("payload of %d bytes is shorter than a matrix header", len(data))
	}
	rows := binary.LittleEndian.Uint64(data[8:16])
	nnz := binary.LittleEndian.Uint64(data[24:32])
	want := uint64(headerLen) + (rows+1)*8 + nnz*16
	if rows > maxSectionData/8 || nnz > maxSectionData/16 || uint64(len(data)) != want {
		return nil, fmt.Errorf("payload is %d bytes, header declares %d (rows=%d nnz=%d)",
			len(data), want, rows, nnz)
	}
	return sparse.ReadMatrix(bytes.NewReader(data))
}
