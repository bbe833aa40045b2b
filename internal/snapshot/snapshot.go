// Package snapshot implements the durable, verifiable container behind
// hetesimd's warm start and its state transfer: a versioned, checksummed
// binary file of named sections keyed to a fingerprint of the graph they
// belong to. What a server writes into it is names, not matrices: a "specs"
// section lists the relevance paths it materializes (Section 4.6's offline
// speed-up, rebuilt from the graph at boot), and GET /v1/admin/state adds
// the graph and its WAL sequence. The chains codec (chains.go) still maps
// materialized chain matrices onto "chain:" sections for the benchmarks
// that price the old way; readers skip section names they do not decode.
//
// The format is defensive by construction. Every region of the file is
// covered by a CRC — the fixed header by a header CRC, each section by a
// per-section CRC, and the whole byte stream by a trailing file CRC behind
// a closing magic — so truncation, bit flips, and torn writes are detected
// no matter where they land. A snapshot that fails any check is rejected
// with a reason wrapped around ErrCorrupt; callers fall back to cold
// recomputation and never serve from a bad snapshot.
//
// Layout (little-endian):
//
//	header   magic "HSNP" | version u32 | fingerprint u64 | prune eps f64 |
//	         sectionCount u32 | headerCRC u32 (CRC-32/IEEE of the 28 bytes above)
//	section  nameLen u16 | name | dataLen u64 | data |
//	         sectionCRC u32 (CRC-32/IEEE of name and data bytes)
//	footer   magic "PNSH" | fileCRC u32 (CRC-32/IEEE of every preceding byte)
//
// Writing the file is the snapshot package's other half: Save writes to a
// temp file in the destination directory, fsyncs it, atomically renames it
// over the target, and fsyncs the directory, so a crash at any byte leaves
// either the old snapshot or the new one — never a half-written file that
// passes validation.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
)

// ErrCorrupt marks a snapshot that failed structural validation: bad magic,
// truncated stream, CRC mismatch, or an implausible length prefix.
var ErrCorrupt = errors.New("snapshot: corrupt")

// ErrMismatch marks a structurally valid snapshot that belongs to different
// state: wrong format version, wrong graph fingerprint, or chains pruned by
// an engine option older builds had (a non-zero prune eps).
var ErrMismatch = errors.New("snapshot: mismatch")

var (
	headerMagic = [4]byte{'H', 'S', 'N', 'P'}
	footerMagic = [4]byte{'P', 'N', 'S', 'H'}
)

// Version is the current snapshot format version. Version 2 once meant "may
// carry embed:<key> sections" (a deleted approximate top-k plan's); this build
// writes none and skips them on load, like any section name it does not know,
// after Read has verified their CRC. It stays 2 because a version-2 reader
// reads everything this build writes; version-1 files remain readable.
const Version = 2

// minVersion is the oldest format version Read still accepts.
const minVersion = 1

const (
	maxSections    = 1 << 20 // sanity cap on the section count prefix
	maxSectionData = 1 << 40 // sanity cap on a section's length prefix
	copyChunk      = 1 << 20 // incremental read granularity for section data
)

// Section is one named, independently checksummed payload. The snapshot
// layer treats payloads as opaque bytes; the specs and chains codecs in
// this package give two kinds of them a meaning.
type Section struct {
	Name string
	Data []byte
}

// Snapshot is the in-memory form of a snapshot file: identification of the
// state it belongs to, plus its sections.
type Snapshot struct {
	Fingerprint uint64  // hin.Graph.Fingerprint of the producing graph
	PruneEps    float64 // per-step chain truncation of older builds: written 0, refused unless 0
	Sections    []Section

	// version is the format version the snapshot was read with; Write
	// re-serializes at the same version so Read→Write round-trips are
	// byte-identical across format revisions. Zero (a freshly built
	// snapshot) writes the current Version.
	version uint32
}

// specsSection names the section that lists relevance path specs, one per
// line.
const specsSection = "specs"

// EncodeSpecs appends the specs section listing specs in order.
func EncodeSpecs(s *Snapshot, specs []string) {
	s.Sections = append(s.Sections, Section{Name: specsSection, Data: []byte(strings.Join(specs, "\n"))})
}

// DecodeSpecs returns the specs the snapshot lists, in order; nil when it
// has no specs section (a file older builds wrote holds chains instead).
func DecodeSpecs(s *Snapshot) []string {
	for _, sec := range s.Sections {
		if sec.Name == specsSection && len(sec.Data) > 0 {
			return strings.Split(string(sec.Data), "\n")
		}
	}
	return nil
}

// CheckCompat reports whether the snapshot belongs to the graph with the
// given fingerprint, with a reason when it does not. Engines build exact
// chains only, so a non-zero PruneEps (older builds' truncated chains) is refused;
// keeping the header field costs no format version. Version compatibility
// is already enforced by Read.
func (s *Snapshot) CheckCompat(fingerprint uint64) error {
	if s.Fingerprint != fingerprint {
		return fmt.Errorf("%w: snapshot is for graph fingerprint %016x, not %016x",
			ErrMismatch, s.Fingerprint, fingerprint)
	}
	if s.PruneEps != 0 {
		return fmt.Errorf("%w: snapshot chains were pruned with eps %g, engines build exact chains",
			ErrMismatch, s.PruneEps)
	}
	return nil
}

// Write serializes the snapshot to w in the checksummed binary format.
func Write(w io.Writer, s *Snapshot) error {
	if len(s.Sections) > maxSections {
		return fmt.Errorf("snapshot: %d sections exceeds the format cap %d", len(s.Sections), maxSections)
	}
	fileCRC := crc32.NewIEEE()
	out := io.MultiWriter(w, fileCRC)

	ver := s.version
	if ver == 0 {
		ver = Version
	}
	var hdr bytes.Buffer
	hdr.Write(headerMagic[:])
	binary.Write(&hdr, binary.LittleEndian, ver)
	binary.Write(&hdr, binary.LittleEndian, s.Fingerprint)
	binary.Write(&hdr, binary.LittleEndian, s.PruneEps)
	binary.Write(&hdr, binary.LittleEndian, uint32(len(s.Sections)))
	binary.Write(&hdr, binary.LittleEndian, crc32.ChecksumIEEE(hdr.Bytes()))
	if _, err := out.Write(hdr.Bytes()); err != nil {
		return err
	}

	for _, sec := range s.Sections {
		if len(sec.Name) > 1<<16-1 {
			return fmt.Errorf("snapshot: section name %q longer than 64 KiB", sec.Name[:64])
		}
		if uint64(len(sec.Data)) > maxSectionData {
			return fmt.Errorf("snapshot: section %q data exceeds the format cap", sec.Name)
		}
		if err := binary.Write(out, binary.LittleEndian, uint16(len(sec.Name))); err != nil {
			return err
		}
		if _, err := io.WriteString(out, sec.Name); err != nil {
			return err
		}
		if err := binary.Write(out, binary.LittleEndian, uint64(len(sec.Data))); err != nil {
			return err
		}
		if _, err := out.Write(sec.Data); err != nil {
			return err
		}
		crc := crc32.NewIEEE()
		crc.Write([]byte(sec.Name))
		crc.Write(sec.Data)
		if err := binary.Write(out, binary.LittleEndian, crc.Sum32()); err != nil {
			return err
		}
	}

	if _, err := out.Write(footerMagic[:]); err != nil {
		return err
	}
	// The footer magic is covered by the file CRC; the CRC itself is not.
	return binary.Write(w, binary.LittleEndian, fileCRC.Sum32())
}

// Read parses and fully validates a snapshot from r: header magic, version,
// header CRC, every section CRC, the footer magic, and the whole-file CRC.
// Length prefixes are capped and section data is read incrementally, so a
// hostile or corrupted stream can never force an allocation much larger
// than the bytes it actually provides.
func Read(r io.Reader) (*Snapshot, error) {
	fileCRC := crc32.NewIEEE()
	in := io.TeeReader(r, fileCRC)

	hdr := make([]byte, 32)
	if _, err := io.ReadFull(in, hdr); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:4], headerMagic[:]) {
		return nil, fmt.Errorf("%w: header magic %q", ErrCorrupt, hdr[:4])
	}
	if got := crc32.ChecksumIEEE(hdr[:28]); got != binary.LittleEndian.Uint32(hdr[28:32]) {
		return nil, fmt.Errorf("%w: header CRC mismatch", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint32(hdr[4:8])
	if v < minVersion || v > Version {
		return nil, fmt.Errorf("%w: format version %d, want %d..%d", ErrMismatch, v, minVersion, Version)
	}
	s := &Snapshot{
		Fingerprint: binary.LittleEndian.Uint64(hdr[8:16]),
		PruneEps:    math.Float64frombits(binary.LittleEndian.Uint64(hdr[16:24])),
		version:     v,
	}
	count := binary.LittleEndian.Uint32(hdr[24:28])
	if count > maxSections {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrCorrupt, count)
	}

	for i := uint32(0); i < count; i++ {
		var nameLen uint16
		if err := binary.Read(in, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("%w: section %d name length: %v", ErrCorrupt, i, err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(in, name); err != nil {
			return nil, fmt.Errorf("%w: section %d name: %v", ErrCorrupt, i, err)
		}
		var dataLen uint64
		if err := binary.Read(in, binary.LittleEndian, &dataLen); err != nil {
			return nil, fmt.Errorf("%w: section %q data length: %v", ErrCorrupt, name, err)
		}
		if dataLen > maxSectionData {
			return nil, fmt.Errorf("%w: section %q claims %d bytes, cap is %d", ErrCorrupt, name, dataLen, maxSectionData)
		}
		data, err := readAll(in, dataLen)
		if err != nil {
			return nil, fmt.Errorf("%w: section %q data: %v", ErrCorrupt, name, err)
		}
		var wantCRC uint32
		if err := binary.Read(in, binary.LittleEndian, &wantCRC); err != nil {
			return nil, fmt.Errorf("%w: section %q CRC: %v", ErrCorrupt, name, err)
		}
		crc := crc32.NewIEEE()
		crc.Write(name)
		crc.Write(data)
		if crc.Sum32() != wantCRC {
			return nil, fmt.Errorf("%w: section %q CRC mismatch", ErrCorrupt, name)
		}
		s.Sections = append(s.Sections, Section{Name: string(name), Data: data})
	}

	var foot [4]byte
	if _, err := io.ReadFull(in, foot[:]); err != nil {
		return nil, fmt.Errorf("%w: reading footer: %v", ErrCorrupt, err)
	}
	if foot != footerMagic {
		return nil, fmt.Errorf("%w: footer magic %q", ErrCorrupt, foot)
	}
	wantFile := fileCRC.Sum32() // everything up to and including the footer magic
	var gotFile uint32
	if err := binary.Read(r, binary.LittleEndian, &gotFile); err != nil {
		return nil, fmt.Errorf("%w: reading file CRC: %v", ErrCorrupt, err)
	}
	if gotFile != wantFile {
		return nil, fmt.Errorf("%w: file CRC mismatch", ErrCorrupt)
	}
	// The format is canonical: nothing may follow the file CRC.
	var trailing [1]byte
	if _, err := io.ReadFull(r, trailing[:]); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after file CRC", ErrCorrupt)
	}
	return s, nil
}

// readAll reads exactly n bytes in bounded chunks. Allocation tracks the
// bytes actually read, so a length prefix far larger than the remaining
// stream fails with a small buffer instead of a giant make().
func readAll(r io.Reader, n uint64) ([]byte, error) {
	var buf bytes.Buffer
	for n > 0 {
		chunk := int64(copyChunk)
		if uint64(chunk) > n {
			chunk = int64(n)
		}
		if _, err := io.CopyN(&buf, r, chunk); err != nil {
			return nil, err
		}
		n -= uint64(chunk)
	}
	return buf.Bytes(), nil
}
