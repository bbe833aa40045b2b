package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"hetesim/internal/sparse"
)

func testSnapshot() *Snapshot {
	return &Snapshot{
		Fingerprint: 0xdeadbeefcafef00d,
		PruneEps:    1e-6,
		Sections: []Section{
			{Name: "meta", Data: []byte(`{"saved_by":"test"}`)},
			{Name: "chain:C:write|cite~", Data: bytes.Repeat([]byte{7, 1}, 300)},
			{Name: "empty", Data: nil},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	want := testSnapshot()
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != want.Fingerprint || got.PruneEps != want.PruneEps {
		t.Errorf("header round trip: got %x/%g want %x/%g",
			got.Fingerprint, got.PruneEps, want.Fingerprint, want.PruneEps)
	}
	if len(got.Sections) != len(want.Sections) {
		t.Fatalf("sections: got %d want %d", len(got.Sections), len(want.Sections))
	}
	for i, sec := range got.Sections {
		if sec.Name != want.Sections[i].Name || !bytes.Equal(sec.Data, want.Sections[i].Data) {
			t.Errorf("section %d differs", i)
		}
	}
}

// TestEveryTruncationRejected chops the serialized snapshot at every length
// shorter than the whole file; each prefix must be rejected, never accepted.
func TestEveryTruncationRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for n := 0; n < len(raw); n++ {
		if _, err := Read(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes was accepted", n, len(raw))
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrMismatch) {
			t.Fatalf("truncation to %d: error %v is not ErrCorrupt/ErrMismatch", n, err)
		}
	}
}

// TestEveryBitFlipRejected flips a bit in every byte of the file; every
// flip must be caught by one of the checksums or structural checks.
func TestEveryBitFlipRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for off := 0; off < len(raw); off++ {
		for _, mask := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), raw...)
			mut[off] ^= mask
			if _, err := Read(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit flip at byte %d (mask %#x) was accepted", off, mask)
			}
		}
	}
}

func TestVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // version byte; header CRC now also mismatches — either way rejected
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("accepted bumped version")
	}
}

// TestCheckCompat: a header's pruneEps field is read as before, and only a
// zero value — exact chains, what every writer stores — loads.
func TestCheckCompat(t *testing.T) {
	reread := func(eps float64) *Snapshot {
		s := testSnapshot()
		s.PruneEps = eps
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	s := reread(0)
	if err := s.CheckCompat(s.Fingerprint); err != nil {
		t.Fatalf("exact chains of the same graph: %v", err)
	}
	if err := s.CheckCompat(s.Fingerprint + 1); !errors.Is(err, ErrMismatch) {
		t.Fatalf("wrong fingerprint: err = %v, want ErrMismatch", err)
	}
	pruned := reread(1e-6)
	if err := pruned.CheckCompat(pruned.Fingerprint); !errors.Is(err, ErrMismatch) {
		t.Fatalf("non-zero prune eps: err = %v, want ErrMismatch", err)
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	want := testSnapshot()
	if err := Save(OS{}, path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != want.Fingerprint || len(got.Sections) != len(want.Sections) {
		t.Fatalf("loaded snapshot differs: %+v", got)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after save, want just the snapshot", len(entries))
	}
	// A missing snapshot is reported as not-exist, the cold-start signal.
	if _, err := Load(OS{}, filepath.Join(dir, "nope.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want ErrNotExist", err)
	}
}

func TestChainsCodec(t *testing.T) {
	chains := map[string]*sparse.Matrix{
		"C:write":       sparse.New(3, 4, []sparse.Triplet{{Row: 0, Col: 1, Val: 0.5}, {Row: 2, Col: 3, Val: 1}}),
		"C:write|cite~": sparse.New(2, 2, nil),
	}
	s := &Snapshot{Fingerprint: 1}
	if err := EncodeChains(s, chains); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeChains(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(chains) {
		t.Fatalf("decoded %d chains, want %d", len(got), len(chains))
	}
	for k, m := range chains {
		gm, ok := got[k]
		if !ok {
			t.Fatalf("chain %q missing after round trip", k)
		}
		if !reflect.DeepEqual(gm.Triplets(), m.Triplets()) || gm.Rows() != m.Rows() || gm.Cols() != m.Cols() {
			t.Errorf("chain %q differs after round trip", k)
		}
	}
}

// TestChainPayloadSizeGuard hand-crafts a chain section whose matrix header
// declares far more entries than the payload carries; the decoder must
// reject it before allocating for the declared size.
func TestChainPayloadSizeGuard(t *testing.T) {
	var buf bytes.Buffer
	if err := sparse.WriteMatrix(&buf, sparse.New(2, 2, []sparse.Triplet{{Row: 0, Col: 0, Val: 1}})); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// nnz lives at bytes 24..32; claim 2^33 entries.
	for i := 24; i < 32; i++ {
		raw[i] = 0
	}
	raw[28] = 2 // 2 << 32
	s := &Snapshot{Sections: []Section{{Name: "chain:x", Data: raw}}}
	if _, err := DecodeChains(s); err == nil {
		t.Fatal("oversized nnz declaration was accepted")
	}
}

// A version-1 snapshot must still load under the version-2 reader and
// re-serialize at its own version.
func TestOldVersionSnapshotStillLoads(t *testing.T) {
	s := &Snapshot{Fingerprint: 11, PruneEps: 0, version: 1}
	if err := EncodeChains(s, map[string]*sparse.Matrix{
		"C:w": sparse.New(2, 2, []sparse.Triplet{{Row: 1, Col: 0, Val: 0.5}}),
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[4]; got != 1 {
		t.Fatalf("written version byte = %d, want 1", got)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("version-1 snapshot rejected: %v", err)
	}
	chains, err := DecodeChains(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(chains))
	}
	// Round trip stays canonical at the original version.
	var again bytes.Buffer
	if err := Write(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("version-1 snapshot did not round-trip byte-identically")
	}
}

func TestFutureVersionRejected(t *testing.T) {
	s := &Snapshot{version: Version + 1}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestEmbedSectionsSkippedButChecksummed is the compatibility contract with
// snapshots written by builds that had the topk-approx plan: an "embed:"
// section is carried through Read/Write as opaque bytes, DecodeChains returns
// exactly the chains, and the CRCs keep covering what is skipped — a flipped
// byte inside the embed payload fails the whole file. The second row is a
// file such a build wrote (its exportSnapshot, after a forced topk-approx
// query on the server tests' reloadGraph).
func TestEmbedSectionsSkippedButChecksummed(t *testing.T) {
	synthetic := &Snapshot{Fingerprint: 42}
	if err := EncodeChains(synthetic, map[string]*sparse.Matrix{
		"C:w": sparse.New(2, 3, []sparse.Triplet{{Row: 0, Col: 2, Val: 0.5}}),
	}); err != nil {
		t.Fatal(err)
	}
	synthetic.Sections = append(synthetic.Sections,
		Section{Name: "embed:E:2:C:w", Data: []byte("HEMB opaque to this build")})
	var buf bytes.Buffer
	if err := Write(&buf, synthetic); err != nil {
		t.Fatal(err)
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "v2_with_embeds.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		raw    []byte
		chains []string
	}{
		{"synthetic", buf.Bytes(), []string{"C:w"}},
		{"written by the parent build", fixture,
			[]string{"C:writes", "C:writes|published_in", "T:C:writes|published_in"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Read(bytes.NewReader(tc.raw))
			if err != nil {
				t.Fatal(err)
			}
			if s.version != Version {
				t.Errorf("version = %d, want %d", s.version, Version)
			}
			var again bytes.Buffer
			if err := Write(&again, s); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), tc.raw) {
				t.Error("snapshot with an embed: section did not round-trip byte-identically")
			}
			chains, err := DecodeChains(s)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for k := range chains {
				got = append(got, k)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, tc.chains) {
				t.Errorf("chains = %q, want exactly %q", got, tc.chains)
			}

			off := bytes.Index(tc.raw, []byte("HEMB"))
			if off < 0 {
				t.Fatal("no embed payload in the file; the test proves nothing")
			}
			flipped := append([]byte(nil), tc.raw...)
			flipped[off+5] ^= 0x01
			if _, err := Read(bytes.NewReader(flipped)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("byte flip inside the embed: payload: err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestOddChainFixtureDecodes pins the codec side of the odd-path chains older
// builds wrote: v2_with_odd_chains.snap (the server tests' reloadGraph after
// APCPA and APCP queries, written by a build that met odd paths on the
// edge-object type) reads, round-trips byte-identically and decodes to all
// seven chains, "SE(…)"/"TE(…)" keys included — skipping them is the engine's
// call, and the format version stays 2.
func TestOddChainFixtureDecodes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v2_with_odd_chains.snap"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if s.version != Version || Version != 2 {
		t.Errorf("version = %d (build %d), want 2", s.version, Version)
	}
	var again bytes.Buffer
	if err := Write(&again, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Error("fixture did not round-trip byte-identically")
	}
	chains, err := DecodeChains(s)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range chains {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"C:published_in", "C:published_in|TE(published_in)", "C:writes",
		"C:writes|SE(published_in)", "C:writes|published_in",
		"T:C:published_in|TE(published_in)", "T:C:writes|published_in"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("chains = %q, want %q", got, want)
	}
}
