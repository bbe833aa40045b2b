package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hetesim/internal/sparse"
)

// FuzzSnapshotDecode proves the snapshot reader never panics and never
// over-allocates on arbitrary bytes: length prefixes are capped and data is
// read incrementally, so memory tracks the input size, not the headers'
// claims. Anything Read accepts must round-trip byte-identically through
// Write, and its chain sections must decode without panicking.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed with a real snapshot (including a chain matrix), an empty one,
	// and adversarial variants: truncations, a flipped version, a section
	// count far beyond the data, and a huge section length prefix.
	full := &Snapshot{Fingerprint: 42, PruneEps: 1e-4}
	if err := EncodeChains(full, map[string]*sparse.Matrix{
		"C:w": sparse.New(2, 3, []sparse.Triplet{{Row: 0, Col: 2, Val: 0.5}}),
	}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, full); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("HSNP"))
	var empty bytes.Buffer
	if err := Write(&empty, &Snapshot{}); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	verFlip := append([]byte(nil), valid...)
	verFlip[4] = 9
	f.Add(verFlip)
	countBomb := append([]byte(nil), valid...)
	countBomb[24], countBomb[25], countBomb[26], countBomb[27] = 0xff, 0xff, 0xff, 0xff
	f.Add(countBomb)
	lenBomb := append([]byte(nil), valid...)
	if len(lenBomb) > 40 {
		for i := 34; i < 42 && i < len(lenBomb); i++ {
			lenBomb[i] = 0xff
		}
	}
	f.Add(lenBomb)
	// Seeds carrying an "embed:" section beside the chains, as opaque bytes:
	// a file written by a build that had the topk-approx plan, its first
	// half, the same bytes with the header downgraded to version 1 (CRC
	// breaks, must be rejected), and a flip inside the skipped payload.
	evalid, err := os.ReadFile(filepath.Join("testdata", "v2_with_embeds.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(evalid)
	f.Add(evalid[:len(evalid)/2])
	downgrade := append([]byte(nil), evalid...)
	downgrade[4] = 1
	f.Add(downgrade)
	flipped := append([]byte(nil), evalid...)
	if off := bytes.Index(flipped, []byte("HEMB")); off >= 0 {
		flipped[off+8] ^= 0xff
	}
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, s); err != nil {
			t.Fatalf("accepted snapshot does not re-serialize: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted snapshot is not canonical: %d bytes in, %d out", len(data), out.Len())
		}
		// Chain decoding must be total: reject or return, never panic.
		_, _ = DecodeChains(s)
	})
}
