package baseline

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"hetesim/internal/datagen"
	"hetesim/internal/metapath"
)

// TestPathSimPairMatchesTopKBitForBit holds a pair, its reverse and the
// matching top-k entry to the same bits on small ACM, and every self-score
// of a source with any path instance to exactly 1: all three divide by the
// one diagonal, c·c summed in the order Dot adds c_a·c_b.
func TestPathSimPairMatchesTopKBitForBit(t *testing.T) {
	ds, err := datagen.ACM(datagen.SmallACMConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	m := NewPathSim(g)
	ctx := context.Background()
	for _, spec := range []string{"APA", "APVPA", "APTPA", "APSPA"} {
		p := metapath.MustParse(g.Schema(), spec)
		compared := 0
		for a := 0; a < 40; a++ {
			top, err := m.SingleSourceByIndex(ctx, p, a)
			if err != nil {
				t.Fatal(err)
			}
			self, err := m.PairByIndex(ctx, p, a, a)
			if err != nil {
				t.Fatal(err)
			}
			related := false
			for b, want := range top {
				if want == 0 {
					continue
				}
				related = true
				ab, err := m.PairByIndex(ctx, p, a, b)
				if err != nil {
					t.Fatal(err)
				}
				ba, err := m.PairByIndex(ctx, p, b, a)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(ab) != math.Float64bits(want) || math.Float64bits(ba) != math.Float64bits(want) {
					t.Fatalf("%s: pair(%d,%d) = %v, pair(%d,%d) = %v, topk(%d)[%d] = %v", spec, a, b, ab, b, a, ba, a, b, want)
				}
				compared++
			}
			if related && (self != 1 || top[a] != 1) {
				t.Fatalf("%s: pair(%d,%d) = %v, topk(%d)[%d] = %v, want exactly 1", spec, a, a, self, a, a, top[a])
			}
			if !related && self != 0 {
				t.Fatalf("%s: source %d has no path but pair(%d,%d) = %v", spec, a, a, a, self)
			}
		}
		if compared == 0 {
			t.Fatalf("%s: no related pairs among sources 0-39", spec)
		}
	}
}

// TestPathSimPaperScaleDeadline: at paper scale a pair along the longest
// served half answers well inside a 100 ms deadline and allocates two
// half-count vectors, not the n×n count matrix (540 MB for APTPA); a top-k
// under a canceled context stops before its first step.
func TestPathSimPaperScaleDeadline(t *testing.T) {
	ds, err := datagen.ACM(datagen.DefaultACMConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	m := NewPathSim(g)
	for _, spec := range []string{"APVPA", "APVCVPA", "APTPA"} {
		p := metapath.MustParse(g.Schema(), spec)
		if _, err := m.PairByIndex(context.Background(), p, 0, 1); err != nil { // pools the kernel's scratch
			t.Fatal(err)
		}
		const deadline = 100 * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := m.PairByIndex(ctx, p, 0, 1)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		cancel()
		if err != nil || took > deadline {
			t.Errorf("%s pair: err %v after %v, want an answer within %v", spec, err, took, deadline)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
			t.Errorf("%s pair allocated %d bytes, want < 1 MB", spec, b)
		}
	}

	p := metapath.MustParse(g.Schema(), "APTPA")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.SingleSourceByIndex(ctx, p, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled top-k err = %v, want context.Canceled", err)
	}
	if _, err := m.Subset(ctx, p, []int{0, 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled subset err = %v, want context.Canceled", err)
	}
	if _, err := m.PairByIndex(ctx, p, 0, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled pair err = %v, want context.Canceled", err)
	}
}
