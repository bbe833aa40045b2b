package learn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
)

// testGraph builds a random author/paper/venue/conference network.
func testGraph(seed int64) *hin.Graph {
	rng := rand.New(rand.NewSource(seed))
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("venue", 'V')
	s.MustAddType("conference", 'C')
	s.MustAddType("term", 'T')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("published_in", "paper", "venue")
	s.MustAddRelation("part_of", "venue", "conference")
	s.MustAddRelation("mentions", "paper", "term")
	b := hin.NewBuilder(s)
	nA, nP, nV, nC, nT := 20, 50, 8, 4, 12
	for p := 0; p < nP; p++ {
		pid := "p" + strconv.Itoa(p)
		for k := 0; k < 1+rng.Intn(2); k++ {
			b.AddEdge("writes", "a"+strconv.Itoa(rng.Intn(nA)), pid)
		}
		b.AddEdge("published_in", pid, "v"+strconv.Itoa(rng.Intn(nV)))
		for k := 0; k < 1+rng.Intn(3); k++ {
			b.AddEdge("mentions", pid, "t"+strconv.Itoa(rng.Intn(nT)))
		}
	}
	for v := 0; v < nV; v++ {
		b.AddNode("venue", "v"+strconv.Itoa(v))
		b.AddEdge("part_of", "v"+strconv.Itoa(v), "c"+strconv.Itoa(rng.Intn(nC)))
	}
	return b.MustBuild()
}

// trainingSet builds examples whose labels are an exact mixture of the
// candidate path scores.
func trainingSet(t *testing.T, e *core.Engine, paths []*metapath.Path, mix []float64, n int, seed int64) []Example {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := e.Graph()
	nS := g.NodeCount(paths[0].Source())
	nT := g.NodeCount(paths[0].Target())
	out := make([]Example, 0, n)
	for len(out) < n {
		src, dst := rng.Intn(nS), rng.Intn(nT)
		var y float64
		for k, p := range paths {
			v, err := e.PairByIndex(context.Background(), p, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			y += mix[k] * v
		}
		out = append(out, Example{Src: src, Dst: dst, Label: y})
	}
	return out
}

func TestPathWeightsRecoversMixture(t *testing.T) {
	g := testGraph(1)
	e := core.NewEngine(g)
	paths := []*metapath.Path{
		metapath.MustParse(g.Schema(), "APVC"),
		metapath.MustParse(g.Schema(), "APTPVC"),
	}
	mix := []float64{0.7, 0.3}
	examples := trainingSet(t, e, paths, mix, 120, 2)
	w, err := PathWeights(context.Background(), e, paths, examples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range mix {
		if math.Abs(w[k]-mix[k]) > 0.1 {
			t.Errorf("weight %d = %v, want ~%v", k, w[k], mix[k])
		}
	}
}

func TestPathWeightsSelectsSinglePath(t *testing.T) {
	g := testGraph(3)
	e := core.NewEngine(g)
	paths := []*metapath.Path{
		metapath.MustParse(g.Schema(), "APVC"),
		metapath.MustParse(g.Schema(), "APTPVC"),
	}
	// Labels come from the first path only: the learner should zero out
	// (or nearly zero out) the second — the "automatic path selection"
	// use case of Section 5.1.
	examples := trainingSet(t, e, paths, []float64{1, 0}, 150, 4)
	w, err := PathWeights(context.Background(), e, paths, examples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if w[0] < 0.8 {
		t.Errorf("w[0] = %v, want near 1", w[0])
	}
	if w[1] > 0.15 {
		t.Errorf("w[1] = %v, want near 0", w[1])
	}
}

// TestPathWeightsCancellation: a canceled or expired context stops both the
// per-example featurization loop and the gradient iterations promptly with
// the context's error, even though every per-example score is served from
// warm caches that never poll ctx themselves.
func TestPathWeightsCancellation(t *testing.T) {
	g := testGraph(13)
	e := core.NewEngine(g)
	paths := []*metapath.Path{
		metapath.MustParse(g.Schema(), "APVC"),
		metapath.MustParse(g.Schema(), "APTPVC"),
	}
	examples := trainingSet(t, e, paths, []float64{0.5, 0.5}, 40, 14)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PathWeights(canceled, e, paths, examples, Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx err = %v, want context.Canceled", err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := PathWeights(expired, e, paths, examples, Config{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired ctx err = %v, want context.DeadlineExceeded", err)
	}

	// The gradient loop checks too: cancel after featurization by racing a
	// huge iteration count against an already-short deadline.
	short, cancel3 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel3()
	_, err := PathWeights(short, e, paths, examples, Config{Iters: 1 << 30})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("mid-fit deadline err = %v, want context.DeadlineExceeded", err)
	}
}

func TestPathWeightsValidation(t *testing.T) {
	g := testGraph(5)
	e := core.NewEngine(g)
	apvc := metapath.MustParse(g.Schema(), "APVC")
	apt := metapath.MustParse(g.Schema(), "APT")
	exs := []Example{{0, 0, 1}}
	if _, err := PathWeights(context.Background(), e, nil, exs, Config{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("no paths err = %v", err)
	}
	if _, err := PathWeights(context.Background(), e, []*metapath.Path{apvc}, nil, Config{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("no examples err = %v", err)
	}
	if _, err := PathWeights(context.Background(), e, []*metapath.Path{apvc, apt}, exs, Config{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("mixed endpoints err = %v", err)
	}
	if _, err := PathWeights(context.Background(), e, []*metapath.Path{apvc},
		[]Example{{0, 0, math.NaN()}}, Config{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("NaN label err = %v", err)
	}
	if _, err := PathWeights(context.Background(), e, []*metapath.Path{apvc},
		[]Example{{999, 0, 1}}, Config{}); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("bad index err = %v", err)
	}
}
