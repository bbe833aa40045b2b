package relevance

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"hetesim/internal/api"
	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
)

// testEngine builds a random bibliographic network with four relations, so
// author→author enumerates several paths of lengths 2 and 4.
func testEngine(tb testing.TB, seed int64) *core.Engine {
	tb.Helper()
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
	nA, nP, nV, nT := 24, 60, 6, 10
	for i := 0; i < nP; i++ {
		pid := "p" + strconv.Itoa(i)
		for k := 0; k < 1+rng.Intn(3); k++ {
			b.AddEdge("writes", "a"+strconv.Itoa(rng.Intn(nA)), pid)
		}
		b.AddEdge("published_in", pid, "v"+strconv.Itoa(rng.Intn(nV)))
		b.AddEdge("mentions", pid, "t"+strconv.Itoa(rng.Intn(nT)))
	}
	for i := 0; i < nV; i++ {
		b.AddEdge("part_of", "v"+strconv.Itoa(i), "c"+strconv.Itoa(rng.Intn(2)))
	}
	return core.NewEngine(b.MustBuild(), core.WithNormalization(true))
}

// TestPairEnsembleMatchesSoloWeightedSum is the differential test of the
// ensemble: under every weighting mode, the auto score equals the weighted
// sum of solo Pair scores computed on a fresh engine — exactly, bit for
// bit, because author→author paths in this schema are all even-length, the
// batch subset rows are bit-identical to solo vector propagation, and both
// sides accumulate in the same canonical path order.
func TestPairEnsembleMatchesSoloWeightedSum(t *testing.T) {
	src, dst := 2, 7
	o := Options{MaxLen: 4, MaxPaths: 8}
	for _, mode := range []string{WeightUniform, WeightDegree, WeightLearned} {
		e := testEngine(t, 9)
		opts := o
		opts.Weighting = mode
		if mode == WeightLearned {
			opts.Learned = map[string]float64{"APA": 0.55, "APVPA": 0.3, "APTPA": 0.15}
		}
		res, err := Pair(context.Background(), e, "author", src, "author", dst, opts)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Partial {
			t.Fatalf("%s: unexpected partial: %+v", mode, res)
		}

		// Recompute solo on a fresh engine, same enumeration, same weights.
		fresh := testEngine(t, 9)
		paths, err := metapath.EnumerateWith(fresh.Graph().Schema(), "author", "author",
			metapath.EnumerateOptions{MaxLen: opts.MaxLen, MaxPaths: opts.MaxPaths, DedupReverse: true})
		if err != nil {
			t.Fatal(err)
		}
		weights, err := Weigh(fresh.Graph(), paths, mode, opts.Learned)
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		n := 0
		for i, p := range paths {
			if weights[i] == 0 {
				continue
			}
			v, err := fresh.PairByIndex(context.Background(), p, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if res.Paths[n].Path != p.String() || res.Paths[n].Weight != weights[i] {
				t.Fatalf("%s: contribution %d = %+v, want path %s weight %v",
					mode, n, res.Paths[n], p, weights[i])
			}
			if got := res.Paths[n].Score; got == nil || *got != v {
				t.Errorf("%s: path %s batch score %v != solo %v", mode, p, got, v)
			}
			want += weights[i] * v
			n++
		}
		if res.Score != want {
			t.Errorf("%s: ensemble %v != weighted solo sum %v", mode, res.Score, want)
		}
	}
}

func TestPairExplicitPaths(t *testing.T) {
	e := testEngine(t, 11)
	res, err := Pair(context.Background(), e, "author", 0, "author", 1, Options{
		Paths: []string{"APA", "APVPA"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 2 || res.Paths[0].Path != "APA" || res.Paths[1].Path != "APVPA" {
		t.Fatalf("paths = %+v", res.Paths)
	}
	for _, ps := range res.Paths {
		if ps.Weight != 0.5 {
			t.Errorf("path %s weight %v, want uniform 0.5", ps.Path, ps.Weight)
		}
	}
	// A path that parses but connects the wrong endpoints is a bad option.
	if _, err := Pair(context.Background(), e, "author", 0, "author", 1, Options{
		Paths: []string{"APVC"},
	}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("wrong-endpoint path err = %v", err)
	}
	if _, err := Pair(context.Background(), e, "author", 0, "author", 1, Options{
		Paths: []string{"not a path"},
	}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("junk path err = %v", err)
	}
}

func TestPairWeightingValidation(t *testing.T) {
	e := testEngine(t, 13)
	if _, err := Pair(context.Background(), e, "author", 0, "author", 1, Options{
		Weighting: WeightLearned,
	}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("learned without weights err = %v", err)
	}
	if _, err := Pair(context.Background(), e, "author", 0, "author", 1, Options{
		Weighting: "bogus",
	}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("unknown weighting err = %v", err)
	}
	// Learned weights naming no enumerated path zero out everything.
	if _, err := Pair(context.Background(), e, "author", 0, "author", 1, Options{
		Weighting: WeightLearned,
		Learned:   map[string]float64{"APVC": 1},
	}); !errors.Is(err, ErrNoPaths) {
		t.Errorf("all-zero weights err = %v", err)
	}
	if _, err := Pair(context.Background(), e, "author", 0, "author", 1, Options{
		Weighting: WeightLearned,
		Learned:   map[string]float64{"APA": -1},
	}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("negative weight err = %v", err)
	}
}

func TestPairNoPaths(t *testing.T) {
	// term→conference requires length 3 (TPVC); a cap of 2 leaves nothing.
	e := testEngine(t, 15)
	if _, err := Pair(context.Background(), e, "term", 0, "conference", 0, Options{
		MaxLen: 2,
	}); !errors.Is(err, ErrNoPaths) {
		t.Errorf("err = %v, want ErrNoPaths", err)
	}
}

// TestPairPartialFailure: a blown per-path deadline excludes that path but
// still answers; with every path excluded, the answer carries no score.
func TestPairPartialFailure(t *testing.T) {
	e := testEngine(t, 19)
	res, err := Pair(context.Background(), e, "author", 1, "author", 2, Options{
		PerPathTimeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("expected partial result")
	}
	for _, ps := range res.Paths {
		if ps.Error == "" {
			t.Errorf("path %s should have failed under 1ns deadline", ps.Path)
		}
	}
	if res.Score != 0 || res.Scored != 0 || res.PairScore() != nil {
		t.Errorf("score = %v (scored %d, pair score %v) with every path excluded", res.Score, res.Scored, res.PairScore())
	}
}

// TestAssembleFailedMember: the one mapping from a failed Outcome to its
// wire form, for both surfaces. A path that ran and failed — a direct batch
// error (no code) or a replica slot's deadline_exceeded, canceled or
// internal — reads path_failed; a path refused before it ran keeps its
// refusal's code; neither carries a score or a plan, nor counts as scored.
func TestAssembleFailedMember(t *testing.T) {
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddRelation("writes", "author", "paper")
	p := metapath.MustParse(s, "APA")
	for code, want := range map[string]string{
		"": "path_failed", "deadline_exceeded": "path_failed", "canceled": "path_failed", "internal": "path_failed",
		"not_found": "not_found", "replica_unavailable": "replica_unavailable", "stale_replicas": "stale_replicas",
	} {
		res := Assemble([]*metapath.Path{p, p}, []float64{0.5, 0.5}, []Outcome{
			{Score: 0.25, Plan: "solo"},
			{Score: 0.75, Plan: "solo", Shared: true, Err: "boom", Code: code},
		})
		failed := api.RelevancePath{Path: "APA", Weight: 0.5, Error: "boom", Code: want}
		if res.Paths[1] != failed || !res.Partial || res.Scored != 1 || res.Score != 0.125 {
			t.Errorf("code %q: %+v (partial %v, scored %d, score %v), want failed member %+v",
				code, res.Paths[1], res.Partial, res.Scored, res.Score, failed)
		}
		if ok := res.Paths[0]; ok.Score == nil || *ok.Score != 0.25 || ok.Plan != "solo" || ok.Code != "" {
			t.Errorf("code %q: scored member %+v", code, ok)
		}
	}
}

// TestSpentDeadlineFailsPaths: a deadline miss has no approximate fallback.
// A spent query deadline fails the whole pair or top-k ensemble with
// context.DeadlineExceeded; a spent per-path deadline fails each member path
// alone as path_failed, so a top-k ensemble ranks nothing.
func TestSpentDeadlineFailsPaths(t *testing.T) {
	e := testEngine(t, 17)
	spent, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if res, err := Pair(spent, e, "author", 1, "author", 2, Options{}); !errors.Is(err, context.DeadlineExceeded) || res != nil {
		t.Errorf("pair under a spent deadline = %+v, %v; want context.DeadlineExceeded", res, err)
	}
	if res, _, err := TopK(spent, e, "author", 1, "conference", 3, Options{}); !errors.Is(err, context.DeadlineExceeded) || res != nil {
		t.Errorf("top-k under a spent deadline = %+v, %v; want context.DeadlineExceeded", res, err)
	}

	res, ranked, err := TopK(context.Background(), e, "author", 1, "conference", 3, Options{
		PerPathTimeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Scored != 0 || len(ranked) != 0 {
		t.Errorf("top-k with every path past its deadline: partial %v, scored %d, ranked %v", res.Partial, res.Scored, ranked)
	}
	for _, ps := range res.Paths {
		if ps.Error == "" || ps.Code != "path_failed" || ps.Score != nil || ps.Plan != "" {
			t.Errorf("path %s = %+v, want a path_failed exclusion", ps.Path, ps)
		}
	}
}

func TestTopKMatchesHandCombination(t *testing.T) {
	e := testEngine(t, 21)
	src, k := 3, 5
	res, ranked, err := TopK(context.Background(), e, "author", src, "conference", k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("unexpected partial: %+v", res)
	}
	fresh := testEngine(t, 21)
	paths, err := metapath.EnumerateWith(fresh.Graph().Schema(), "author", "conference",
		metapath.EnumerateOptions{MaxLen: 4, MaxPaths: 16, DedupReverse: true})
	if err != nil {
		t.Fatal(err)
	}
	weights, err := Weigh(fresh.Graph(), paths, WeightUniform, nil)
	if err != nil {
		t.Fatal(err)
	}
	combined := make([]float64, fresh.Graph().NodeCount("conference"))
	for i, p := range paths {
		ss, err := fresh.SingleSourceByIndex(context.Background(), p, src)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range ss {
			combined[j] += weights[i] * v
		}
	}
	want := rankTopK(combined, k)
	if len(ranked) != len(want) {
		t.Fatalf("ranked %d entries, want %d", len(ranked), len(want))
	}
	for i := range want {
		if ranked[i].Index != want[i].Index || ranked[i].Score != want[i].Score {
			t.Errorf("rank %d = %+v, want %+v", i, ranked[i], want[i])
		}
	}
}

func TestLoadWeightsFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.json", `{"weights": {"APA": 0.6, "APVPA": 0.4}}`)
	w, err := LoadWeightsFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if w["APA"] != 0.6 || w["APVPA"] != 0.4 {
		t.Errorf("weights = %v", w)
	}
	if _, err := LoadWeightsFile(write("junk.json", "{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := LoadWeightsFile(write("empty.json", `{"weights": {}}`)); !errors.Is(err, ErrBadOptions) {
		t.Errorf("empty weights err = %v", err)
	}
	if _, err := LoadWeightsFile(write("neg.json", `{"weights": {"APA": -0.5}}`)); !errors.Is(err, ErrBadOptions) {
		t.Errorf("negative weight err = %v", err)
	}
	if _, err := LoadWeightsFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestWeightsMap(t *testing.T) {
	e := testEngine(t, 23)
	s := e.Graph().Schema()
	paths := []*metapath.Path{
		metapath.MustParse(s, "APA"),
		metapath.MustParse(s, "APVPA"),
	}
	m := WeightsMap(paths, []float64{0.7, 0.3})
	if m["APA"] != 0.7 || m["APVPA"] != 0.3 {
		t.Errorf("map = %v", m)
	}
}

func TestPairBadIndex(t *testing.T) {
	e := testEngine(t, 25)
	res, err := Pair(context.Background(), e, "author", 9999, "author", 0, Options{})
	if err != nil {
		t.Fatal(err) // per-query validation is positional, not batch-fatal
	}
	if !res.Partial {
		t.Error("out-of-range source should fail every path")
	}
	for _, ps := range res.Paths {
		if ps.Error == "" {
			t.Errorf("path %s accepted index 9999", ps.Path)
		}
	}
}
