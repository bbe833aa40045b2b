package hetesim

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"hetesim/internal/baseline"
	"hetesim/internal/core"
	"hetesim/internal/datagen"
	"hetesim/internal/hin"
	"hetesim/internal/learn"
	"hetesim/internal/metapath"
	"hetesim/internal/relevance"
	"hetesim/internal/server"
	"hetesim/internal/snapshot"
)

// TestEndToEndPipeline exercises the full production flow across packages:
// generate a dataset, serialize and reload the graph, snapshot a
// materialized path's name, rebuild it in a fresh engine from the snapshot,
// and serve queries over HTTP — verifying scores stay identical at every
// boundary.
func TestEndToEndPipeline(t *testing.T) {
	ds, err := datagen.ACM(datagen.ACMConfig{
		Papers: 300, Authors: 250, Affiliations: 30,
		Terms: 80, Subjects: 15, Years: 3, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph

	// Graph round trip through the JSON format.
	var gbuf bytes.Buffer
	if err := hin.Write(&gbuf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := hin.Read(&gbuf)
	if err != nil {
		t.Fatal(err)
	}

	p := metapath.MustParse(g.Schema(), "APVC")
	e1 := core.NewEngine(g)
	e2 := core.NewEngine(g2)
	ref, err := e1.SingleSourceByIndex(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2 := metapath.MustParse(g2.Schema(), "APVC")
	got, err := e2.SingleSourceByIndex(context.Background(), p2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ref {
		if math.Abs(ref[j]-got[j]) > 1e-12 {
			t.Fatalf("scores differ after graph round trip at %d", j)
		}
	}

	// Materialization round trip into a third engine, the way snapshots
	// carry it: the path name crosses the container, the chains are rebuilt.
	snap := &snapshot.Snapshot{Fingerprint: g.Fingerprint()}
	snapshot.EncodeSpecs(snap, []string{p.String()})
	var sbuf bytes.Buffer
	if err := snapshot.Write(&sbuf, snap); err != nil {
		t.Fatal(err)
	}
	snap, err = snapshot.Read(&sbuf)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.CheckCompat(g2.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	e3 := core.NewEngine(g2)
	for _, spec := range snapshot.DecodeSpecs(snap) {
		if err := e3.Precompute(context.Background(), metapath.MustParse(g2.Schema(), spec)); err != nil {
			t.Fatal(err)
		}
	}
	if e3.CacheStats().Chain == 0 {
		t.Fatal("no chains rebuilt from the snapshot's path list")
	}
	got3, err := e3.SingleSourceByIndex(context.Background(), p2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ref {
		if math.Abs(ref[j]-got3[j]) > 1e-12 {
			t.Fatalf("scores differ after snapshot round trip at %d", j)
		}
	}

	// HTTP server over the reloaded graph.
	ts := httptest.NewServer(server.New(g2).Handler())
	defer ts.Close()
	aid, err := g.NodeID("author", 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/pair?path=APVC&source=" + aid + "&target=KDD")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server status = %d", resp.StatusCode)
	}
	var pair struct {
		Score float64 `json:"score"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pair); err != nil {
		t.Fatal(err)
	}
	kdd, err := g.NodeIndex("conference", "KDD")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pair.Score-ref[kdd]) > 1e-12 {
		t.Errorf("HTTP score = %v, want %v", pair.Score, ref[kdd])
	}
}

// TestLearnedMixtureBeatsSinglePath trains path weights on planted area
// labels and checks the learned mixture is at least as good as the worst
// candidate path on held-out pairs — the end-to-end use of the learning
// extension over generated data.
func TestLearnedMixtureBeatsSinglePath(t *testing.T) {
	ds, err := datagen.DBLP(datagen.SmallDBLPConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	e := core.NewEngine(g)
	paths := []*metapath.Path{
		metapath.MustParse(g.Schema(), "CPA"),
		metapath.MustParse(g.Schema(), "CPTPA"),
	}
	// Training pairs: conference-author with label 1 when areas match.
	var examples []learn.Example
	authors := ds.LabeledIndices("author")
	for ci := 0; ci < g.NodeCount("conference"); ci++ {
		for k := 0; k < 10; k++ {
			a := authors[(ci*17+k*31)%len(authors)]
			label := 0.0
			if ds.AreaOf("conference", ci) == ds.AreaOf("author", a) {
				label = 1
			}
			examples = append(examples, learn.Example{Src: ci, Dst: a, Label: label})
		}
	}
	w, err := learn.PathWeights(context.Background(), e, paths, examples, learn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if w[0] < 0 || w[1] < 0 {
		t.Fatalf("negative weights: %v", w)
	}
	if w[0]+w[1] == 0 {
		t.Fatal("learner zeroed all paths")
	}
	// The learned mixture, scored by the relevance ensemble, must produce
	// finite, non-negative scores that favor same-area authors on average.
	opts := relevance.Options{
		Paths:     []string{paths[0].String(), paths[1].String()},
		Weighting: relevance.WeightLearned,
		Learned:   relevance.WeightsMap(paths, w),
	}
	var same, diff float64
	var nSame, nDiff int
	for ci := 0; ci < g.NodeCount("conference"); ci++ {
		_, ranked, err := relevance.TopK(context.Background(), e, "conference", ci, "author", g.NodeCount("author"), opts)
		if err != nil {
			t.Fatal(err)
		}
		scores := make([]float64, g.NodeCount("author")) // unranked authors score 0
		for _, s := range ranked {
			if s.Score < 0 || math.IsInf(s.Score, 0) || math.IsNaN(s.Score) {
				t.Fatalf("conference %d: author %d scores %v", ci, s.Index, s.Score)
			}
			scores[s.Index] = s.Score
		}
		for _, a := range authors {
			if ds.AreaOf("conference", ci) == ds.AreaOf("author", a) {
				same += scores[a]
				nSame++
			} else {
				diff += scores[a]
				nDiff++
			}
		}
	}
	if same/float64(nSame) <= diff/float64(nDiff) {
		t.Errorf("learned mixture does not separate areas: same=%v diff=%v",
			same/float64(nSame), diff/float64(nDiff))
	}
}

// TestBaselineMeasuresOnGeneratedData smoke-tests every measure end to end
// on one generated network.
func TestBaselineMeasuresOnGeneratedData(t *testing.T) {
	ds, err := datagen.DBLP(datagen.SmallDBLPConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	e := core.NewEngine(g)
	cpa := metapath.MustParse(g.Schema(), "CPA")
	apcpa := metapath.MustParse(g.Schema(), "APCPA")

	if _, err := e.SingleSource(context.Background(), cpa, "KDD"); err != nil {
		t.Errorf("HeteSim: %v", err)
	}
	if _, err := baseline.NewPCRWFromEngine(e).SingleSource(context.Background(), cpa, "KDD"); err != nil {
		t.Errorf("PCRW: %v", err)
	}
	if _, err := baseline.NewPathSim(g).SingleSourceByIndex(context.Background(), apcpa, 0); err != nil {
		t.Errorf("PathSim: %v", err)
	}
	ppr, err := baseline.NewPPR(g, 0.85, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ppr.FromIndex("conference", 0, "author"); err != nil {
		t.Errorf("PPR: %v", err)
	}
}
