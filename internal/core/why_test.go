package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hetesim/internal/hin"
	"hetesim/internal/metapath"
)

func TestPairContributionsSumToScore(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBibGraph(seed)
		e := NewEngine(g)
		p := metapath.MustParse(g.Schema(), testPaths[rng.Intn(len(testPaths))])
		src := rng.Intn(g.NodeCount(p.Source()))
		dst := rng.Intn(g.NodeCount(p.Target()))
		exact, err := e.PairByIndex(context.Background(), p, src, dst)
		if err != nil {
			return false
		}
		total, contribs, err := e.PairContributions(context.Background(), p, src, dst, 1<<30, false)
		if err != nil {
			return false
		}
		if math.Abs(total-exact) > 1e-10 {
			return false
		}
		var sum, fracSum float64
		for i, c := range contribs {
			sum += c.Value
			fracSum += c.Fraction
			if i > 0 && c.Value > contribs[i-1].Value {
				return false // must be sorted descending
			}
			if c.Label == "" {
				return false
			}
		}
		if math.Abs(sum-exact) > 1e-10 {
			return false
		}
		return exact == 0 || math.Abs(fracSum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPairContributionsLabels(t *testing.T) {
	g := fig4Graph(t)
	e := NewEngine(g)
	// Even path APC: walkers meet at papers; Tom and KDD meet at p1, p2.
	p := metapath.MustParse(g.Schema(), "APC")
	tom, _ := g.NodeIndex("author", "Tom")
	kdd, _ := g.NodeIndex("conference", "KDD")
	score, contribs, err := e.PairContributions(context.Background(), p, tom, kdd, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if score <= 0 || len(contribs) != 2 {
		t.Fatalf("score=%v contribs=%v", score, contribs)
	}
	labels := map[string]bool{}
	for _, c := range contribs {
		labels[c.Label] = true
	}
	if !labels["p1"] || !labels["p2"] {
		t.Errorf("labels = %v, want p1 and p2", labels)
	}
	// Odd path AP: walkers meet inside the writes relation instances.
	ap := metapath.MustParse(g.Schema(), "AP")
	p2i, _ := g.NodeIndex("paper", "p2")
	_, contribs, err = e.PairContributions(context.Background(), ap, tom, p2i, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(contribs) != 1 || contribs[0].Label != "Tom->p2" {
		t.Errorf("odd-path contributions = %v", contribs)
	}
}

func TestPairContributionsTopKTruncation(t *testing.T) {
	g := fig4Graph(t)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APC")
	tom, _ := g.NodeIndex("author", "Tom")
	kdd, _ := g.NodeIndex("conference", "KDD")
	score, contribs, err := e.PairContributions(context.Background(), p, tom, kdd, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(contribs) != 1 {
		t.Fatalf("contribs = %d, want 1", len(contribs))
	}
	// Score is still the full total, not just the returned share.
	exact, _ := e.PairByIndex(context.Background(), p, tom, kdd)
	if math.Abs(score-exact) > 1e-12 {
		t.Errorf("score = %v, want %v", score, exact)
	}
}

func TestPairContributionsValidation(t *testing.T) {
	g := fig4Graph(t)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APC")
	if _, _, err := e.PairContributions(context.Background(), p, 0, 0, 0, false); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := e.PairContributions(context.Background(), p, 99, 0, 1, false); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("bad src err = %v", err)
	}
	if _, _, err := e.PairContributions(context.Background(), p, 0, 99, 1, false); !errors.Is(err, hin.ErrUnknownNode) {
		t.Errorf("bad dst err = %v", err)
	}
}

func TestPairContributionsDisjointSupports(t *testing.T) {
	g := fig4Graph(t)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), "APC")
	tom, _ := g.NodeIndex("author", "Tom")
	sigmod, _ := g.NodeIndex("conference", "SIGMOD")
	score, contribs, err := e.PairContributions(context.Background(), p, tom, sigmod, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if score != 0 || len(contribs) != 0 {
		t.Errorf("disjoint pair: score=%v contribs=%v", score, contribs)
	}
}
