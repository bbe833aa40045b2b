package datagen

import (
	"fmt"
	"math/rand"
	"slices"

	"hetesim/internal/hin"
)

// DBLPAreaNames are the four research areas of the paper's DBLP subset
// (Section 5.1), which naturally form the four ground-truth classes.
var DBLPAreaNames = []string{
	"database",
	"data mining",
	"information retrieval",
	"artificial intelligence",
}

// DBLPConferences are 20 conferences, five per area in DBLPAreaNames order.
var DBLPConferences = []string{
	"SIGMOD", "VLDB", "ICDE", "PODS", "EDBT",
	"KDD", "ICDM", "SDM", "PKDD", "PAKDD",
	"SIGIR", "ECIR", "CIKM", "WWW", "WSDM",
	"IJCAI", "AAAI", "ICML", "ECML", "UAI",
}

func dblpAreaOfConf(c int) int { return c / 5 }

// DBLPConfig sizes the synthetic DBLP network.
type DBLPConfig struct {
	Papers  int
	Authors int
	Terms   int
	// LabeledAuthors is how many of the most prolific authors carry an
	// area label (the paper labels 4057 of 14K authors); 0 labels all.
	LabeledAuthors int
	// LabeledPapers is how many papers carry a label (the paper labels
	// 100); 0 labels all.
	LabeledPapers int
	Seed          int64
}

// DefaultDBLPConfig mirrors the shape of the paper's DBLP subset at a scale
// that keeps every experiment laptop-fast: the paper's 14K papers / 14K
// authors / 8.9K terms shrink proportionally while the 20 conferences, the
// four areas and the labeling protocol (a prolific-author subset and a
// 100-paper subset) are preserved.
func DefaultDBLPConfig() DBLPConfig {
	return DBLPConfig{
		Papers:         4200,
		Authors:        4200,
		Terms:          2600,
		LabeledAuthors: 1200,
		LabeledPapers:  100,
		Seed:           1,
	}
}

// SmallDBLPConfig is a reduced network for tests.
func SmallDBLPConfig() DBLPConfig {
	return DBLPConfig{
		Papers:         600,
		Authors:        500,
		Terms:          300,
		LabeledAuthors: 150,
		LabeledPapers:  60,
		Seed:           1,
	}
}

// DBLPSchema returns the network schema of Fig. 3(b): authors (A), papers
// (P), conferences (C), terms (T), with papers published directly in
// conferences.
func DBLPSchema() *hin.Schema {
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("conference", 'C')
	s.MustAddType("term", 'T')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("published_in", "paper", "conference")
	s.MustAddRelation("mentions", "paper", "term")
	return s
}

// DBLP generates a synthetic DBLP-style four-area network: 20 conferences
// (5 per area), Zipf author productivity, area-focused publishing, and
// area-specific term vocabularies. Conferences are all labeled; authors and
// papers are labeled per the configuration's protocol.
func DBLP(cfg DBLPConfig) (*Dataset, error) {
	if cfg.Papers <= 0 || cfg.Authors <= 0 || cfg.Terms <= 0 {
		return nil, fmt.Errorf("datagen: all DBLP sizes must be positive: %+v", cfg)
	}
	if cfg.LabeledAuthors < 0 || cfg.LabeledAuthors > cfg.Authors {
		return nil, fmt.Errorf("datagen: LabeledAuthors %d outside [0,%d]", cfg.LabeledAuthors, cfg.Authors)
	}
	if cfg.LabeledPapers < 0 || cfg.LabeledPapers > cfg.Papers {
		return nil, fmt.Errorf("datagen: LabeledPapers %d outside [0,%d]", cfg.LabeledPapers, cfg.Papers)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := hin.NewBuilder(DBLPSchema())
	nAreas := len(DBLPAreaNames)
	nConf := len(DBLPConferences)

	confsByArea := make([][]int, nAreas)
	for c := 0; c < nConf; c++ {
		confsByArea[dblpAreaOfConf(c)] = append(confsByArea[dblpAreaOfConf(c)], c)
	}
	conference := newNodes(b, "conference", nConf, named(DBLPConferences))
	conference.all()

	authors := buildAuthors(rng, cfg.Authors, nAreas, confsByArea, 8)
	author := newNodes(b, "author", cfg.Authors, prefixed("author"))
	author.all()
	groups := groupMembers(authors)
	paper := newNodes(b, "paper", cfg.Papers, prefixed("paper"))
	term := newNodes(b, "term", cfg.Terms, prefixed("term"))

	termPerm := rng.Perm(cfg.Terms)
	termSamplers := make([]*sampler, nAreas)
	for a := 0; a < nAreas; a++ {
		termSamplers[a] = permutedZipf(cfg.Terms, 1.05, termPerm, a*cfg.Terms/nAreas)
	}

	lead := newSampler(zipfWeights(cfg.Authors, 0.35))
	paperArea := make([]int, cfg.Papers)
	for p := 0; p < cfg.Papers; p++ {
		la := lead.draw(rng)
		am := authors[la]
		area := am.area
		if rng.Float64() < 0.04 {
			area = rng.Intn(nAreas)
		}
		paperArea[p] = area
		var conf int
		switch {
		case rng.Float64() < 0.06:
			conf = rng.Intn(nConf)
		case area == am.area && rng.Float64() < am.focus:
			conf = am.favConf
		default:
			confs := confsByArea[area]
			conf = confs[rng.Intn(len(confs))]
		}
		pid := paper.of(p)
		b.AddEdgeIndex("published_in", pid, conference.of(conf), 1)
		b.AddEdgeIndex("writes", author.of(la), pid, 1)
		var wrote [5]int
		byline := append(wrote[:0], la)
		pool := groups[[2]int{am.area, am.group}]
		for k, nCo := 0, coauthorCount(rng, la, cfg.Authors); k < nCo; k++ {
			// Co-authors come mostly from the lead's group; a sizable
			// minority are cross-area collaborations drawn from the
			// global productivity distribution — the dilution that
			// makes author-mediated paper similarity weak (the paper's
			// Table 6 reading of the PAPCPAP path).
			var co int
			if len(pool) > 1 && rng.Float64() < 0.7 {
				co = pool[rng.Intn(len(pool))]
			} else {
				co = lead.draw(rng)
			}
			if !slices.Contains(byline, co) {
				byline = append(byline, co)
				b.AddEdgeIndex("writes", author.of(co), pid, 1)
			}
		}
		for k, nT := 0, 4+rng.Intn(5); k < nT; k++ {
			b.AddEdgeIndex("mentions", pid, term.of(termSamplers[area].draw(rng)), 1)
		}
	}

	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	ds := &Dataset{
		Graph:     g,
		AreaNames: append([]string(nil), DBLPAreaNames...),
		Labels:    make(map[string][]int),
	}
	confLabels := make([]int, g.NodeCount("conference"))
	for c := range confLabels {
		confLabels[c] = dblpAreaOfConf(c)
	}
	ds.Labels["conference"] = confLabels

	// Author labels: the most prolific LabeledAuthors (by written papers)
	// carry their home area, mirroring the paper's labeling of active
	// authors; everyone is labeled when LabeledAuthors is 0.
	authorLabels := make([]int, g.NodeCount("author"))
	if cfg.LabeledAuthors == 0 {
		for i := range authorLabels {
			authorLabels[i] = authors[i].area
		}
	} else {
		for i := range authorLabels {
			authorLabels[i] = -1
		}
		w, err := g.Adjacency("writes")
		if err != nil {
			return nil, err
		}
		counts := make([]float64, g.NodeCount("author"))
		for i := range counts {
			counts[i] = float64(w.RowNNZ(i))
		}
		for _, i := range topIndices(counts, cfg.LabeledAuthors) {
			authorLabels[i] = authors[i].area
		}
	}
	ds.Labels["author"] = authorLabels

	paperLabels := make([]int, g.NodeCount("paper"))
	if cfg.LabeledPapers == 0 {
		copy(paperLabels, paperArea)
	} else {
		for i := range paperLabels {
			paperLabels[i] = -1
		}
		// Label an evenly spread sample of papers, as the paper labels
		// a 100-paper subset.
		stride := cfg.Papers / cfg.LabeledPapers
		if stride == 0 {
			stride = 1
		}
		for k := 0; k < cfg.LabeledPapers; k++ {
			paperLabels[k*stride] = paperArea[k*stride]
		}
	}
	ds.Labels["paper"] = paperLabels
	return ds, nil
}

// topIndices returns the indices of the k largest values (descending, ties
// by index).
func topIndices(vals []float64, k int) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	// Simple partial selection is fine at generator scale.
	for i := 0; i < k && i < len(idx); i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if vals[idx[j]] > vals[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
