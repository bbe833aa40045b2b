package datagen

import (
	"fmt"
	"math/rand"
	"slices"

	"hetesim/internal/hin"
)

// ACMConferences are the 14 conferences of the paper's ACM dataset
// (Section 5.1), grouped below into five research areas.
var ACMConferences = []string{
	"KDD", "SIGMOD", "WWW", "SIGIR", "CIKM", "SODA", "STOC",
	"SOSP", "SPAA", "SIGCOMM", "MobiCOMM", "ICML", "COLT", "VLDB",
}

// ACMAreaNames names the planted research areas of the ACM generator.
var ACMAreaNames = []string{
	"data mining & machine learning",
	"databases",
	"web & information retrieval",
	"theory",
	"systems & networking",
}

// acmAreaOfConf maps each conference (by index into ACMConferences) to its
// area (by index into ACMAreaNames).
var acmAreaOfConf = []int{
	0, // KDD
	1, // SIGMOD
	2, // WWW
	2, // SIGIR
	2, // CIKM
	3, // SODA
	3, // STOC
	4, // SOSP
	3, // SPAA
	4, // SIGCOMM
	4, // MobiCOMM
	0, // ICML
	0, // COLT
	1, // VLDB
}

// ACMConfig sizes the synthetic ACM network. The defaults of
// DefaultACMConfig match the scale reported in Section 5.1 of the paper.
type ACMConfig struct {
	Papers       int
	Authors      int
	Affiliations int
	Terms        int
	Subjects     int
	Years        int // proceedings (venues) per conference
	Seed         int64
}

// DefaultACMConfig mirrors the paper's ACM dataset: 12K papers, 17K
// authors, 1.8K affiliations, 1.5K terms, 73 subjects, and 196 venues
// (14 proceedings for each of the 14 conferences).
func DefaultACMConfig() ACMConfig {
	return ACMConfig{
		Papers:       12000,
		Authors:      17000,
		Affiliations: 1800,
		Terms:        1500,
		Subjects:     73,
		Years:        14,
		Seed:         1,
	}
}

// SmallACMConfig is a reduced network with the same planted structure, for
// tests and quick runs.
func SmallACMConfig() ACMConfig {
	return ACMConfig{
		Papers:       800,
		Authors:      600,
		Affiliations: 60,
		Terms:        200,
		Subjects:     30,
		Years:        4,
		Seed:         1,
	}
}

// ACMSchema returns the network schema of Fig. 3(a): papers (P), authors
// (A), affiliations (F), terms (T), subjects (S), venues (V), conferences
// (C).
func ACMSchema() *hin.Schema {
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("affiliation", 'F')
	s.MustAddType("term", 'T')
	s.MustAddType("subject", 'S')
	s.MustAddType("venue", 'V')
	s.MustAddType("conference", 'C')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("affiliated_with", "author", "affiliation")
	s.MustAddRelation("mentions", "paper", "term")
	s.MustAddRelation("about", "paper", "subject")
	s.MustAddRelation("published_in", "paper", "venue")
	s.MustAddRelation("part_of", "venue", "conference")
	return s
}

// ACM generates a synthetic ACM-style network per the configuration. The
// planted structure: every author has a home area, a favorite conference
// and a co-author group; papers are led by Zipf-sampled authors, published
// overwhelmingly in the lead author's area, and draw terms and subjects
// from area-specific Zipf vocabularies; affiliations specialize by area.
// Authors, conferences, venues and papers carry area labels.
func ACM(cfg ACMConfig) (*Dataset, error) {
	if cfg.Papers <= 0 || cfg.Authors <= 0 || cfg.Affiliations <= 0 ||
		cfg.Terms <= 0 || cfg.Subjects <= 0 || cfg.Years <= 0 {
		return nil, fmt.Errorf("datagen: all ACM sizes must be positive: %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	schema := ACMSchema()
	b := hin.NewBuilder(schema)
	nAreas := len(ACMAreaNames)
	nConf := len(ACMConferences)

	confsByArea := make([][]int, nAreas)
	for c, a := range acmAreaOfConf {
		confsByArea[a] = append(confsByArea[a], c)
	}

	// Register conferences and their venues (proceedings): venue item
	// c*Years+y is conference c's proceedings of year y.
	conference := newNodes(b, "conference", nConf, named(ACMConferences))
	venue := newNodes(b, "venue", nConf*cfg.Years, func(v int) string {
		return pad(ACMConferences[v/cfg.Years]+"'", v%cfg.Years, 2)
	})
	venueArea := make([]int, 0, nConf*cfg.Years)
	for c := range ACMConferences {
		conf := conference.of(c)
		for y := 0; y < cfg.Years; y++ {
			b.AddEdgeIndex("part_of", venue.of(c*cfg.Years+y), conf, 1)
			venueArea = append(venueArea, acmAreaOfConf[c])
		}
	}

	// Authors with latent state, registered up front so indices are
	// stable and labels align.
	authors := buildAuthors(rng, cfg.Authors, nAreas, confsByArea, 10)
	author := newNodes(b, "author", cfg.Authors, prefixed("author"))
	author.all()
	groups := groupMembers(authors)
	paper := newNodes(b, "paper", cfg.Papers, prefixed("paper"))
	affil := newNodes(b, "affiliation", cfg.Affiliations, prefixed("affil"))
	term := newNodes(b, "term", cfg.Terms, prefixed("term"))
	subject := newNodes(b, "subject", cfg.Subjects, prefixed("subject"))

	// Affiliations: each author joins one, drawn from an area-specific
	// Zipf so each area has its dominant organizations.
	affPerm := rng.Perm(cfg.Affiliations)
	affSamplers := make([]*sampler, nAreas)
	for a := 0; a < nAreas; a++ {
		affSamplers[a] = permutedZipf(cfg.Affiliations, 1.1, affPerm, a*cfg.Affiliations/nAreas)
	}
	for i, a := range authors {
		b.AddEdgeIndex("affiliated_with", author.of(i), affil.of(affSamplers[a.area].draw(rng)), 1)
	}

	// Area-specific term and subject vocabularies (overlapping Zipf).
	termPerm := rng.Perm(cfg.Terms)
	subjPerm := rng.Perm(cfg.Subjects)
	termSamplers := make([]*sampler, nAreas)
	subjSamplers := make([]*sampler, nAreas)
	for a := 0; a < nAreas; a++ {
		termSamplers[a] = permutedZipf(cfg.Terms, 1.05, termPerm, a*cfg.Terms/nAreas)
		subjSamplers[a] = permutedZipf(cfg.Subjects, 1.3, subjPerm, a*cfg.Subjects/nAreas)
	}

	// Zipf productivity over authors.
	lead := newSampler(zipfWeights(cfg.Authors, 0.35))

	paperArea := make([]int, cfg.Papers)
	for p := 0; p < cfg.Papers; p++ {
		la := lead.draw(rng)
		am := authors[la]
		area := am.area
		if rng.Float64() < 0.05 { // occasional out-of-area paper
			area = rng.Intn(nAreas)
		}
		paperArea[p] = area

		// Conference choice: the lead author's favorite when it matches
		// the paper's area, otherwise an area conference; small chance
		// of publishing anywhere.
		var conf int
		switch {
		case rng.Float64() < 0.08:
			conf = rng.Intn(nConf)
		case area == am.area && rng.Float64() < am.focus:
			conf = am.favConf
		default:
			confs := confsByArea[area]
			conf = confs[rng.Intn(len(confs))]
		}
		pid := paper.of(p)
		b.AddEdgeIndex("published_in", pid, venue.of(conf*cfg.Years+rng.Intn(cfg.Years)), 1)

		// Authors: the lead plus co-authors drawn mostly from the
		// lead's group; the author set is deduplicated so writes stays
		// a 0/1 relation.
		b.AddEdgeIndex("writes", author.of(la), pid, 1)
		nCo := coauthorCount(rng, la, cfg.Authors)
		pool := groups[[2]int{am.area, am.group}]
		var wrote [5]int
		byline := append(wrote[:0], la)
		for k := 0; k < nCo; k++ {
			// Mostly in-group co-authors with a cross-area minority
			// from the global productivity distribution.
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

		// Terms and subjects from the paper area's vocabulary.
		nT := 5 + rng.Intn(6)
		for k := 0; k < nT; k++ {
			b.AddEdgeIndex("mentions", pid, term.of(termSamplers[area].draw(rng)), 1)
		}
		nS := 1 + rng.Intn(2)
		for k := 0; k < nS; k++ {
			b.AddEdgeIndex("about", pid, subject.of(subjSamplers[area].draw(rng)), 1)
		}
	}

	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	ds := &Dataset{
		Graph:     g,
		AreaNames: append([]string(nil), ACMAreaNames...),
		Labels:    make(map[string][]int),
	}
	authorLabels := make([]int, g.NodeCount("author"))
	for i := range authorLabels {
		authorLabels[i] = authors[i].area
	}
	ds.Labels["author"] = authorLabels
	confLabels := make([]int, g.NodeCount("conference"))
	for c := range confLabels {
		confLabels[c] = acmAreaOfConf[c]
	}
	ds.Labels["conference"] = confLabels
	ds.Labels["venue"] = venueArea
	paperLabels := make([]int, g.NodeCount("paper"))
	copy(paperLabels, paperArea)
	ds.Labels["paper"] = paperLabels
	return ds, nil
}
