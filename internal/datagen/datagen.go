// Package datagen generates the synthetic bibliographic heterogeneous
// networks that stand in for the paper's ACM and DBLP crawls (see DESIGN.md
// §4 for the substitution rationale). Both generators plant the structural
// regularities the paper's experiments exploit — research-area communities,
// Zipf-distributed author productivity, area-focused publication venues,
// area-specific vocabularies — and return ground-truth area labels for the
// AUC and NMI experiments.
//
// Generation is fully deterministic for a given configuration and seed.
package datagen

import (
	"math"
	"math/rand"
	"strconv"

	"hetesim/internal/hin"
)

// Dataset is a generated network plus its planted ground truth.
type Dataset struct {
	Graph *hin.Graph
	// Labels maps a node type to per-node area labels (index into
	// AreaNames); -1 marks an unlabeled node.
	Labels map[string][]int
	// AreaNames names the planted research areas.
	AreaNames []string
}

// AreaOf returns the planted area label of a node, or -1 when unlabeled.
func (d *Dataset) AreaOf(typeName string, index int) int {
	ls, ok := d.Labels[typeName]
	if !ok || index < 0 || index >= len(ls) {
		return -1
	}
	return ls[index]
}

// LabeledIndices returns the indices of all labeled nodes of a type.
func (d *Dataset) LabeledIndices(typeName string) []int {
	var out []int
	for i, l := range d.Labels[typeName] {
		if l >= 0 {
			out = append(out, i)
		}
	}
	return out
}

// zipfWeights returns w_i proportional to 1/(i+1)^s for i in [0, n).
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var total float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// sampler draws indices from a fixed discrete distribution using the alias
// method, giving O(1) draws over the large author/term populations.
type sampler struct {
	prob  []float64
	alias []int
}

func newSampler(weights []float64) *sampler {
	n := len(weights)
	s := &sampler{prob: make([]float64, n), alias: make([]int, n)}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("datagen: negative weight")
		}
		total += w
	}
	if total == 0 {
		panic("datagen: zero total weight")
	}
	scaled := make([]float64, n)
	var small, large []int
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		s.prob[l] = scaled[l]
		s.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, i := range large {
		s.prob[i] = 1
		s.alias[i] = i
	}
	for _, i := range small {
		s.prob[i] = 1
		s.alias[i] = i
	}
	return s
}

func (s *sampler) draw(rng *rand.Rand) int {
	i := rng.Intn(len(s.prob))
	if rng.Float64() < s.prob[i] {
		return i
	}
	return s.alias[i]
}

// permutedZipf builds a sampler over n items whose Zipf mass is spread over
// a seed-dependent permutation offset by block, so different areas prefer
// different (but overlapping) item subsets.
func permutedZipf(n int, s float64, perm []int, offset int) *sampler {
	base := zipfWeights(n, s)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		w[perm[(i+offset)%n]] = base[i]
	}
	return newSampler(w)
}

// pad returns prefix followed by i, padded with zeros to width digits.
func pad(prefix string, i, width int) string {
	var buf, num [32]byte
	digits := strconv.AppendInt(num[:0], int64(i), 10)
	b := append(buf[:0], prefix...)
	for d := len(digits); d < width; d++ {
		b = append(b, '0')
	}
	return string(append(b, digits...))
}

// nodes resolves one node type's item numbers — the generator's own
// numbering of authors, terms, venues — to builder indices. An item's ID is
// formatted and added at its first appearance, so the graph's node order
// stays first-appearance order, and every later edge to it goes in by
// index.
type nodes struct {
	b    *hin.Builder
	typ  string
	name func(item int) string
	at   []int // builder index + 1 per item; 0 until it appears
}

func newNodes(b *hin.Builder, typ string, items int, name func(item int) string) *nodes {
	return &nodes{b: b, typ: typ, name: name, at: make([]int, items)}
}

// prefixed names items by the prefix and the item number padded to four
// digits: author0000, author0001, ...
func prefixed(prefix string) func(int) string {
	return func(i int) string { return pad(prefix, i, 4) }
}

// named names items by a fixed list.
func named(names []string) func(int) string {
	return func(i int) string { return names[i] }
}

// of returns item i's builder index, adding the node on first use.
func (n *nodes) of(i int) int {
	if k := n.at[i]; k > 0 {
		return k - 1
	}
	k := n.b.AddNode(n.typ, n.name(i))
	n.at[i] = k + 1
	return k
}

// all adds every item in order.
func (n *nodes) all() {
	for i := range n.at {
		n.of(i)
	}
}

// authorModel is the per-author latent state shared by both generators.
type authorModel struct {
	area    int
	favConf int     // global conference index the author concentrates on
	focus   float64 // probability a paper goes to favConf
	group   int     // co-author community id
}

// buildAuthors samples author latent state: home area, favorite conference
// within the area, focus level, and a small co-author group within the area.
//
// Author index doubles as the productivity rank (the lead-author sampler is
// Zipf over indices), and focus increases with it: prolific authors have a
// home conference but publish broadly across their area (the paper's
// reading of Jiawei Han and Philip Yu, whose "wider research interests"
// spread their records over many conferences), while occasional authors'
// one or two papers land in a single venue. Both regularities matter to
// the experiments: broad prolific authors give the APVCVPA study its
// distribution-matching semantics (Table 4, Fig. 7), and concentrated
// occasional authors are the reach-probability-1.0 flood that breaks
// PCRW's author→conference ranking (Fig. 6).
func buildAuthors(rng *rand.Rand, n, areas int, confsByArea [][]int, groupSize int) []authorModel {
	out := make([]authorModel, n)
	groupCounter := make([]int, areas)
	for i := range out {
		area := rng.Intn(areas)
		confs := confsByArea[area]
		frac := 0.0
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		focus := 0.5 + 0.42*frac + 0.04*(rng.Float64()-0.5)
		if focus > 0.95 {
			focus = 0.95
		}
		if focus < 0.45 {
			focus = 0.45
		}
		out[i] = authorModel{
			area:    area,
			favConf: confs[rng.Intn(len(confs))],
			focus:   focus,
			group:   groupCounter[area] / groupSize,
		}
		groupCounter[area]++
	}
	return out
}

// coauthorCount samples how many co-authors a paper gets given its lead
// author's productivity rank (index): prolific leads run groups with
// students and collaborators (2–4 co-authors), occasional authors write
// small-team papers (0–2). This mirrors real bibliographies, where senior
// authors' counts are diluted across many co-authors — the effect that
// separates HeteSim's pairwise-walk scores from PCRW's co-author-diluted
// reach probabilities in the paper's Fig. 6 study.
func coauthorCount(rng *rand.Rand, lead, nAuthors int) int {
	if lead < nAuthors/10 {
		return 2 + rng.Intn(3)
	}
	return rng.Intn(3)
}

// groupMembers indexes authors by (area, group) for co-author sampling.
func groupMembers(authors []authorModel) map[[2]int][]int {
	m := make(map[[2]int][]int)
	for i, a := range authors {
		key := [2]int{a.area, a.group}
		m[key] = append(m[key], i)
	}
	return m
}
