package exp

import "fmt"

// Renderer is implemented by every experiment result.
type Renderer interface {
	Render() string
}

// Experiment is a registered experiment driver.
type Experiment struct {
	ID          string
	Description string
	Run         func(*Context) (Renderer, error)
}

// Registry lists every paper artifact the suite regenerates, in the order
// the paper presents them.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Table 1: automatic object profiling of the star author (ACM)",
			func(c *Context) (Renderer, error) { return wrap(c.Table1AuthorProfile()) }},
		{"table2", "Table 2: automatic object profiling of the KDD conference (ACM)",
			func(c *Context) (Renderer, error) { return wrap(c.Table2ConferenceProfile()) }},
		{"table3", "Table 3: HeteSim symmetry vs PCRW asymmetry on author-conference pairs (ACM)",
			func(c *Context) (Renderer, error) { return wrap(c.Table3SymmetryStudy()) }},
		{"table4", "Table 4: top related authors along APVCVPA, three measures (ACM)",
			func(c *Context) (Renderer, error) { return wrap(c.Table4RelatedAuthors()) }},
		{"table5", "Table 5: AUC of conference-author queries along CPA (DBLP)",
			func(c *Context) (Renderer, error) { return wrap(c.Table5QueryAUC()) }},
		{"table6", "Table 6: clustering NMI with Normalized Cut (DBLP)",
			func(c *Context) (Renderer, error) { return wrap(c.Table6ClusteringNMI()) }},
		{"table7", "Table 7: CVPA vs CVPAPA path semantics for KDD (ACM)",
			func(c *Context) (Renderer, error) { return wrap(c.Table7PathSemantics()) }},
		{"fig6", "Fig. 6: average rank difference vs publication counts, 14 conferences (ACM)",
			func(c *Context) (Renderer, error) { return wrap(c.Fig6RankDifference()) }},
		{"fig7", "Fig. 7: authors' reachable probability over conferences along APVC (ACM)",
			func(c *Context) (Renderer, error) { return wrap(c.Fig7ReachableDistribution()) }},
		{"fig5", "Fig. 5 + Example 2: worked toy examples, exact values",
			func(c *Context) (Renderer, error) { return wrap(c.Fig5WorkedExample()) }},
		{"abl-pruning", "Ablation: truncation threshold vs accuracy and chain size (§4.6)",
			func(c *Context) (Renderer, error) { return wrap(c.AblationPruning()) }},
		{"abl-montecarlo", "Ablation: Monte Carlo sample budget vs estimation error (§4.6)",
			func(c *Context) (Renderer, error) { return wrap(c.AblationMonteCarlo()) }},
		{"abl-normalization", "Ablation: cosine normalization vs raw meeting probability (Def. 10)",
			func(c *Context) (Renderer, error) { return wrap(c.AblationNormalization()) }},
		{"stats", "Dataset statistics of the generated networks (§5.1 substitution)",
			func(c *Context) (Renderer, error) { return wrap(c.DatasetStats()) }},
		{"robustness", "Headline comparisons re-run across generator seeds",
			func(c *Context) (Renderer, error) { return wrap(c.Robustness()) }},
	}
}

func wrap[T Renderer](r T, err error) (Renderer, error) { return r, err }

// Run executes one experiment by id.
func Run(c *Context, id string) (Renderer, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run(c)
		}
	}
	return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
}

// IDs returns the registered experiment ids in presentation order.
func IDs() []string {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}
