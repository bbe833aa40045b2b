package exp

import (
	"strings"
	"testing"
)

// ctx is shared across tests; experiments are read-only over the cached
// datasets.
func testCtx(t *testing.T) *Context {
	t.Helper()
	return NewContext(SmallConfig())
}

func TestTable1StarAuthorProfile(t *testing.T) {
	c := testCtx(t)
	res, err := c.Table1AuthorProfile()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lists) != 4 {
		t.Fatalf("lists = %d, want 4", len(res.Lists))
	}
	// The star author is defined as the top KDD publisher: KDD must lead
	// their APVC conference profile (the paper's headline observation).
	conf := res.Lists[0]
	if conf.Path != "APVC" || len(conf.Items) == 0 {
		t.Fatalf("first list = %+v", conf)
	}
	if conf.Items[0].ID != "KDD" {
		t.Errorf("top conference = %s, want KDD", conf.Items[0].ID)
	}
	// APA profile: self-relatedness 1 puts the author first in their own
	// co-author list (Property 4).
	apa := res.Lists[3]
	if apa.Items[0].ID != res.Object {
		t.Errorf("APA top = %s, want self %s", apa.Items[0].ID, res.Object)
	}
	if apa.Items[0].Score < 0.999 {
		t.Errorf("self score = %v, want 1", apa.Items[0].Score)
	}
	out := res.Render()
	for _, want := range []string{"Table 1", "APVC", "APT", "APS", "APA"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
}

func TestTable2ConferenceProfile(t *testing.T) {
	c := testCtx(t)
	res, err := c.Table2ConferenceProfile()
	if err != nil {
		t.Fatal(err)
	}
	if res.Object != "KDD" || len(res.Lists) != 4 {
		t.Fatalf("result = %+v", res)
	}
	// CVPAPVC similar-conference list: KDD is most similar to itself.
	simConf := res.Lists[3]
	if simConf.Items[0].ID != "KDD" || simConf.Items[0].Score < 0.999 {
		t.Errorf("CVPAPVC top = %+v, want KDD at 1", simConf.Items[0])
	}
	// Affiliation and subject lists must be non-empty with scores in
	// (0, 1].
	for _, l := range res.Lists {
		if len(l.Items) == 0 {
			t.Errorf("list %s empty", l.Path)
		}
		for _, it := range l.Items {
			if it.Score <= 0 || it.Score > 1+1e-9 {
				t.Errorf("%s: score %v outside (0,1]", l.Path, it.Score)
			}
		}
	}
}

func TestTable3SymmetryStudy(t *testing.T) {
	c := testCtx(t)
	res, err := c.Table3SymmetryStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 6 {
		t.Fatalf("pairs = %d, want 6", len(res.Pairs))
	}
	var sawAsym bool
	for _, p := range res.Pairs {
		if p.HeteSim <= 0 || p.HeteSim > 1+1e-9 {
			t.Errorf("%s/%s HeteSim = %v", p.Author, p.Conference, p.HeteSim)
		}
		if p.PCRWAPVC != p.PCRWCVPA {
			sawAsym = true
		}
	}
	if !sawAsym {
		t.Error("PCRW was symmetric on every pair; expected direction dependence")
	}
	// Top authors should out-score the rising authors of the same
	// conference under HeteSim (the table's relative-importance reading).
	bySigir := map[string]float64{}
	for _, p := range res.Pairs {
		if p.Conference == "SIGIR" {
			bySigir[p.Role] = p.HeteSim
		}
	}
	if bySigir["top"] <= bySigir["rising"] {
		t.Errorf("top SIGIR author (%v) should outrank rising (%v)", bySigir["top"], bySigir["rising"])
	}
	if !strings.Contains(res.Render(), "PCRW") {
		t.Error("Render missing PCRW column")
	}
}

func TestTable4RelatedAuthors(t *testing.T) {
	c := testCtx(t)
	res, err := c.Table4RelatedAuthors()
	if err != nil {
		t.Fatal(err)
	}
	// HeteSim and PathSim rank the star author first (self-maximum);
	// this is the property PCRW lacks.
	if res.HeteSim[0].ID != res.Author {
		t.Errorf("HeteSim top = %s, want self %s", res.HeteSim[0].ID, res.Author)
	}
	if res.PathSim[0].ID != res.Author {
		t.Errorf("PathSim top = %s, want self %s", res.PathSim[0].ID, res.Author)
	}
	if res.SelfRankPCRW < 1 {
		t.Errorf("PCRW self rank = %d", res.SelfRankPCRW)
	}
	if len(res.HeteSim) != 10 || len(res.PathSim) != 10 || len(res.PCRW) != 10 {
		t.Errorf("list lengths = %d/%d/%d, want 10", len(res.HeteSim), len(res.PathSim), len(res.PCRW))
	}
	// HeteSim scores are non-increasing.
	for i := 1; i < len(res.HeteSim); i++ {
		if res.HeteSim[i].Score > res.HeteSim[i-1].Score+1e-12 {
			t.Error("HeteSim list not sorted")
		}
	}
	if !strings.Contains(res.Render(), "APVCVPA") {
		t.Error("Render missing path")
	}
}

func TestTable5QueryAUC(t *testing.T) {
	c := testCtx(t)
	res, err := c.Table5QueryAUC()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(res.Rows))
	}
	wins := 0
	var hMean, pMean float64
	for _, r := range res.Rows {
		if r.HeteSimAUC < 0.5 {
			t.Errorf("%s HeteSim AUC = %v, worse than random", r.Conference, r.HeteSimAUC)
		}
		if r.HeteSimAUC >= r.PCRWAUC {
			wins++
		}
		hMean += r.HeteSimAUC
		pMean += r.PCRWAUC
	}
	// Paper shape: HeteSim edges out PCRW by small margins (the paper's
	// own gaps are in the third decimal, e.g. 0.8111 vs 0.8030). Demand
	// a majority of per-conference wins and a higher mean; individual
	// conferences may flip under synthetic-data noise.
	if wins < (len(res.Rows)+1)/2 {
		t.Errorf("HeteSim won only %d of %d conferences", wins, len(res.Rows))
	}
	if hMean < pMean {
		t.Errorf("mean HeteSim AUC %v below mean PCRW AUC %v", hMean/9, pMean/9)
	}
}

func TestTable6ClusteringNMI(t *testing.T) {
	c := testCtx(t)
	res, err := c.Table6ClusteringNMI()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.HeteSimNMI < 0 || r.HeteSimNMI > 1 || r.PathSimNMI < 0 || r.PathSimNMI > 1 {
			t.Errorf("%s NMI out of range: %v / %v", r.Task, r.HeteSimNMI, r.PathSimNMI)
		}
	}
	// Paper shape: conference and author clustering score high, paper
	// clustering markedly lower (its relevance path is weak).
	byTask := map[string]Table6Row{}
	for _, r := range res.Rows {
		byTask[r.Task] = r
	}
	if byTask["conference"].HeteSimNMI < 0.5 {
		t.Errorf("conference NMI = %v, want high", byTask["conference"].HeteSimNMI)
	}
	if byTask["author"].HeteSimNMI < 0.5 {
		t.Errorf("author NMI = %v, want high", byTask["author"].HeteSimNMI)
	}
	if byTask["paper"].HeteSimNMI >= byTask["author"].HeteSimNMI {
		t.Errorf("paper NMI (%v) should fall below author NMI (%v)",
			byTask["paper"].HeteSimNMI, byTask["author"].HeteSimNMI)
	}
}

func TestTable7PathSemantics(t *testing.T) {
	c := testCtx(t)
	res, err := c.Table7PathSemantics()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CVPA) != 10 || len(res.CVPAPA) != 10 {
		t.Fatalf("lists = %d/%d, want 10/10", len(res.CVPA), len(res.CVPAPA))
	}
	// The two paths must produce different rankings — that is the
	// semantics the table demonstrates.
	same := true
	for i := range res.CVPA {
		if res.CVPA[i].ID != res.CVPAPA[i].ID {
			same = false
			break
		}
	}
	if same {
		t.Error("CVPA and CVPAPA rankings identical; path semantics lost")
	}
}

func TestFig6RankDifference(t *testing.T) {
	c := testCtx(t)
	res, err := c.Fig6RankDifference()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 14 {
		t.Fatalf("rows = %d, want 14", len(res.Rows))
	}
	wins := 0
	for _, r := range res.Rows {
		if r.HeteSimDiff < 0 || r.PCRWDiff < 0 {
			t.Errorf("%s negative rank diff", r.Conference)
		}
		if r.HeteSimDiff <= r.PCRWDiff {
			wins++
		}
	}
	// Paper shape: HeteSim tracks the ground truth at least as well as
	// PCRW on the clear majority of conferences.
	if wins < 8 {
		t.Errorf("HeteSim at or below PCRW on only %d of 14 conferences", wins)
	}
}

func TestFig7ReachableDistribution(t *testing.T) {
	c := testCtx(t)
	res, err := c.Fig7ReachableDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conferences) != 14 {
		t.Fatalf("conferences = %d, want 14", len(res.Conferences))
	}
	if len(res.Series) == 0 {
		t.Fatal("no series")
	}
	for _, s := range res.Series {
		var sum float64
		for _, p := range s.Probs {
			if p < 0 {
				t.Errorf("%s negative probability", s.Author)
			}
			sum += p
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s distribution sums to %v", s.Author, sum)
		}
	}
}

func TestFig5WorkedExample(t *testing.T) {
	c := testCtx(t)
	res, err := c.Fig5WorkedExample()
	if err != nil {
		t.Fatal(err)
	}
	// Exact Fig. 5(c) values for a2: (0, 1/6, 1/3, 1/6).
	a2 := res.Unnormalized[1]
	want := []float64{0, 1.0 / 6, 1.0 / 3, 1.0 / 6}
	for j, w := range want {
		if diff := a2[j] - w; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("unnormalized a2[%d] = %v, want %v", j, a2[j], w)
		}
	}
	if res.Example2 != 0.5 {
		t.Errorf("Example 2 = %v, want 0.5", res.Example2)
	}
	out := res.Render()
	for _, s := range []string{"Fig. 5", "before normalization", "after normalization", "0.50"} {
		if !strings.Contains(out, s) {
			t.Errorf("Render missing %q", s)
		}
	}
}

func TestAblationPruning(t *testing.T) {
	c := testCtx(t)
	res, err := c.AblationPruning()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// eps=0 must be exact; error grows (weakly) with eps; nnz shrinks.
	if res.Rows[0].MaxAbsErr != 0 {
		t.Errorf("eps=0 error = %v", res.Rows[0].MaxAbsErr)
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.MaxAbsErr < first.MaxAbsErr {
		t.Error("error should not shrink as eps grows")
	}
	if last.LeftNNZ > first.ExactLeftNNZ {
		t.Error("pruned chain larger than exact")
	}
	if !strings.Contains(res.Render(), "Spearman") {
		t.Error("Render missing Spearman column")
	}
}

func TestAblationMonteCarlo(t *testing.T) {
	c := testCtx(t)
	res, err := c.AblationMonteCarlo()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Pairs != 14 {
		t.Fatalf("result = %+v", res)
	}
	// Error shrinks with the sample budget (allow small noise slack).
	if res.Rows[2].MeanAbsErr > res.Rows[0].MeanAbsErr+0.01 {
		t.Errorf("100k-walk error %v not below 1k-walk error %v",
			res.Rows[2].MeanAbsErr, res.Rows[0].MeanAbsErr)
	}
	if res.Rows[2].MeanAbsErr > 0.05 {
		t.Errorf("100k-walk mean error = %v, want small", res.Rows[2].MeanAbsErr)
	}
}

func TestAblationNormalization(t *testing.T) {
	c := testCtx(t)
	res, err := c.AblationNormalization()
	if err != nil {
		t.Fatal(err)
	}
	// Property 4: normalized self rank is 1 at score 1.
	if res.SelfRankNormalized != 1 {
		t.Errorf("normalized self rank = %d, want 1", res.SelfRankNormalized)
	}
	if res.MaxNormalized > 1+1e-9 {
		t.Errorf("normalized max = %v, want <= 1", res.MaxNormalized)
	}
	if !strings.Contains(res.Render(), "self rank") {
		t.Error("Render missing self rank row")
	}
}

func TestDatasetStats(t *testing.T) {
	c := testCtx(t)
	res, err := c.DatasetStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 2 {
		t.Fatalf("sections = %d", len(res.Sections))
	}
	out := res.Render()
	for _, want := range []string{"ACM-style", "DBLP-style", "author", "writes", "areas:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
}

func TestRobustness(t *testing.T) {
	c := testCtx(t)
	res, err := c.Robustness()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 3 || len(res.Fig6Wins) != 3 ||
		len(res.Table5MeanDelta) != 3 || len(res.Table6PaperGap) != 3 {
		t.Fatalf("result = %+v", res)
	}
	// The qualitative claims should hold on the clear majority of seeds
	// even at test scale.
	winSum := 0
	for _, w := range res.Fig6Wins {
		winSum += w
	}
	if winSum < 21 { // averaging at least half the conferences per seed
		t.Errorf("Fig6 wins across seeds = %d of 42", winSum)
	}
	var gapSum float64
	for _, g := range res.Table6PaperGap {
		gapSum += g
	}
	if gapSum <= 0 {
		t.Errorf("paper-clustering gap sum = %v, want positive", gapSum)
	}
	if !strings.Contains(res.Render(), "means:") {
		t.Error("Render missing summary line")
	}
}

func TestRunDispatchAndRegistry(t *testing.T) {
	c := testCtx(t)
	if _, err := Run(c, "nope"); err == nil {
		t.Error("unknown id accepted")
	}
	ids := IDs()
	if len(ids) != 15 {
		t.Fatalf("registry size = %d, want 15", len(ids))
	}
	// Dispatch one cheap experiment end to end.
	r, err := Run(c, "table7")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Render(), "Table 7") {
		t.Error("dispatched render wrong")
	}
}
