package server

import (
	"net/url"
	"strconv"
	"strings"
	"testing"

	"hetesim/internal/api"
	"hetesim/internal/hin"
)

// FuzzDecodeQuery checks the query decoder never panics on arbitrary
// request parameters, that anything it accepts is internally consistent —
// a parsed path within the step cap, a non-empty source, a known measure,
// resolved nodes — and that the same query driven through the URL adapter
// and through the batch-slot adapter is accepted or rejected alike, with
// the same error code: there is one decode, the adapters only read.
func FuzzDecodeQuery(f *testing.F) {
	s := New(fuzzGraph(f))

	// Seed with a valid query and near-valid variants.
	f.Add("APC", "Tom", "KDD", "hetesim", "", 3)
	f.Add("APCPA", "Mary", "Tom", "pcrw", "false", 0)
	f.Add("APA", "Tom", "", "", "true", 10)
	f.Add("", "Tom", "KDD", "hetesim", "", 1)
	f.Add("APC", "", "KDD", "hetesim", "", 1)
	f.Add("ZZZ", "Tom", "KDD", "hetesim", "", 1)
	f.Add("APC", "Tom", "KDD", "bogus", "", 1)
	f.Add("APC", "Tom", "KDD", "pathsim", "maybe", 1)
	f.Add("A-writes>P", "Tom", "p1", "hetesim", "", 1)
	f.Add("APC", "Nobody", "KDD", "hetesim", "", 1)
	f.Add("APC", "Tom", "Nowhere", "", "1", -4)
	f.Add(strings.Repeat("AP", 300)+"A", "Tom", "Tom", "hetesim", "", 1)
	f.Add("APC\x00", "a\nb", "", "hetesim", "1", 2)

	f.Fuzz(func(t *testing.T, path, source, target, measure, raw string, k int) {
		kind := "topk"
		if target != "" {
			kind = "pair"
		}
		v := url.Values{}
		for name, val := range map[string]string{"path": path, "source": source, "target": target, "measure": measure, "raw": raw} {
			if val != "" {
				v.Set(name, val)
			}
		}
		if k != 0 {
			v.Set("k", strconv.Itoa(k))
		}
		es := s.current()
		q, err := s.soloQuery(es, v, kind)
		if err == nil {
			if q.path == nil {
				t.Fatal("accepted query has nil path")
			}
			if s.maxPathSteps > 0 && q.path.Len() > s.maxPathSteps {
				t.Fatalf("accepted path of %d steps past the %d cap", q.path.Len(), s.maxPathSteps)
			}
			if q.Source == "" {
				t.Fatal("accepted query has empty source")
			}
			switch q.Measure {
			case "hetesim", "pcrw", "pathsim":
			default:
				t.Fatalf("accepted unknown measure %q", q.Measure)
			}
			if q.Raw && q.Measure != "hetesim" {
				t.Fatalf("accepted raw flag on measure %q", q.Measure)
			}
			if q.src < 0 || (kind == "pair") != (q.dst >= 0) {
				t.Fatalf("accepted %s query resolved to src %d dst %d", kind, q.src, q.dst)
			}
		}

		// The slot adapter sees the same query in typed fields. What only one
		// wire form can say is left out of the comparison: a raw value that
		// is not a bool, and a baseline measure (batches are hetesim-only).
		// k = 0 is "omitted" on both (JSON cannot say anything else).
		slot := api.BatchQuery{Kind: kind, Path: path, Source: source, Target: target, Measure: measure, K: k}
		if raw != "" {
			b, perr := strconv.ParseBool(raw)
			if perr != nil {
				return
			}
			slot.Raw = b
		}
		if measure == "pcrw" || measure == "pathsim" {
			return
		}
		sq, serr := s.decode(es, wireQuery{BatchQuery: slot})
		_, urlCode := errorStatusCode(err)
		_, slotCode := errorStatusCode(serr)
		if (err == nil) != (serr == nil) || (err != nil && urlCode != slotCode) {
			t.Fatalf("adapters disagree on %+v: URL %v, slot %v", slot, err, serr)
		}
		if err == nil && (sq.src != q.src || sq.dst != q.dst || sq.path.String() != q.path.String() || sq.K != q.K && kind == "topk") {
			t.Fatalf("adapters decoded %+v differently: URL %+v, slot %+v", slot, q, sq)
		}
	})
}

func fuzzGraph(f *testing.F) *hin.Graph {
	f.Helper()
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("conference", 'C')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("published_in", "paper", "conference")
	b := hin.NewBuilder(s)
	b.AddEdge("writes", "Tom", "p1")
	b.AddEdge("writes", "Mary", "p2")
	b.AddEdge("published_in", "p1", "KDD")
	b.AddEdge("published_in", "p2", "SIGMOD")
	return b.MustBuild()
}
