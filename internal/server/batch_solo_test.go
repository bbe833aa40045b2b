package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"hetesim/internal/hin"
	"hetesim/internal/obs"
)

// randomBiblioGraph is a seeded random author-paper-conference network,
// sparse enough that some top-k answers have fewer than k related targets
// (so the solo endpoint's zero padding is exercised).
func randomBiblioGraph(seed int64) *hin.Graph {
	rng := rand.New(rand.NewSource(seed))
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("conference", 'C')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("published_in", "paper", "conference")
	b := hin.NewBuilder(s)
	const authors, papers, confs = 14, 24, 5
	for p := 0; p < papers; p++ {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			b.AddEdge("writes", fmt.Sprintf("a%d", rng.Intn(authors)), fmt.Sprintf("p%d", p))
		}
		b.AddEdge("published_in", fmt.Sprintf("p%d", p), fmt.Sprintf("c%d", rng.Intn(confs)))
	}
	return b.MustBuild()
}

// wireSlot is the part of a solo or batch answer the batch == solo contract
// covers, decoded the same way from either.
type wireSlot struct {
	Score   *float64 `json:"score"`
	Results []struct {
		ID    string  `json:"id"`
		Score float64 `json:"score"`
	} `json:"results"`
	Code string `json:"code"`
}

// TestBatchEqualsSoloHTTP is the repo's batch == solo bit-identity contract
// at the HTTP layer: random (path, source, target, k) queries, normalized
// and raw, are sent once as slots of a POST /v1/batch and once each to the
// solo GET endpoint, and every slot must carry the solo answer — the same
// score bits, the same ranked hits, or the same error code. The one
// documented difference: /v1/topk pads its answer to k with zero-score
// targets, a batch slot lists the related targets only. The solo side is
// asked warm and cold, so every top-k scan of DESIGN §11 is held to the slot.
func TestBatchEqualsSoloHTTP(t *testing.T) {
	g := randomBiblioGraph(7)
	srv := New(g)
	t.Cleanup(srv.Close)
	h := srv.Handler()

	rng := rand.New(rand.NewSource(11))
	paths := []string{"APA", "APC", "CPA", "PAP", "PCP", "APCPA", "APCP", "CPAPC", "AXA"}
	prefix := map[byte]string{'A': "a", 'P': "p", 'C': "c"}
	node := func(typ byte) string {
		if rng.Intn(12) == 0 {
			return "ghost" // unknown node: the slot's code must be the solo 404's
		}
		return fmt.Sprintf("%s%d", prefix[typ], rng.Intn(6))
	}
	type slot struct {
		Kind   string `json:"kind"`
		Path   string `json:"path"`
		Source string `json:"source"`
		Target string `json:"target,omitempty"`
		K      int    `json:"k,omitempty"`
		Raw    bool   `json:"raw,omitempty"`
	}
	var slots []slot
	for i := 0; i < 120; i++ {
		p := paths[rng.Intn(len(paths))]
		q := slot{Kind: "pair", Path: p, Source: node(p[0]), Raw: rng.Intn(3) == 0}
		if rng.Intn(2) == 0 {
			q.Kind, q.K = "topk", 1+rng.Intn(7)
		} else {
			q.Target = node(p[len(p)-1])
		}
		slots = append(slots, q)
	}

	raw, err := json.Marshal(map[string]any{"queries": slots})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(raw)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	var batch struct {
		Results []wireSlot `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(slots) {
		t.Fatalf("batch answered %d slots for %d queries", len(batch.Results), len(slots))
	}

	// Solo answers come twice: from the server that answered the batch, its
	// chains materialized by the shared groups (transposed scans), and from a
	// fresh one, where a top-k finds its right half-chain cold and rents the
	// reachable targets' rows or buys the chain.
	cold := New(g)
	t.Cleanup(cold.Close)
	rentedScans := obs.Default().CounterVec("hetesim_engine_topk_scan_total", "", "scan").With("reachable-rows")
	rentedBefore := rentedScans.Value()
	answered, failed, padded := 0, 0, 0
	for _, soloH := range []http.Handler{h, cold.Handler()} {
		for i, q := range slots {
			v := url.Values{"path": {q.Path}, "source": {q.Source}}
			endpoint := "/v1/pair"
			if q.Kind == "topk" {
				endpoint = "/v1/topk"
				v.Set("k", fmt.Sprint(q.K))
			} else {
				v.Set("target", q.Target)
			}
			if q.Raw {
				v.Set("raw", "true")
			}
			rec := httptest.NewRecorder()
			soloH.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, endpoint+"?"+v.Encode(), nil))
			var solo wireSlot
			if err := json.Unmarshal(rec.Body.Bytes(), &solo); err != nil {
				t.Fatalf("slot %d %+v: solo answer: %v", i, q, err)
			}
			got := batch.Results[i]
			if got.Code != solo.Code {
				t.Errorf("slot %d %+v: batch code %q, solo code %q (status %d)", i, q, got.Code, solo.Code, rec.Code)
				continue
			}
			if solo.Code != "" {
				failed++
				continue
			}
			answered++
			if q.Kind == "pair" {
				if got.Score == nil || solo.Score == nil || *got.Score != *solo.Score {
					t.Errorf("slot %d %+v: batch score %v, solo score %v", i, q, got.Score, solo.Score)
				}
				continue
			}
			if len(got.Results) > len(solo.Results) {
				t.Errorf("slot %d %+v: batch lists %d hits, solo %d", i, q, len(got.Results), len(solo.Results))
				continue
			}
			for r, hit := range solo.Results {
				switch {
				case r < len(got.Results):
					if got.Results[r] != hit {
						t.Errorf("slot %d %+v rank %d: batch %+v, solo %+v", i, q, r, got.Results[r], hit)
					}
				case hit.Score != 0:
					t.Errorf("slot %d %+v rank %d: solo hit %+v missing from the batch slot", i, q, r, hit)
				default:
					padded++
				}
			}
		}
	}
	if rentedScans.Value() == rentedBefore {
		t.Error("no solo top-k ran the reachable-rows scan")
	}
	// The comparison is only worth its name if all three branches ran.
	if answered < 120 || failed < 10 || padded == 0 {
		t.Fatalf("fixture too thin: %d answered, %d failed, %d zero-padded hits", answered, failed, padded)
	}
}
