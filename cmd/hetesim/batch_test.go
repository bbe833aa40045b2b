package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetesim/internal/hin"
	"hetesim/internal/server"
)

// TestBatchFileEqualsDaemon feeds one batch file through the CLI entry
// point and through POST /v1/batch and compares the results arrays byte for
// byte: the -batch format IS the daemon's, slot validation, error codes and
// hit naming included (the CLI once carried its own copy, which had lost
// the codes and the k / eps checks).
func TestBatchFileEqualsDaemon(t *testing.T) {
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("conference", 'C')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("published_in", "paper", "conference")
	b := hin.NewBuilder(s)
	for _, e := range [][2]string{{"Tom", "p1"}, {"Tom", "p2"}, {"Mary", "p2"}, {"Mary", "p3"}, {"Bob", "p3"}} {
		b.AddEdge("writes", e[0], e[1])
	}
	for _, e := range [][2]string{{"p1", "KDD"}, {"p2", "KDD"}, {"p3", "SIGMOD"}} {
		b.AddEdge("published_in", e[0], e[1])
	}
	g := b.MustBuild()

	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.json")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := hin.Write(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	const batch = `{"queries": [
		{"kind": "pair", "path": "APC", "source": "Tom", "target": "KDD"},
		{"kind": "pair", "path": "APC", "source": "Tom", "target": "KDD", "raw": true},
		{"kind": "single_source", "path": "APC", "source": "Mary"},
		{"kind": "topk", "path": "APCPA", "source": "Tom", "k": 2},
		{"kind": "topk", "path": "APA", "source": "Bob"},
		{"kind": "topk", "path": "APA", "source": "Bob", "k": -1},
		{"kind": "topk", "path": "APA", "source": "Bob", "eps": 1.5},
		{"kind": "pair", "path": "APC", "source": "Nobody", "target": "KDD"},
		{"kind": "pair", "path": "APC", "source": "Tom"},
		{"kind": "scan", "path": "APC", "source": "Tom"},
		{"kind": "pair", "path": "AXC", "source": "Tom", "target": "KDD"}
	]}`
	batchPath := filepath.Join(dir, "batch.json")
	if err := os.WriteFile(batchPath, []byte(batch), 0o644); err != nil {
		t.Fatal(err)
	}

	var cli bytes.Buffer
	if err := runBatch(graphPath, batchPath, &cli); err != nil {
		t.Fatal(err)
	}
	srv := server.New(g)
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(batch)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/batch: %d %s", rec.Code, rec.Body)
	}

	results := func(name string, raw []byte) string {
		var body struct {
			Results json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatalf("%s output: %v\n%s", name, err, raw)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, body.Results); err != nil {
			t.Fatal(err)
		}
		return compact.String()
	}
	fromCLI, fromDaemon := results("CLI", cli.Bytes()), results("daemon", rec.Body.Bytes())
	if fromCLI != fromDaemon {
		t.Errorf("results differ\n   CLI: %s\ndaemon: %s", fromCLI, fromDaemon)
	}
	// The comparison must not be vacuous, nor pass on two equally wrong sides.
	for _, want := range []string{`"score":1`, `"code":"not_found"`, `"code":"bad_request"`, `"error":"bad request: k=-1"`, `"results":[{"id":`} {
		if !strings.Contains(fromCLI, want) {
			t.Errorf("CLI results lack %s\n%s", want, fromCLI)
		}
	}
}
