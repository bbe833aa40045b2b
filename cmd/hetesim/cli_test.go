package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hetesim/internal/hin"
	"hetesim/internal/relevance"
	"hetesim/internal/server"
)

var update = flag.Bool("update", false, "re-record testdata/cli_golden.json from the current build")

// TestMain doubles as the command: with HETESIM_CLI_MAIN=1 the test binary
// runs main() on its arguments, so the tests below drive the real flag
// parsing, dispatch and printing in a child process and read its stdout,
// stderr and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("HETESIM_CLI_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cliGraph is a small bibliographic network with a third type beyond the
// paper's A-P-C example, so auto relevance has several member paths, and
// an author (Sue) with no co-author, so a top-k list needs zero scores.
func cliGraph() *hin.Graph {
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("conference", 'C')
	s.MustAddType("term", 'T')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("published_in", "paper", "conference")
	s.MustAddRelation("mentions", "paper", "term")
	b := hin.NewBuilder(s)
	for _, e := range [][2]string{
		{"Tom", "p1"}, {"Tom", "p2"}, {"Tom", "p7"}, {"Mary", "p2"}, {"Mary", "p3"},
		{"Bob", "p3"}, {"Bob", "p4"}, {"Ann", "p4"}, {"Ann", "p5"}, {"Joe", "p5"},
		{"Joe", "p1"}, {"Sue", "p6"},
	} {
		b.AddEdge("writes", e[0], e[1])
	}
	for _, e := range [][2]string{
		{"p1", "KDD"}, {"p2", "KDD"}, {"p7", "KDD"}, {"p3", "SIGMOD"}, {"p4", "SIGMOD"},
		{"p5", "VLDB"}, {"p6", "ICDE"},
	} {
		b.AddEdge("published_in", e[0], e[1])
	}
	for _, e := range [][2]string{
		{"p1", "mining"}, {"p2", "mining"}, {"p2", "graphs"}, {"p3", "graphs"},
		{"p4", "db"}, {"p5", "db"}, {"p6", "index"}, {"p7", "mining"},
	} {
		b.AddEdge("mentions", e[0], e[1])
	}
	return b.MustBuild()
}

const (
	cliWeights = `{"weights": {"APA": 0.7, "APCPA": 0.3}}`
	cliBatch   = `{"queries": [
		{"kind": "pair", "path": "APC", "source": "Tom", "target": "KDD"},
		{"kind": "topk", "path": "APA", "source": "Tom", "k": 3},
		{"kind": "single_source", "path": "APC", "source": "Mary", "raw": true},
		{"kind": "pair", "path": "APC", "source": "Nobody", "target": "KDD"}
	]}`
)

// cliCase is one command line. Its arguments name the fixture files by the
// placeholders @weights and @batch; the graph (or server) flag is added by
// the test. local marks the modes that need the graph file itself.
type cliCase struct {
	name  string
	args  []string
	local bool
}

var cliCases = []cliCase{
	{name: "pair hetesim", args: []string{"-path", "APC", "-source", "Tom", "-target", "KDD"}},
	{name: "pair raw", args: []string{"-path", "APC", "-source", "Tom", "-target", "KDD", "-raw"}},
	{name: "pair pcrw", args: []string{"-path", "APC", "-source", "Tom", "-target", "KDD", "-measure", "pcrw"}},
	{name: "pair pathsim", args: []string{"-path", "APCPA", "-source", "Tom", "-target", "Mary", "-measure", "pathsim"}},
	{name: "pair odd path", args: []string{"-path", "APT", "-source", "Mary", "-target", "graphs"}},
	{name: "pair plan all-pairs", args: []string{"-path", "APCPA", "-source", "Tom", "-target", "Mary", "-plan", "all-pairs"}},
	{name: "pair plan pair-vectors raw", args: []string{"-path", "APA", "-source", "Tom", "-target", "Joe", "-plan", "pair-vectors", "-raw"}},
	{name: "topk hetesim", args: []string{"-path", "APA", "-source", "Tom", "-k", "4"}},
	{name: "topk default k", args: []string{"-path", "APC", "-source", "Tom"}},
	{name: "topk zero padding", args: []string{"-path", "APA", "-source", "Sue", "-k", "3"}},
	{name: "topk raw", args: []string{"-path", "APCPA", "-source", "Tom", "-k", "3", "-raw"}},
	{name: "topk pcrw", args: []string{"-path", "APC", "-source", "Tom", "-measure", "pcrw"}},
	{name: "topk pathsim", args: []string{"-path", "APCPA", "-source", "Tom", "-measure", "pathsim", "-k", "5"}},
	{name: "topk plan single-vs-matrix", args: []string{"-path", "APTPA", "-source", "Mary", "-k", "3", "-plan", "single-vs-matrix"}},
	{name: "why", args: []string{"-path", "APCPA", "-source", "Tom", "-target", "Mary", "-why", "3"}},
	{name: "why raw", args: []string{"-path", "APTPA", "-source", "Tom", "-target", "Mary", "-why", "2", "-raw"}},
	{name: "explain", args: []string{"-path", "APCPA", "-explain", "10"}},
	{name: "relevance pair", args: []string{"-relevance", "-source", "Tom", "-source-type", "author", "-target", "Mary", "-target-type", "author"}},
	{name: "relevance pair degree raw", args: []string{"-relevance", "-source", "Tom", "-source-type", "author", "-target", "Bob", "-target-type", "author", "-weighting", "degree", "-raw"}},
	{name: "relevance pair learned", args: []string{"-relevance", "-source", "Tom", "-source-type", "author", "-target", "Joe", "-target-type", "author", "-weighting", "learned", "-weights", "@weights"}},
	{name: "relevance topk", args: []string{"-relevance", "-source", "Tom", "-source-type", "author", "-target-type", "conference", "-k", "3"}},
	{name: "relevance topk maxlen", args: []string{"-relevance", "-source", "Mary", "-source-type", "author", "-target-type", "term", "-maxlen", "5", "-maxpaths", "3"}},
	{name: "batch", args: []string{"-batch", "@batch"}},
	{name: "enumerate", args: []string{"-enumerate", "author,conference", "-maxlen", "4"}, local: true},
	{name: "unknown source", args: []string{"-path", "APC", "-source", "Nobody", "-target", "KDD"}},
}

// cliRun is one recorded run of the command.
type cliRun struct {
	Name   string `json:"name"`
	Exit   int    `json:"exit"`
	Stdout string `json:"stdout"`
	Stderr string `json:"stderr"`
}

// durationMS masks the one field that changes run to run.
var durationMS = regexp.MustCompile(`"duration_ms": [0-9.e+-]+`)

// runCLI runs the command in a child process with where (-graph FILE or
// -server URL) prepended to the case's arguments.
func runCLI(t *testing.T, dir string, c cliCase, where ...string) cliRun {
	t.Helper()
	args := append([]string(nil), where...)
	for _, a := range c.args {
		if strings.HasPrefix(a, "@") {
			a = filepath.Join(dir, a[1:]+".json")
		}
		args = append(args, a)
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HETESIM_CLI_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	run := cliRun{Name: c.name}
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("%s: %v", c.name, err)
		}
		run.Exit = ee.ExitCode()
	}
	run.Stdout = durationMS.ReplaceAllString(stdout.String(), `"duration_ms": 0`)
	run.Stderr = stderr.String()
	return run
}

// cliFixtures writes the graph, the learned weights and the batch file.
func cliFixtures(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	var g bytes.Buffer
	if err := hin.Write(&g, cliGraph()); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"graph": g.Bytes(), "weights": []byte(cliWeights), "batch": []byte(cliBatch)} {
		if err := os.WriteFile(filepath.Join(dir, name+".json"), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestCLIGolden runs every local mode over the fixed graph and compares
// exit status, stdout and stderr with testdata/cli_golden.json.
func TestCLIGolden(t *testing.T) {
	dir := cliFixtures(t)
	var got []cliRun
	for _, c := range cliCases {
		got = append(got, runCLI(t, dir, c, "-graph", filepath.Join(dir, "graph.json")))
	}
	const golden = "testdata/cli_golden.json"
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var want []cliRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d recorded runs, %d cases", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:\n got %+v\nwant %+v", got[i].Name, got[i], want[i])
		}
	}
}

// TestCLILocalEqualsServer runs every query mode once against the graph
// file and once with -server against a daemon serving the same graph (with
// the weights and relevance limits the local run has): one request and one
// printer, so stdout, stderr and exit status agree — except that an error
// from -server names the request it answered.
func TestCLILocalEqualsServer(t *testing.T) {
	dir := cliFixtures(t)
	learned, err := relevance.LoadWeightsFile(filepath.Join(dir, "weights.json"))
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, c := range cliCases {
		if c.local {
			continue
		}
		local := runCLI(t, dir, c, "-graph", filepath.Join(dir, "graph.json"))
		// A fresh daemon per case: a local run starts cold too, and the
		// batch stats count the chains a run builds.
		srv := server.New(cliGraph(), server.WithPathWeights(learned), server.WithRelevanceLimits(5, 16), server.WithLogf(t.Logf))
		ts := httptest.NewServer(srv.Handler())
		remote := runCLI(t, dir, c, "-server", ts.URL)
		ts.Close()
		srv.Close()
		if local.Exit != 0 {
			local.Stderr, remote.Stderr = "", ""
		} else {
			compared++
		}
		if local != remote {
			t.Errorf("%s:\n local %+v\nserver %+v", c.name, local, remote)
		}
	}
	if compared < len(cliCases)-2 {
		t.Errorf("only %d of %d cases answered", compared, len(cliCases))
	}
}
