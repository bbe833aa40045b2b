// Command hetesim answers relevance queries over a heterogeneous network
// stored in the JSON format of package hin (produce one with cmd/datagen).
//
//	hetesim -graph g.json -path APVC -source <id> [-target <id> [-why n]] [-k 10]
//	        [-measure hetesim|pcrw|pathsim] [-raw] [-plan kind] [-explain n]
//	hetesim -graph g.json -relevance -source <id> -source-type author [-target <id>]
//	        -target-type author [-k 10] [-maxlen 4] [-maxpaths 16]
//	        [-weighting uniform|degree|learned] [-weights w.json] [-raw]
//	hetesim -graph g.json -batch q.json | -enumerate author,conference | -apply d.json [-out g2.json]
//	hetesim -server http://host:8090 <flags as above> [-retries 3] [-retry-max-wait 5s]
//
// The CLI is a client of the daemon's query pipeline: each query mode is one
// request — GET /v1/pair, /v1/topk (no -target), /v1/why or /v1/explain,
// POST /v1/relevance (the weighted ensemble of every meta path between two
// types) or /v1/batch (a request body from a file, "-" = stdin) — and one
// printer renders every answer: text on stdout, the chosen plan and the
// ensemble's per-path account on stderr, a batch as JSON. With -graph the
// request goes to a server.Handler() over the graph in this process (no
// query deadline, no request-size cap, relevance limits from
// -maxlen/-maxpaths, learned weights from -weights; -v dumps the metrics);
// with -server to a running hetesimd or hetesim-router, retrying shed
// responses within -retries and -retry-max-wait. -enumerate lists the
// candidate paths between two types. -apply applies a mutation batch
// ({"ops": [...]}, "-" = stdin) to the graph and writes it to -out, or with
// -server posts it to POST /v1/admin/edges, where an optional "key" makes a
// retried batch apply once.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"hetesim/internal/api"
	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/obs"
)

// options are the command's flags.
type options struct {
	graph, path, source, target, measure, plan, batch, apply, out, enumerate string
	sourceType, targetType, weighting, weights, server                       string
	k, why, explain, maxLen, maxPaths, retries                               int
	raw, relevance, verbose                                                  bool
	retryMax                                                                 time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.graph, "graph", "", "graph JSON file (required)")
	flag.StringVar(&o.path, "path", "", "relevance path, e.g. APVC or author>paper>venue")
	flag.StringVar(&o.source, "source", "", "source object id")
	flag.StringVar(&o.target, "target", "", "target object id (optional: pair query)")
	flag.IntVar(&o.k, "k", 10, "top-k for list queries")
	flag.StringVar(&o.measure, "measure", "hetesim", "measure: hetesim | pcrw | pathsim")
	flag.BoolVar(&o.raw, "raw", false, "report unnormalized HeteSim (meeting probability)")
	flag.StringVar(&o.batch, "batch", "", "run the JSON batch request in this file (\"-\" = stdin) through the batch scheduler")
	flag.StringVar(&o.apply, "apply", "", "apply the JSON mutation batch in this file (\"-\" = stdin) and write the mutated graph")
	flag.StringVar(&o.out, "out", "-", "output file for -apply (\"-\" = stdout)")
	flag.StringVar(&o.enumerate, "enumerate", "", "list relevance paths between two comma-separated types")
	flag.IntVar(&o.maxLen, "maxlen", 4, "maximum path length for -enumerate and -relevance")
	flag.BoolVar(&o.relevance, "relevance", false, "auto relevance: enumerate paths between -source-type and -target-type and combine them into a weighted ensemble")
	flag.StringVar(&o.sourceType, "source-type", "", "source object type for -relevance")
	flag.StringVar(&o.targetType, "target-type", "", "target object type for -relevance")
	flag.StringVar(&o.weighting, "weighting", "uniform", "ensemble weighting for -relevance: uniform | degree | learned")
	flag.StringVar(&o.weights, "weights", "", "learned path-weights JSON file for -relevance ({\"weights\": {\"APA\": 0.6, ...}})")
	flag.IntVar(&o.maxPaths, "maxpaths", 16, "candidate-path cap for -relevance")
	flag.IntVar(&o.explain, "explain", 0, "print the query plans for -path amortized over this many queries")
	flag.StringVar(&o.plan, "plan", "", "force a hetesim physical plan: "+core.PlanKindNames)
	flag.IntVar(&o.why, "why", 0, "with -target: show this many top meeting-object contributions")
	flag.BoolVar(&o.verbose, "v", false, "dump process metrics to stderr after the query")
	flag.StringVar(&o.server, "server", "", "query a running hetesimd/hetesim-router at this base URL instead of loading -graph")
	flag.IntVar(&o.retries, "retries", 3, "with -server: retry attempts for shed responses (429/502/503/504)")
	flag.DurationVar(&o.retryMax, "retry-max-wait", 5*time.Second, "with -server: cap on any single retry wait, including the server's Retry-After")
	flag.Parse()
	err := flag.ErrHelp // no mode: print the usage
	switch {
	case o.server == "" && o.graph == "":
	case o.apply != "":
		err = runApply(&o)
	case o.enumerate != "" && o.server == "" && o.batch == "" && !o.relevance:
		err = runEnumerate(o.graph, o.enumerate, o.maxLen)
	default:
		err = runQuery(&o, os.Stdout)
	}
	if errors.Is(err, flag.ErrHelp) {
		flag.Usage()
		os.Exit(2)
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "hetesim:", err)
		os.Exit(1)
	}
	if o.verbose && o.server == "" {
		fmt.Fprintln(os.Stderr, "--- metrics ---")
		obs.Default().WritePrometheus(os.Stderr)
	}
}

func runEnumerate(graphPath, spec string, maxLen int) error {
	g, err := loadGraph(graphPath)
	if err != nil {
		return err
	}
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-enumerate wants from,to (got %q)", spec)
	}
	paths, err := metapath.Enumerate(g.Schema(), strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), maxLen, 200)
	if err != nil {
		return err
	}
	fmt.Printf("%d relevance paths from %s to %s (maxlen %d):\n", len(paths), parts[0], parts[1], maxLen)
	for _, p := range paths {
		note := ""
		if p.IsSymmetric() {
			note = "  (symmetric)"
		}
		fmt.Printf("  %s%s\n", p, note)
	}
	return nil
}

// runApply applies a mutation batch file to the graph and writes the
// result to -out — the bulk-edit path for operators who stage graph changes
// in files — or, with -server, posts it to POST /v1/admin/edges. The file
// is validated before anything is sent: a typo'd field fails here, not
// after a round trip.
func runApply(o *options) error {
	raw, err := readFileOrStdin(o.apply)
	if err != nil {
		return err
	}
	var batch api.EdgesRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		return fmt.Errorf("decoding mutation batch %s: %w", o.apply, err)
	}
	if o.server != "" {
		if len(batch.Ops) == 0 {
			return fmt.Errorf("mutation batch %s has no ops", o.apply)
		}
		rc, _, _ := newClient(o) // a -server client has no local server to fail or close
		ack, err := rc.call(http.MethodPost, "/v1/admin/edges", nil, raw)
		if err != nil {
			return err
		}
		return printJSON(os.Stdout, ack)
	}
	g, err := loadGraph(o.graph)
	if err != nil {
		return err
	}
	ng, dirty, err := g.Apply(batch.Ops)
	if err != nil {
		return err
	}
	out := os.Stdout
	if o.out != "-" {
		if out, err = os.Create(o.out); err != nil {
			return err
		}
		defer out.Close()
	}
	if err := hin.Write(out, ng); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "applied %d ops: %s -> %s (fingerprint %016x)\n",
		len(batch.Ops), g.Stats(), ng.Stats(), ng.Fingerprint())
	rels := make([]string, 0, len(dirty.Rows))
	for rel := range dirty.Rows {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		fmt.Fprintf(os.Stderr, "  %s: %d source rows, %d target rows perturbed\n",
			rel, len(dirty.Rows[rel]), len(dirty.Cols[rel]))
	}
	return nil
}

func loadGraph(graphPath string) (*hin.Graph, error) {
	f, err := os.Open(graphPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hin.Read(f)
}
