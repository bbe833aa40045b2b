// Command hetesim answers relevance queries over a heterogeneous network
// stored in the JSON format of package hin (produce one with cmd/datagen).
//
// Usage:
//
//	hetesim -graph g.json -path APVC -source <id> [-target <id>] [-k 10]
//	        [-measure hetesim|pcrw|pathsim] [-raw] [-plan kind]
//	hetesim -graph g.json -enumerate author,conference [-maxlen 4]
//	hetesim -graph g.json -relevance -source <id> -source-type author
//	        [-target <id>] -target-type author [-k 10] [-maxlen 4]
//	        [-maxpaths 16] [-weighting uniform|degree|learned]
//	        [-weights weights.json] [-raw]
//	hetesim -graph g.json -batch queries.json
//	hetesim -graph g.json -apply deltas.json [-out g2.json]
//	hetesim -server http://host:8090 -path APC -source <id> [-target <id>]
//	        [-retries 3] [-retry-max-wait 5s]
//
// With -target it prints the pair's relevance; without, the top-k most
// related objects of the path's target type. -plan forces a physical query
// plan instead of letting the cost-based optimizer choose (the chosen plan is reported on stderr);
// -explain prints the optimizer's cost model for a path. -enumerate
// lists the candidate relevance paths between two types, the input to
// path selection. -v dumps the process metrics (Prometheus text format)
// to stderr after the query, showing what the kernels and caches did
// for it.
//
// -batch runs many queries from a JSON file ("-" reads stdin) through the
// path-group batch scheduler — the same request shape as POST /v1/batch:
// {"queries": [{"kind": "pair"|"single_source"|"topk", "path": "...",
// "source": "...", "target": "...", "k": 10, "eps": 0, "raw": false}]}.
// Results (one per query, each with its own error) and the amortization
// stats are printed as JSON.
//
// -relevance answers without a path: it enumerates every schema-valid meta
// path between -source-type and -target-type (up to -maxlen steps and
// -maxpaths candidates), scores them all through the batch scheduler so
// paths with common prefixes share chain propagation, and prints the
// weighted ensemble with each path's contribution. With -target it scores
// the pair; without, it ranks the top -k objects of -target-type.
// -weighting learned needs -weights, a JSON file of per-path weights
// (e.g. exported from a learn.PathWeights fit).
//
// -apply is the offline counterpart of the daemon's POST /v1/admin/edges:
// it applies a batch of mutation ops from a JSON file ("-" reads stdin;
// {"ops": [{"op": "upsert_edge"|"delete_edge"|"add_node", ...}]}) to the
// graph all-or-nothing and writes the mutated graph to -out ("-" = stdout,
// the default). The batch's dirty summary is reported on stderr.
//
// -server skips the local graph entirely and sends the query to a running
// hetesimd (or a hetesim-router fronting a fleet): -path/-source/-target
// hit /v1/pair, /v1/topk, or /v1/why, -batch posts to /v1/batch,
// -relevance posts to /v1/relevance, and -apply posts the mutation batch
// to POST /v1/admin/edges — through a router it lands on the elected
// write primary and replicates to the fleet; the file may carry an
// optional "key" (idempotency key) so a retried command never
// double-applies. Shed responses (429/503 and friends)
// are retried with exponential backoff honoring the server's Retry-After;
// -retries and -retry-max-wait bound the persistence, so a draining or
// briefly overloaded server costs a short wait instead of a hard failure.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"hetesim/internal/baseline"
	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/rank"
	"hetesim/internal/relevance"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "graph JSON file (required)")
		pathSpec   = flag.String("path", "", "relevance path, e.g. APVC or author>paper>venue")
		source     = flag.String("source", "", "source object id")
		target     = flag.String("target", "", "target object id (optional: pair query)")
		k          = flag.Int("k", 10, "top-k for list queries")
		measure    = flag.String("measure", "hetesim", "measure: hetesim | pcrw | pathsim")
		raw        = flag.Bool("raw", false, "report unnormalized HeteSim (meeting probability)")
		batchFile  = flag.String("batch", "", "run the JSON batch request in this file (\"-\" = stdin) through the batch scheduler")
		applyFile  = flag.String("apply", "", "apply the JSON mutation batch in this file (\"-\" = stdin) and write the mutated graph")
		outFile    = flag.String("out", "-", "output file for -apply (\"-\" = stdout)")
		enumerate  = flag.String("enumerate", "", "list relevance paths between two comma-separated types")
		maxLen     = flag.Int("maxlen", 4, "maximum path length for -enumerate and -relevance")
		relevanceQ = flag.Bool("relevance", false, "auto relevance: enumerate paths between -source-type and -target-type and combine them into a weighted ensemble")
		sourceType = flag.String("source-type", "", "source object type for -relevance")
		targetType = flag.String("target-type", "", "target object type for -relevance")
		weighting  = flag.String("weighting", "uniform", "ensemble weighting for -relevance: uniform | degree | learned")
		weightsF   = flag.String("weights", "", "learned path-weights JSON file for -relevance ({\"weights\": {\"APA\": 0.6, ...}})")
		maxPaths   = flag.Int("maxpaths", 16, "candidate-path cap for -relevance")
		explain    = flag.Int("explain", 0, "print the query plans for -path amortized over this many queries")
		planName   = flag.String("plan", "", "force a hetesim physical plan: "+core.PlanKindNames)
		why        = flag.Int("why", 0, "with -target: show this many top meeting-object contributions")
		verbose    = flag.Bool("v", false, "dump process metrics to stderr after the query")
		serverURL  = flag.String("server", "", "query a running hetesimd/hetesim-router at this base URL instead of loading -graph")
		retries    = flag.Int("retries", 3, "with -server: retry attempts for shed responses (429/502/503/504)")
		retryMax   = flag.Duration("retry-max-wait", 5*time.Second, "with -server: cap on any single retry wait, including the server's Retry-After")
	)
	flag.Parse()
	if *serverURL != "" {
		rc := newRemoteClient(*serverURL, *retries, *retryMax)
		if err := runRemote(rc, *pathSpec, *source, *target, *measure, *k, *raw,
			*batchFile, *applyFile, *relevanceQ, *sourceType, *targetType, *weighting, *maxLen, *maxPaths, *why); err != nil {
			fmt.Fprintln(os.Stderr, "hetesim:", err)
			os.Exit(1)
		}
		return
	}
	if *graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *applyFile != "":
		err = runApply(*graphPath, *applyFile, *outFile)
	case *batchFile != "":
		err = runBatch(*graphPath, *batchFile, os.Stdout)
	case *relevanceQ:
		err = runRelevance(*graphPath, *source, *sourceType, *target, *targetType,
			*weighting, *weightsF, *k, *maxLen, *maxPaths, *raw)
	case *enumerate != "":
		err = runEnumerate(*graphPath, *enumerate, *maxLen)
	case *explain > 0 && *pathSpec != "":
		err = runExplain(*graphPath, *pathSpec, *explain)
	case *why > 0 && *pathSpec != "" && *source != "" && *target != "":
		err = runWhy(*graphPath, *pathSpec, *source, *target, *why, *raw)
	case *pathSpec != "" && *source != "":
		err = run(*graphPath, *pathSpec, *source, *target, *measure, *planName, *k, *raw)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetesim:", err)
		os.Exit(1)
	}
	if *verbose {
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

// runRelevance is the CLI face of the auto-relevance ensemble: same
// enumeration, scoring, and weighting as POST /v1/relevance.
func runRelevance(graphPath, source, sourceType, target, targetType, weighting, weightsFile string, k, maxLen, maxPaths int, raw bool) error {
	if source == "" || sourceType == "" || targetType == "" {
		return fmt.Errorf("-relevance needs -source, -source-type and -target-type")
	}
	g, err := loadGraph(graphPath)
	if err != nil {
		return err
	}
	e := core.NewEngine(g, core.WithNormalization(!raw))
	src, err := g.NodeIndex(sourceType, source)
	if err != nil {
		return err
	}
	o := relevance.Options{MaxLen: maxLen, MaxPaths: maxPaths, Weighting: weighting}
	if weightsFile != "" {
		if o.Learned, err = relevance.LoadWeightsFile(weightsFile); err != nil {
			return err
		}
	}
	report := func(res *relevance.Result, pair bool) {
		for _, ps := range res.Paths {
			if ps.Error != "" {
				fmt.Fprintf(os.Stderr, "  %-12s w=%.4f FAILED: %s\n", ps.Path, ps.Weight, ps.Error)
				continue
			}
			// Top-k paths contribute a score vector, not a scalar.
			score := ""
			if pair {
				score = fmt.Sprintf(" score=%.6f", ps.Score)
			}
			fmt.Fprintf(os.Stderr, "  %-12s w=%.4f%s plan=%s\n",
				ps.Path, ps.Weight, score, ps.Plan)
		}
		fmt.Fprintf(os.Stderr, "  shared %d/%d path queries; %d row-steps vs %d naive\n",
			res.Stats.SharedQueries, len(res.Paths), res.Stats.RowSteps, res.Stats.NaiveRowSteps)
	}
	if target != "" {
		dst, err := g.NodeIndex(targetType, target)
		if err != nil {
			return err
		}
		res, err := relevance.Pair(context.Background(), e, sourceType, src, targetType, dst, o)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ensemble of %d %s→%s paths (%s weighting):\n",
			len(res.Paths), sourceType, targetType, weighting)
		report(res, true)
		fmt.Printf("relevance(%s, %s) = %.6f\n", source, target, res.Score)
		return nil
	}
	res, ranked, err := relevance.TopK(context.Background(), e, sourceType, src, targetType, k, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ensemble of %d %s→%s paths (%s weighting):\n",
		len(res.Paths), sourceType, targetType, weighting)
	report(res, false)
	fmt.Printf("top %d %s objects related to %s (auto relevance):\n", len(ranked), targetType, source)
	for i, hit := range ranked {
		id, _ := g.NodeID(targetType, hit.Index) // in range: ranked indexes targetType
		fmt.Printf("  %2d. %-24s %.6f\n", i+1, id, hit.Score)
	}
	return nil
}

func runExplain(graphPath, pathSpec string, queries int) error {
	g, p, err := loadGraphAndPath(graphPath, pathSpec)
	if err != nil {
		return err
	}
	out, _, err := core.NewEngine(g).Explain(p, queries)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func runWhy(graphPath, pathSpec, source, target string, k int, raw bool) error {
	g, p, err := loadGraphAndPath(graphPath, pathSpec)
	if err != nil {
		return err
	}
	e := core.NewEngine(g, core.WithNormalization(!raw))
	src, err := g.NodeIndex(p.Source(), source)
	if err != nil {
		return err
	}
	dst, err := g.NodeIndex(p.Target(), target)
	if err != nil {
		return err
	}
	score, contribs, err := e.PairContributions(context.Background(), p, src, dst, k, false) // raw is the engine default
	if err != nil {
		return err
	}
	fmt.Printf("hetesim(%s, %s | %s) = %.6f; top meeting objects:\n", source, target, p, score)
	for _, c := range contribs {
		fmt.Printf("  %-24s %.6f (%.1f%%)\n", c.Label, c.Value, 100*c.Fraction)
	}
	return nil
}

// reportPlan tells the operator what the optimizer chose, on stderr so the
// score on stdout stays machine-readable.
func reportPlan(d core.PlanDecision, err error) {
	if err != nil || d.Kind == "" {
		return
	}
	fmt.Fprintf(os.Stderr, "plan: %s (est %.3g flops, %s)\n", d.Kind, d.Est.Flops, d.Reason)
}

// runApply applies a mutation batch to the graph offline and writes the
// result — the bulk-edit path for operators who stage graph changes in
// files rather than through the daemon's mutation endpoint.
func runApply(graphPath, applyFile, outFile string) error {
	g, err := loadGraph(graphPath)
	if err != nil {
		return err
	}
	in := os.Stdin
	if applyFile != "-" {
		if in, err = os.Open(applyFile); err != nil {
			return err
		}
		defer in.Close()
	}
	var batch struct {
		Ops []hin.Op `json:"ops"`
	}
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		return fmt.Errorf("decoding mutation batch: %w", err)
	}
	ng, dirty, err := g.Apply(batch.Ops)
	if err != nil {
		return err
	}
	out := os.Stdout
	if outFile != "-" {
		if out, err = os.Create(outFile); err != nil {
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

// loadGraphAndPath loads the graph and parses a -path spec against it.
func loadGraphAndPath(graphPath, pathSpec string) (*hin.Graph, *metapath.Path, error) {
	g, err := loadGraph(graphPath)
	if err != nil {
		return nil, nil, err
	}
	p, err := metapath.Parse(g.Schema(), pathSpec)
	return g, p, err
}

func run(graphPath, pathSpec, source, target, measure, planName string, k int, raw bool) error {
	g, p, err := loadGraphAndPath(graphPath, pathSpec)
	if err != nil {
		return err
	}
	force, err := core.ParsePlanKind(planName)
	if err != nil {
		return err
	}
	if force != core.PlanAuto && measure != "hetesim" {
		return fmt.Errorf("-plan applies only to the hetesim measure")
	}
	var single func(string) ([]float64, error)
	var pair func(string, string) (float64, error)
	switch measure {
	case "hetesim":
		e := core.NewEngine(g, core.WithNormalization(!raw))
		po := core.PlanOptions{Force: force}
		single = func(s string) ([]float64, error) {
			src, err := g.NodeIndex(p.Source(), s)
			if err != nil {
				return nil, err
			}
			scores, d, err := e.SingleSourceWithPlan(context.Background(), p, src, po)
			reportPlan(d, err)
			return scores, err
		}
		pair = func(s, t string) (float64, error) {
			src, err := g.NodeIndex(p.Source(), s)
			if err != nil {
				return 0, err
			}
			dst, err := g.NodeIndex(p.Target(), t)
			if err != nil {
				return 0, err
			}
			v, d, err := e.PairWithPlan(context.Background(), p, src, dst, po)
			reportPlan(d, err)
			return v, err
		}
	case "pcrw":
		m := baseline.NewPCRW(g)
		single = func(s string) ([]float64, error) { return m.SingleSource(context.Background(), p, s) }
		pair = func(s, t string) (float64, error) { return m.Pair(context.Background(), p, s, t) }
	case "pathsim":
		m := baseline.NewPathSim(g)
		single = func(s string) ([]float64, error) { return m.SingleSource(context.Background(), p, s) }
		pair = func(s, t string) (float64, error) { return m.Pair(context.Background(), p, s, t) }
	default:
		return fmt.Errorf("unknown measure %q", measure)
	}

	if target != "" {
		v, err := pair(source, target)
		if err != nil {
			return err
		}
		fmt.Printf("%s(%s, %s | %s) = %.6f\n", measure, source, target, p, v)
		return nil
	}
	scores, err := single(source)
	if err != nil {
		return err
	}
	items, err := rank.List(scores, g.NodeIDs(p.Target()), k)
	if err != nil {
		return err
	}
	fmt.Printf("top %d %s objects related to %s along %s (%s):\n", len(items), p.Target(), source, p, measure)
	fmt.Print(rank.Format(items))
	return nil
}
