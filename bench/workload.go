package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"

	"hetesim/internal/hin"
	"hetesim/internal/metapath"
)

// warmPaths are the paths both replicas materialize before the clock
// starts on the warm workloads.
var warmPaths = []string{"APA", "AFA", "APVC", "APVPA", "APSPA", "APTPA", "APVCVPA", "CVPA"}

// batchPaths are the four path groups of a /v1/batch request.
var batchPaths = []string{"APA", "APVPA", "APSPA", "APTPA"}

// coldExcluded are enumerated author paths left out of cold-adhoc: their
// cold top-k is two to three orders of magnitude above every other path
// (seconds per op at paper scale), which no run length the contract
// allows can hold. README.md has the measured numbers.
var coldExcluded = map[string]bool{"APTP": true, "APSP": true}

const (
	// rateWarm is the frozen open-loop arrival rate (ops/s) of warm-point's
	// phase B: about half the closed-loop capacity measured at the commit
	// that added the benchmark. README.md says how it was chosen.
	rateWarm = 2000
	// writeRate is the write-mix writer's fixed pace (batches/s).
	writeRate = 5
	// batchSlots is the size of one /v1/batch request.
	batchSlots = 64
	// relevancePaths caps the paths the router enumerates per /v1/relevance.
	relevancePaths = 8
)

type opKind uint8

const (
	opPair opKind = iota
	opTopK
	opBatch
	opRelevance
	opWrite
)

func (k opKind) String() string {
	return [...]string{"pair", "topk", "batch", "relevance", "write"}[k]
}

// slot is one query of a batch op.
type slot struct {
	Kind   string `json:"kind"`
	Path   string `json:"path"`
	Source string `json:"source"`
	Target string `json:"target,omitempty"`
	K      int    `json:"k,omitempty"`
}

// op is one request of a schedule, fully rendered before the clock starts
// (method, uri, body) and carrying the fields the oracle and the deeper
// replay depths need.
type op struct {
	Kind   opKind
	Path   string // pair, topk
	Source string // pair, topk, relevance
	Target string // pair, relevance
	K      int
	Slots  []slot   // batch
	Key    string   // write: idempotency key
	Ops    []hin.Op // write

	Method string
	URI    string
	Body   []byte
}

// workload is one traffic mix and the fleet it runs against.
type workload struct {
	Name       string
	Why        string
	CacheLimit int      // replica chain-cache limit; 0 = unbounded
	Precompute []string // paths materialized on both replicas at boot
	WAL        bool     // replica 1 primary with a WAL, replica 2 follows it
	Clients    int      // closed-loop clients (connections)

	Timed   func(*run) (phase, error) // the timed phases; returns what is reported end to end
	ReplayN int                       // ops the traced run's depth replay walks
	Sample  func(gn *gen, n int) []op // those ops; nil on write-mix, which replays writes
}

var workloads = []workload{
	{
		Name:       "warm-point",
		Why:        "materialized paths, so router relay, HTTP/JSON codec, plan select and the warm row scan are the whole request; kernels idle",
		Precompute: warmPaths,
		Clients:    2,
		Timed:      (*run).warmPoint,
		ReplayN:    500,
		Sample:     (*gen).pointMix,
	},
	{
		Name:       "cold-adhoc",
		Why:        "never-seen meta paths against an 8-entry chain cache, so transition build and SpGEMM/vector propagation do nearly all the work",
		CacheLimit: 8,
		Clients:    1,
		Timed:      (*run).coldAdhoc,
		Sample:     func(gn *gen, _ int) []op { return gn.coldCycle() }, // one whole cycle
	},
	{
		Name:    "batch-ensemble",
		Why:     "64-slot /v1/batch and scattered /v1/relevance, so batch amortization, enumerate/combine and router scatter dominate",
		Clients: 2,
		Timed:   (*run).batchEnsemble,
		ReplayN: 120,
		Sample:  (*gen).ensembleMix,
	},
	{
		Name:       "write-mix",
		Why:        "edge-delta writes beside warm reads on a primary/follower fleet, so WAL fsync, hin.Apply and chain rewarm contend with readers",
		Precompute: warmPaths,
		WAL:        true,
		Clients:    1,
		Timed:      (*run).writeMix,
		ReplayN:    30,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1),
// the exponent-1 case math/rand's Zipf does not cover.
type zipf struct{ cdf []float64 }

func newZipf(n int) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// pathCache parses each path spec of a schema once.
type pathCache struct {
	schema *hin.Schema
	parsed map[string]*metapath.Path
}

func newPathCache(g *hin.Graph) pathCache {
	return pathCache{schema: g.Schema(), parsed: map[string]*metapath.Path{}}
}

func (c pathCache) path(spec string) *metapath.Path {
	p, ok := c.parsed[spec]
	if !ok {
		p = metapath.MustParse(c.schema, spec) // specs are the benchmark's own constants and enumerations
		c.parsed[spec] = p
	}
	return p
}

// gen builds schedules for one graph from one seed.
type gen struct {
	pathCache
	g     *hin.Graph
	rng   *rand.Rand
	zipfs map[string]*zipf
}

func newGen(g *hin.Graph, seed int64) *gen {
	return &gen{pathCache: newPathCache(g), g: g, rng: rand.New(rand.NewSource(seed)), zipfs: map[string]*zipf{}}
}

// node draws a Zipf(1.0) node of a type: rank r is node index r, and the
// generator's low indices are its prolific authors and papers.
func (gn *gen) node(typ string) string {
	z, ok := gn.zipfs[typ]
	if !ok {
		z = newZipf(gn.g.NodeCount(typ))
		gn.zipfs[typ] = z
	}
	return gn.g.NodeIDs(typ)[z.draw(gn.rng)]
}

func (gn *gen) pair(spec string) op {
	p := gn.path(spec)
	o := op{Kind: opPair, Path: spec, Source: gn.node(p.Source()), Target: gn.node(p.Target()), Method: "GET"}
	o.URI = "/v1/pair?path=" + url.QueryEscape(spec) + "&source=" + url.QueryEscape(o.Source) + "&target=" + url.QueryEscape(o.Target)
	return o
}

func (gn *gen) topk(spec string) op {
	p := gn.path(spec)
	o := op{Kind: opTopK, Path: spec, Source: gn.node(p.Source()), K: 10, Method: "GET"}
	o.URI = "/v1/topk?path=" + url.QueryEscape(spec) + "&source=" + url.QueryEscape(o.Source) + "&k=10"
	return o
}

// pointMix is n reads, half pair and half top-k, uniform over the
// materialized paths.
func (gn *gen) pointMix(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		spec := warmPaths[gn.rng.Intn(len(warmPaths))]
		if gn.rng.Intn(2) == 0 {
			ops[i] = gn.pair(spec)
		} else {
			ops[i] = gn.topk(spec)
		}
	}
	return ops
}

// coldPaths enumerates every path of length 2..4 from author to each type,
// minus coldExcluded, in enumeration order.
func coldPaths(schema *hin.Schema) []string {
	var specs []string
	for _, t := range schema.Types() {
		paths, err := metapath.Enumerate(schema, "author", t.Name, 4, 0)
		if err != nil {
			panic(err) // the ACM schema has these types
		}
		for _, p := range paths {
			if p.Len() >= 2 && !coldExcluded[p.String()] {
				specs = append(specs, p.String())
			}
		}
	}
	return specs
}

// coldCycle is two top-k (two sources) and one pair on every cold path:
// with twice as many top-k as pairs the median op is a cold top-k, not
// the boundary between the cheap pairs and the top-k above them. The
// paths are visited in one order twice — first top-k in the first half,
// second in the second, pairs alternating between the halves — so a
// path's two top-k are always half a cycle apart and the second never
// finds the first one's chains still in the 8-entry cache. The order is a
// fixed shuffle, the same for every seed: paths share half-chains, so the
// order decides which ops find a neighbour's chain cached, and an order
// per seed moved latency_p50_ms by a quarter between seeds. The seed
// draws the sources and targets.
func (gn *gen) coldCycle() []op {
	specs := coldPaths(gn.g.Schema())
	rand.New(rand.NewSource(1)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	var ops []op
	for half := 0; half < 2; half++ {
		for i, spec := range specs {
			ops = append(ops, gn.topk(spec))
			if i%2 == half {
				ops = append(ops, gn.pair(spec))
			}
		}
	}
	return ops
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return b
}

// ensembleMix is n ops in the fixed pattern batch, batch, relevance: 64-slot
// batches (pair + top-k over four path groups) and pair-mode author→author
// relevance queries. The two kinds are an order of magnitude apart, so
// the pattern is fixed rather than drawn: a drawn mix moves ops/s with
// the share of batches each window happens to get, and at one half each
// the median op is the gap between the kinds. At two thirds the median
// and the tail are batches; the relevance posts show in throughput and
// in the per-kind lines.
func (gn *gen) ensembleMix(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		if i%3 != 2 {
			o := op{Kind: opBatch, Method: "POST", URI: "/v1/batch"}
			for s := 0; s < batchSlots; s++ {
				spec := batchPaths[s%len(batchPaths)]
				if s/len(batchPaths)%2 == 0 {
					q := gn.pair(spec)
					o.Slots = append(o.Slots, slot{Kind: "pair", Path: spec, Source: q.Source, Target: q.Target})
				} else {
					q := gn.topk(spec)
					o.Slots = append(o.Slots, slot{Kind: "topk", Path: spec, Source: q.Source, K: q.K})
				}
			}
			o.Body = mustJSON(map[string]any{"queries": o.Slots})
			ops[i] = o
			continue
		}
		o := op{Kind: opRelevance, Method: "POST", URI: "/v1/relevance",
			Source: gn.node("author"), Target: gn.node("author")}
		o.Body = mustJSON(map[string]any{
			"source": o.Source, "source_type": "author",
			"target": o.Target, "target_type": "author",
			"max_paths": relevancePaths,
		})
		ops[i] = o
	}
	return ops
}

// writeGen produces edge-delta batches that are always valid against the
// graph they will meet: it upserts edges absent from the base graph and
// deletes only edges it upserted in an earlier batch. shift moves every
// upsert's target by a fixed offset, so several generators with one seed
// yield batches of identical shape over disjoint edges — what lets the
// depth replay pair write i at one depth with write i at the next.
type writeGen struct {
	gn    *gen
	tag   string
	shift int
	n     int
	live  []hin.Op // upserts not yet deleted
	have  map[string]bool
}

func newWriteGen(g *hin.Graph, seed int64, tag string, shift int) *writeGen {
	return &writeGen{gn: newGen(g, seed), tag: tag, shift: shift, have: map[string]bool{}}
}

var writeRelations = []struct{ rel, src, dst string }{
	{"writes", "author", "paper"},
	{"mentions", "paper", "term"},
}

func (w *writeGen) next() op {
	g, rng := w.gn.g, w.gn.rng
	o := op{Kind: opWrite, Method: "POST", URI: "/v1/admin/edges", Key: fmt.Sprintf("bench-%s-%d", w.tag, w.n)}
	w.n++
	deletable := len(w.live)
	for k, nOps := 0, 1+rng.Intn(4); k < nOps; k++ {
		if deletable > 0 && rng.Intn(10) < 3 {
			i := rng.Intn(deletable)
			d := w.live[i]
			// Keep this batch's own upserts (the tail) out of reach.
			deletable--
			last := len(w.live) - 1
			w.live[i] = w.live[deletable]
			w.live[deletable] = w.live[last]
			w.live = w.live[:last]
			delete(w.have, d.Relation+"\x00"+d.Src+"\x00"+d.Dst)
			o.Ops = append(o.Ops, hin.Op{Kind: hin.OpDeleteEdge, Relation: d.Relation, Src: d.Src, Dst: d.Dst})
			continue
		}
		for {
			r := writeRelations[rng.Intn(len(writeRelations))]
			src := w.gn.node(r.src)
			di := (rng.Intn(g.NodeCount(r.dst)) + w.shift) % g.NodeCount(r.dst)
			dst := g.NodeIDs(r.dst)[di]
			key := r.rel + "\x00" + src + "\x00" + dst
			si, _ := g.NodeIndex(r.src, src)
			adj, _ := g.Adjacency(r.rel)
			if w.have[key] || adj.At(si, di) != 0 {
				continue
			}
			w.have[key] = true
			up := hin.Op{Kind: hin.OpUpsertEdge, Relation: r.rel, Src: src, Dst: dst, Weight: 1}
			w.live = append(w.live, up)
			o.Ops = append(o.Ops, up)
			break
		}
	}
	o.Body = mustJSON(map[string]any{"key": o.Key, "ops": o.Ops})
	return o
}

func (w *writeGen) batches(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = w.next()
	}
	return ops
}

// scheduleBytes is the canonical rendering of a schedule: what the
// same-seed-same-inputs guarantee is stated over.
func scheduleBytes(ops []op) []byte {
	var b bytes.Buffer
	for _, o := range ops {
		fmt.Fprintf(&b, "%s %s %s\n", o.Method, o.URI, o.Body)
	}
	return b.Bytes()
}
