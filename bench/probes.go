package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hetesim/internal/core"
	"hetesim/internal/datagen"
	"hetesim/internal/embed"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/relevance"
	"hetesim/internal/snapshot"
	"hetesim/internal/sparse"
)

// probeRepeats is how often each layer probe repeats; the median is kept.
const probeRepeats = 3

// prober runs the layer probes: direct calls into one package at a time,
// the same calls whatever the workload, so a layer's number can be read
// next to any workload's end-to-end ones. Every call is a span.
type prober struct {
	r     *run
	tr    *tracer
	g     *hin.Graph
	gn    *gen
	dir   string
	layer map[string]float64
}

// timeMedian runs f probeRepeats times and returns the median duration.
func (p *prober) timeMedian(name string, f func()) time.Duration {
	var d []float64
	for i := 0; i < probeRepeats; i++ {
		t, _ := p.tr.timed("d4 "+name, -1, -1, f)
		d = append(d, float64(t))
	}
	return time.Duration(median(d))
}

// product is one half-chain SpGEMM of the kernel replay.
type product struct {
	key        string
	a, b       *sparse.Matrix
	flops, nnz float64 // multiply-adds; nonzeros of the result
	ms         float64
}

// flopsOf counts the multiply-adds of a·b from the operands' structure.
func flopsOf(a, b *sparse.Matrix) float64 {
	n := 0
	for _, t := range a.Triplets() {
		n += b.RowNNZ(t.Col)
	}
	return float64(n)
}

func stepsKey(steps []metapath.Step) string {
	var sb strings.Builder
	for _, s := range steps {
		sb.WriteString(s.Relation.Name)
		if s.Inverse {
			sb.WriteByte('~')
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

// sparseProbes replays the kernels under every even cold-adhoc path: its
// two half-chains, each the product of two transition matrices built
// Adjacency → Transpose → RowNormalize. It returns, per path, the Mul time
// of the right half-chain — the one a cold top-k materializes; the left
// side is a single row's propagation.
func (p *prober) sparseProbes(k *kernels) map[string]float64 {
	procs := runtime.GOMAXPROCS(0)
	products := map[string]*product{}
	perPath := map[string][]string{}
	for _, spec := range coldPaths(p.g.Schema()) {
		path := p.gn.path(spec)
		left, right, ok := halfChains(path)
		if !ok || path.Len() != 4 {
			continue
		}
		for _, half := range [][]metapath.Step{left, right} {
			key := stepsKey(half)
			perPath[spec] = append(perPath[spec], key)
			if products[key] == nil {
				a, b := k.transition(half[0]), k.transition(half[1])
				products[key] = &product{key: key, a: a, b: b, flops: flopsOf(a, b)}
			}
		}
	}
	keys := make([]string, 0, len(products))
	for key := range products {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	var flops, nnzA, nnzC, mulS, parS float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, key := range keys {
		pr := products[key]
		var c *sparse.Matrix
		d := p.timeMedian("sparse.Mul "+key, func() { c = pr.a.Mul(pr.b) })
		pr.ms, pr.nnz = ms(d), float64(c.NNZ())
		mulS += d.Seconds()
		flops += pr.flops
		nnzA += float64(pr.a.NNZ())
		nnzC += pr.nnz
	}
	runtime.ReadMemStats(&ms1)
	for _, key := range keys {
		pr := products[key]
		parS += p.timeMedian("sparse.MulParallel "+key, func() { pr.a.MulParallel(pr.b, procs) }).Seconds()
	}
	p.layer["sparse.mul_ms"] = 1e3 * mulS
	p.layer["sparse.mul_gflops"] = flops / mulS / 1e9
	p.layer["sparse.mulparallel_gflops"] = flops / parS / 1e9
	// Computed, not measured: 16 bytes (value + column index) per entry of
	// A read once, per entry of B read per multiply-add, per entry of C written.
	p.layer["sparse.bytes_per_flop"] = 16 * (nnzA + flops + nnzC) / flops
	p.layer["sparse.allocs_per_mul"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(probeRepeats*len(keys))

	var trS, rnS float64
	for _, rel := range p.g.Schema().Relations() {
		w, _ := p.g.Adjacency(rel.Name)
		var wt *sparse.Matrix
		trS += p.timeMedian("sparse.Transpose "+rel.Name, func() { wt = w.Transpose() }).Seconds()
		rnS += p.timeMedian("sparse.RowNormalize "+rel.Name, func() { wt.RowNormalize() }).Seconds()
	}
	p.layer["sparse.transpose_ms"] = 1e3 * trS
	p.layer["sparse.rownormalize_ms"] = 1e3 * rnS

	// One source row through every left half-chain.
	var vec []float64
	for _, spec := range sortedKeys(perPath) {
		path := p.gn.path(spec)
		left, _, _ := halfChains(path)
		src, _ := p.g.NodeIndex(path.Source(), p.gn.node(path.Source()))
		d := p.timeMedian("sparse.Vector.MulMat "+spec, func() {
			v := sparse.Unit(p.g.NodeCount(path.Source()), src)
			for _, s := range left {
				v = v.MulMat(k.transition(s))
			}
		})
		vec = append(vec, us(d))
	}
	p.layer["sparse.vecmul_us"] = median(vec)

	// What the box can do: one large copy, read + written bytes per second.
	size := 128 << 20
	if p.r.cfg.short {
		size = 8 << 20
	}
	src, dst := make([]byte, size), make([]byte, size)
	for i := 0; i < len(src); i += 4096 {
		src[i], dst[i] = 1, 1 // fault the pages in before timing
	}
	d := p.timeMedian("memcopy", func() { copy(dst, src) })
	p.layer["sparse.membw_gbs"] = 2 * float64(size) / d.Seconds() / 1e9

	mulMS := map[string]float64{}
	for spec, ks := range perPath {
		mulMS[spec] = products[ks[1]].ms
	}
	return mulMS
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// coreProbes times the engine's public calls warm and cold.
func (p *prober) coreProbes(mulMS map[string]float64) error {
	ctx := context.Background()
	var warm *core.Engine
	var err error
	pre := p.timeMedian("core.Precompute warm paths", func() {
		warm = core.NewEngine(p.g)
		for _, spec := range warmPaths {
			if e := warm.Precompute(ctx, p.gn.path(spec)); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	p.layer["core.precompute_s"] = pre.Seconds()

	var topk, pair, explain []float64
	for i := 0; i < 200; i++ {
		spec := warmPaths[i%len(warmPaths)]
		path := p.gn.path(spec)
		src, _ := p.g.NodeIndex(path.Source(), p.gn.node(path.Source()))
		dst, _ := p.g.NodeIndex(path.Target(), p.gn.node(path.Target()))
		t, _ := p.tr.timed("d3 core.TopKSearchWithPlan warm", -1, -1, func() {
			_, _, err = warm.TopKSearchWithPlan(ctx, path, src, 10, 0, core.PlanOptions{})
		})
		topk = append(topk, us(t))
		t, _ = p.tr.timed("d3 core.PairWithPlan warm", -1, -1, func() {
			_, _, err = warm.PairWithPlan(ctx, path, src, dst, core.PlanOptions{})
		})
		pair = append(pair, us(t))
		t, _ = p.tr.timed("d3 core.Explain", -1, -1, func() { _, _, err = warm.Explain(path, 1) })
		explain = append(explain, us(t))
		if err != nil {
			return err
		}
	}
	p.layer["core.topk_warm_us"] = median(topk)
	p.layer["core.pair_warm_us"] = median(pair)
	p.layer["core.explain_us"] = median(explain)

	// Cold: every even length-4 cold-adhoc path on an empty chain cache.
	cold := core.NewEngine(p.g)
	var ctopk, cpair, cself []float64
	for _, spec := range sortedKeys(mulMS) {
		path := p.gn.path(spec)
		src, _ := p.g.NodeIndex(path.Source(), p.gn.node(path.Source()))
		dst, _ := p.g.NodeIndex(path.Target(), p.gn.node(path.Target()))
		d := p.timeMedian("d3 core.TopKSearchWithPlan cold "+spec, func() {
			cold.ClearCache()
			_, _, err = cold.TopKSearchWithPlan(ctx, path, src, 10, 0, core.PlanOptions{})
		})
		ctopk = append(ctopk, ms(d))
		cself = append(cself, ms(d)-mulMS[spec])
		d = p.timeMedian("d3 core.PairWithPlan cold "+spec, func() {
			cold.ClearCache()
			_, _, err = cold.PairWithPlan(ctx, path, src, dst, core.PlanOptions{})
		})
		cpair = append(cpair, ms(d))
		if err != nil {
			return err
		}
	}
	p.layer["core.topk_cold_ms"] = median(ctopk)
	p.layer["core.pair_cold_ms"] = median(cpair)
	p.layer["core.cold_self_ms"] = median(cself)

	// Batch planner: 64-slot batches on an engine that keeps its cache.
	batchEng := core.NewEngine(p.g)
	var bms, amort, ratio []float64
	for _, o := range p.gn.ensembleMix(40) {
		if o.Kind != opBatch {
			continue
		}
		qs := batchQueries(p.gn.pathCache, p.g, o.Slots)
		var st core.BatchStats
		t, _ := p.tr.timed("d3 core.ExecuteBatch", -1, -1, func() { _, st, err = batchEng.ExecuteBatch(ctx, qs, core.BatchOptions{}) })
		if err != nil {
			return err
		}
		bms = append(bms, ms(t))
		amort = append(amort, st.Amortization)
		if st.RowSteps > 0 {
			ratio = append(ratio, float64(st.NaiveRowSteps)/float64(st.RowSteps))
		}
	}
	p.layer["core.batch_exec_ms"] = median(bms)
	p.layer["core.batch_amortization"] = median(amort)
	p.layer["core.row_steps_ratio"] = median(ratio)

	// relevance: direct ensemble over the same warm engine.
	var rms, paths, resumes []float64
	for i := 0; i < 20; i++ {
		src, _ := p.g.NodeIndex("author", p.gn.node("author"))
		dst, _ := p.g.NodeIndex("author", p.gn.node("author"))
		var res *relevance.Result
		t, _ := p.tr.timed("d3 relevance.Pair", -1, -1, func() {
			res, err = relevance.Pair(ctx, warm, "author", src, "author", dst, relevance.Options{MaxPaths: relevancePaths})
		})
		if err != nil {
			return err
		}
		rms = append(rms, ms(t))
		paths = append(paths, float64(len(res.Paths)))
		resumes = append(resumes, float64(res.Stats.PrefixResumes))
	}
	p.layer["relevance.pair_ms"] = median(rms)
	p.layer["relevance.paths_per_query"] = median(paths)
	p.layer["relevance.prefix_resumes_per_query"] = median(resumes)

	// The write path, batch after batch as the primary runs it, then one
	// tail read of the log it wrote (fsync on the sandbox's disk).
	state, err := newPrimary(p.g, workload{}, warm, p.dir, "probe.wal")
	if err != nil {
		return err
	}
	defer state.log.Close()
	var wt writeTimes
	nOps := 0
	for _, o := range newWriteGen(p.g, p.r.cfg.seed, "probe", 7).batches(12) {
		if err := state.apply(p.tr, -1, -1, &o, &wt); err != nil {
			return err
		}
		nOps += len(o.Ops)
	}
	p.layer["hin.apply_ms"] = median(wt.Apply)
	p.layer["hin.fingerprint_ms"] = median(wt.Fingerprint)
	p.layer["core.rewarm_ms"] = median(wt.Rewarm)
	p.layer["core.rewarm_rows_patched"] = median(wt.Rows)
	p.layer["wal.append_ms"] = median(wt.Append)
	p.layer["wal.bytes_per_op"] = float64(state.log.Size()) / float64(nOps)
	p.layer["wal.tail_read_ms"] = ms(p.timeMedian("d4 wal.TailSince", func() { _, err = state.log.TailSince(1, 256) }))
	if err != nil {
		return err
	}

	// snapshot: the warm engine's chains out to a file and back.
	snapPath := filepath.Join(p.dir, "probe.snap")
	save := p.timeMedian("d4 snapshot.Save", func() {
		snap := &snapshot.Snapshot{Fingerprint: p.g.Fingerprint()}
		if err = snapshot.EncodeChains(snap, warm.ExportChains()); err == nil {
			err = snapshot.Save(snapshot.OS{}, snapPath, snap)
		}
	})
	if err != nil {
		return err
	}
	load := p.timeMedian("d4 snapshot.Load", func() {
		var snap *snapshot.Snapshot
		if snap, err = snapshot.Load(snapshot.OS{}, snapPath); err == nil {
			_, err = snapshot.DecodeChains(snap)
		}
	})
	if err != nil {
		return err
	}
	p.layer["snapshot.save_ms"] = ms(save)
	p.layer["snapshot.load_ms"] = ms(load)
	p.layer["snapshot.bytes"] = float64(fileSize(snapPath))

	// embed: reference only — no workload reaches the topk-approx plan.
	half, _, _ := halfChains(p.gn.path("APVPA"))
	k := newKernels(p.g)
	pm := k.transition(half[0]).Mul(k.transition(half[1]))
	var em *embed.Embedding
	build := p.timeMedian("d4 embed.Build", func() { em, err = embed.Build(ctx, pm, 8, 1, 0) })
	if err != nil {
		return err
	}
	p.layer["embed.build_ms"] = ms(build)
	var q []float64
	for i := 0; i < 50; i++ {
		row := pm.Row(p.gn.zipfs["author"].draw(p.gn.rng))
		t, _ := p.tr.timed("d4 embed.Query", -1, -1, func() {
			if v, e := em.Project(row); e == nil {
				em.Candidates(v, 40, nil)
			}
		})
		q = append(q, us(t))
	}
	p.layer["embed.query_us"] = median(q)
	return nil
}

// smallProbes covers metapath, datagen and the graph build.
func (p *prober) smallProbes() error {
	schema := p.g.Schema()
	var parse []float64
	for i := 0; i < 200; i++ {
		spec := warmPaths[i%len(warmPaths)]
		t, _ := p.tr.timed("d4 metapath.Parse", -1, -1, func() { metapath.MustParse(schema, spec) })
		parse = append(parse, us(t))
	}
	p.layer["metapath.parse_us"] = median(parse)
	p.layer["metapath.enumerate_us"] = us(p.timeMedian("d4 metapath.EnumerateWith", func() {
		metapath.EnumerateWith(schema, "author", "author", metapath.EnumerateOptions{MaxLen: 4, MaxPaths: relevancePaths, DedupReverse: true})
	}))

	p.layer["datagen.acm_s"] = p.timeMedian("d4 datagen.ACM", func() {
		datagen.ACM(acmConfig(p.r.cfg.short))
	}).Seconds()
	// hin.Builder over the generated edges: the graph-build share of datagen.
	var err error
	p.layer["hin.build_s"] = p.timeMedian("d4 hin.Builder.Build", func() {
		b := hin.NewBuilder(schema)
		for _, t := range schema.Types() {
			for _, id := range p.g.NodeIDs(t.Name) {
				b.AddNode(t.Name, id)
			}
		}
		for _, rel := range schema.Relations() {
			adj, _ := p.g.Adjacency(rel.Name)
			src, dst := p.g.NodeIDs(rel.Source), p.g.NodeIDs(rel.Target)
			for _, t := range adj.Triplets() {
				b.AddWeightedEdge(rel.Name, src[t.Row], dst[t.Col], t.Val)
			}
		}
		_, err = b.Build()
	}).Seconds()
	return err
}

// obsProbes compares a direct replica call with and without ?trace=1 and
// times a /metrics scrape.
func (p *prober) obsProbes() {
	f := p.r.f
	sn := p.r.sender(nil)
	sn.base = f.reps[0].ts.URL
	plain := make([]op, 100)
	for i := range plain {
		plain[i] = p.gn.pair("APA") // one cheap path any fleet answers the same way
	}
	traced := append([]op(nil), plain...)
	for i := range traced {
		traced[i].URI += "&trace=1"
	}
	var buf bytes.Buffer
	var a, b []float64
	start := time.Now()
	for i := range plain {
		a = append(a, us(sn.one(plain, i, start, -1, &buf).latency()))
		b = append(b, us(sn.one(traced, i, start, -1, &buf).latency()))
	}
	p.layer["obs.trace_overhead_pct"] = 100 * (median(b) - median(a)) / median(a)
	var scr []float64
	for i := 0; i < 5; i++ {
		if _, d, err := scrape(f.front.URL); err == nil {
			scr = append(scr, ms(d))
		}
	}
	p.layer["obs.scrape_ms"] = median(scr)
}

// peakRSSMB reads the process's high-water resident set from /proc; where
// that is missing it falls back to what the Go runtime obtained from the
// OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
