package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"
)

// layerMetrics are the per-layer metrics a traced run reports, with their
// units. BENCHMARK.json lists the same names; the tests hold the two
// together.
var layerMetrics = map[string]string{
	"router.relay_self_us": "us", "router.retries_per_kop": "1/kop", "router.hedges_per_kop": "1/kop", "router.breaker_opens": "count",
	"server.http_self_us": "us", "server.codec_self_us": "us", "server.resp_bytes_p50": "bytes",
	"server.shed_per_kop": "1/kop", "server.degraded_per_kop": "1/kop",
	"core.exec_us": "us", "core.topk_warm_us": "us", "core.pair_warm_us": "us", "core.topk_cold_ms": "ms", "core.pair_cold_ms": "ms",
	"core.cold_self_ms": "ms", "core.explain_us": "us", "core.cache_hit_ratio": "ratio", "core.cache_evictions_per_kop": "1/kop",
	"core.plan_share.all-pairs": "ratio", "core.plan_share.single-vs-matrix": "ratio", "core.plan_share.pair-vectors": "ratio",
	"core.plan_share.subset-chain": "ratio", "core.plan_share.monte-carlo": "ratio", "core.plan_share.topk-approx": "ratio",
	"core.batch_exec_ms": "ms", "core.batch_amortization": "ratio", "core.row_steps_ratio": "ratio",
	"core.rewarm_ms": "ms", "core.rewarm_rows_patched": "count", "core.precompute_s": "s",
	"sparse.mul_ms": "ms", "sparse.mul_gflops": "Gflop/s", "sparse.mulparallel_gflops": "Gflop/s", "sparse.bytes_per_flop": "B/flop",
	"sparse.transpose_ms": "ms", "sparse.rownormalize_ms": "ms", "sparse.vecmul_us": "us", "sparse.allocs_per_mul": "count",
	"sparse.mul_flops_per_kop": "flop/kop", "sparse.vecmul_flops_per_kop": "flop/kop", "sparse.membw_gbs": "GB/s",
	"metapath.parse_us": "us", "metapath.enumerate_us": "us",
	"relevance.pair_ms": "ms", "relevance.paths_per_query": "count", "relevance.prefix_resumes_per_query": "count",
	"hin.apply_ms": "ms", "hin.fingerprint_ms": "ms", "hin.build_s": "s",
	"wal.append_ms": "ms", "wal.bytes_per_op": "bytes", "wal.tail_read_ms": "ms",
	"snapshot.save_ms": "ms", "snapshot.load_ms": "ms", "snapshot.bytes": "bytes",
	"obs.trace_overhead_pct": "%", "obs.scrape_ms": "ms",
	"datagen.acm_s": "s", "embed.build_ms": "ms", "embed.query_us": "us",
	"proc.peak_rss_mb": "MB", "proc.alloc_mb_per_kop": "MB/kop", "proc.gc_pause_ms": "ms", "proc.goroutines_end": "count",
	"gen.sent": "count", "gen.ok": "count", "gen.failed": "count",
	"gen.replay_p50_us": "us", "gen.trace_overhead_pct": "%",
}

// planKinds are the physical plans whose share of selections is reported.
var planKinds = []string{"all-pairs", "single-vs-matrix", "pair-vectors", "subset-chain", "monte-carlo", "topk-approx"}

// replayed is what the depth replay hands to the report: durations per
// depth and op, the untraced pass, and the public counters and allocation
// totals read on either side of that pass.
type replayed struct {
	durs          [][]float64 // [depth][op], microseconds
	plain         []float64   // untraced pass, microseconds per op
	sizes         []float64   // response bytes of the untraced pass
	sent, failed  int
	before, after counters
	allocMB       float64
}

// untraced runs pass between two scrapes of /metrics and two readings of
// the allocator.
func (r *run) untraced(res *replayed, pass func()) error {
	var err error
	var m0, m1 runtime.MemStats
	if res.before, _, err = scrape(r.f.front.URL); err != nil {
		return err
	}
	runtime.ReadMemStats(&m0)
	pass()
	runtime.ReadMemStats(&m1)
	res.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	res.after, _, err = scrape(r.f.front.URL)
	return err
}

// replayReads is the depth replay of the three read workloads: a warm-up
// pass (which also learns each op's owner), depth 0 traced, the untraced
// pass, then the deeper depths.
func (r *run) replayReads(tr *tracer, ops []op) (*replayed, error) {
	rp := &replayer{r: r, tr: tr, paths: newPathCache(r.f.g), ops: ops, owner: make([]int, len(ops)), front: r.sender(nil)}
	for _, rep := range r.f.reps {
		m, err := newMirror(r.f.g, r.cfg.workload)
		if err != nil {
			return nil, err
		}
		rp.mirrors = append(rp.mirrors, m)
		rp.direct = append(rp.direct, &sender{hc: rp.front.hc, base: rep.ts.URL})
	}
	var buf bytes.Buffer
	for i := range ops {
		rp.call(0, i, &buf)
	}
	ids := make([]int, len(ops))
	for i := range ids {
		ids[i] = -1
	}
	res := &replayed{durs: make([][]float64, len(depthNames)), sent: (1 + len(depthNames)) * len(ops)}
	for d := range depthNames {
		var f int
		res.durs[d], f = rp.replayDepth(d, ids)
		res.failed += f
		if d > 0 {
			continue
		}
		err := r.untraced(res, func() {
			for _, s := range runOnce(r.sender(nil), ops, time.Now()) {
				if !s.OK {
					res.failed++
				}
				res.plain = append(res.plain, us(s.latency()))
				res.sizes = append(res.sizes, float64(s.Size))
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// replayWrites is write-mix's depth replay. It walks writes only: the
// workload's reads are warm-point's, replayed there.
func (r *run) replayWrites(tr *tracer, n int, dir string) (*replayed, error) {
	res := &replayed{sent: (1 + len(depthNames)) * n}
	hc := &http.Client{Transport: r.tr}
	err := r.untraced(res, func() {
		for _, o := range newWriteGen(r.f.g, r.cfg.seed, "plain", len(depthNames)).batches(n) {
			t := time.Now()
			_, size, ok := postWrite(hc, r.f.front.URL, &o)
			if !ok {
				res.failed++
			}
			res.plain = append(res.plain, us(time.Since(t)))
			res.sizes = append(res.sizes, float64(size))
		}
	})
	if err != nil {
		return nil, err
	}
	var f int
	res.durs, f, err = (&replayer{r: r, tr: tr}).writeReplay(n, dir)
	res.failed += f
	return res, err
}

// counterMetrics turns the counter deltas over the untraced pass into the
// per-thousand-ops and ratio metrics.
func counterMetrics(res *replayed, layer map[string]float64) {
	kops := float64(len(res.plain)) / 1000
	d := func(name string, labels ...string) float64 { return delta(res.before, res.after, name, labels...) }
	layer["server.resp_bytes_p50"] = median(res.sizes)
	layer["router.retries_per_kop"] = d("hetesim_router_retries_total") / kops
	layer["router.hedges_per_kop"] = d("hetesim_router_hedges_total") / kops
	layer["router.breaker_opens"] = res.after.sum("hetesim_router_breaker_transitions_total", `to="open"`)
	layer["server.shed_per_kop"] = d("hetesim_http_shed_total") / kops
	layer["server.degraded_per_kop"] = d("hetesim_http_degraded_total") / kops
	hits, misses := d("hetesim_engine_cache_hits_total"), d("hetesim_engine_cache_misses_total")
	if hits+misses > 0 {
		layer["core.cache_hit_ratio"] = hits / (hits + misses)
	}
	layer["core.cache_evictions_per_kop"] = d("hetesim_engine_cache_evictions_total") / kops
	plans := d("hetesim_engine_plan_selected_total")
	for _, kind := range planKinds {
		layer["core.plan_share."+kind] = 0
		if plans > 0 {
			layer["core.plan_share."+kind] = d("hetesim_engine_plan_selected_total", `kind="`+kind+`"`) / plans
		}
	}
	layer["sparse.mul_flops_per_kop"] = d("hetesim_sparse_mul_flops_total") / kops
	layer["sparse.vecmul_flops_per_kop"] = d("hetesim_sparse_vecmul_flops_total") / kops
	layer["proc.alloc_mb_per_kop"] = res.allocMB / kops
}

// runTraced is the traced run: one fleet, a depth replay of a seeded
// sample of the workload's ops, the public counters around an untraced
// pass of the same sample, and the layer probes. It reports the per-layer
// metrics and writes every span to <out>/trace-<workload>.json.
func runTraced(cfg config, w io.Writer) (report, error) {
	r := &run{cfg: cfg, w: w, tr: newTransport()}
	goroutines0 := runtime.NumGoroutine()
	root, err := os.MkdirTemp(".", ".bench-tmp-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(root)
	if r.f, err = bootFleet(cfg.workload, cfg.short, root); err != nil {
		return report{}, err
	}
	stopFleet := sync.OnceFunc(r.f.close)
	defer stopFleet()
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)

	tr := &tracer{t0: time.Now()}
	layer := map[string]float64{}
	n := cfg.workload.ReplayN
	if cfg.short {
		n /= 5
	}
	var res *replayed
	if cfg.workload.Sample != nil {
		res, err = r.replayReads(tr, cfg.workload.Sample(newGen(r.f.g, cfg.seed), n))
	} else {
		res, err = r.replayWrites(tr, n, root)
	}
	if err != nil {
		return report{}, err
	}
	r.printf("  depth replay of %d ops, %d spans so far", len(res.durs[0]), len(tr.spans))
	r.selfTimeReport(res.durs, res.plain, layer)
	counterMetrics(res, layer)

	p := &prober{r: r, tr: tr, g: r.f.g, gn: newGen(r.f.g, cfg.seed+1), dir: root, layer: layer}
	p.obsProbes()
	mulMS := p.sparseProbes(newKernels(r.f.g))
	if err := p.coreProbes(mulMS); err != nil {
		return report{}, err
	}
	if err := p.smallProbes(); err != nil {
		return report{}, err
	}

	// Follower, prober and listeners are down before goroutines are counted.
	stopFleet()
	r.tr.CloseIdleConnections()
	for i := 0; i < 100 && runtime.NumGoroutine() > goroutines0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	layer["proc.goroutines_end"] = float64(runtime.NumGoroutine())
	layer["proc.gc_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	layer["proc.peak_rss_mb"] = peakRSSMB()
	layer["gen.sent"], layer["gen.failed"], layer["gen.ok"] = float64(res.sent), float64(res.failed), float64(res.sent-res.failed)

	path, err := tr.write(cfg.out, cfg.workload.Name, cfg.seed)
	if err != nil {
		return report{}, err
	}
	r.printf("  %d spans written to %s", len(tr.spans), path)

	rep := report{Correct: res.failed == 0, Attempted: res.sent, Failed: res.failed, Metrics: map[string]metric{}}
	for _, name := range sortedKeys(layerMetrics) {
		rep.Metrics[name] = metric{layer[name], layerMetrics[name]}
		r.printf("  %-36s %14.6g %s", name, layer[name], layerMetrics[name])
	}
	return rep, nil
}
