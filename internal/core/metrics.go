package core

import "hetesim/internal/obs"

// Engine-level observability: query counts and latencies per query kind,
// materialized-path cache traffic, and plan and scan choices, all in the
// process-wide registry. Per-stage structure (which multiply, which
// dims, cache hit or miss) goes to the per-query tracer instead — the
// registry answers "how much", the trace answers "where did this one
// query go".
var (
	metQueries = obs.Default().CounterVec("hetesim_engine_queries_total",
		"HeteSim engine queries by kind.", "kind")
	metQueryDur = obs.Default().HistogramVec("hetesim_engine_query_duration_seconds",
		"HeteSim engine query latency by kind.", obs.DefSecondsBuckets(), "kind")
	metCacheHits = obs.Default().Counter("hetesim_engine_cache_hits_total",
		"Chain-matrix cache hits (a materialized reachable-probability matrix was reused).")
	metCacheMisses = obs.Default().Counter("hetesim_engine_cache_misses_total",
		"Chain-matrix cache misses (a chain had to be materialized).")
	metCacheEvictions = obs.Default().Counter("hetesim_engine_cache_evictions_total",
		"Chain matrices evicted by WithCacheLimit.")
	metPlanSelected = obs.Default().CounterVec("hetesim_engine_plan_selected_total",
		"Physical query plans chosen by the cost-based optimizer, by plan kind.", "kind")
	metTopKScan = obs.Default().CounterVec("hetesim_engine_topk_scan_total",
		"Top-k scans of the right half-chain by what they read: its cached transpose, a transpose built once, its materialized rows, or the rows of the reachable targets only.", "scan")

	// Batch scheduler: how many batches arrive, how big they are, how well
	// path grouping amortizes chain propagation across their queries.
	metBatches = obs.Default().Counter("hetesim_engine_batches_total",
		"Batches executed by the path-group scheduler.")
	metBatchQueries = obs.Default().Counter("hetesim_engine_batch_queries_total",
		"Queries submitted through batches.")
	metBatchShared = obs.Default().Counter("hetesim_engine_batch_shared_queries_total",
		"Batch queries answered from group-shared chain state.")
	metBatchChainBuilds = obs.Default().Counter("hetesim_engine_batch_chain_builds_total",
		"Chain propagations (full or subset) performed by batch group preparation.")
	metBatchSize = obs.Default().Histogram("hetesim_engine_batch_size",
		"Queries per batch.", obs.DefCountBuckets())
	metBatchGroups = obs.Default().Histogram("hetesim_engine_batch_groups",
		"Distinct canonical-path groups per batch.", obs.DefCountBuckets())
	metBatchAmortization = obs.Default().Histogram("hetesim_engine_batch_amortization_ratio",
		"Queries per path group in a batch: N queries sharing one chain materialization.", obs.DefCountBuckets())
	metBatchRowSteps = obs.Default().Counter("hetesim_engine_batch_row_steps_total",
		"Row-propagation units performed by batch group preparation.")
	metBatchNaiveRowSteps = obs.Default().Counter("hetesim_engine_batch_naive_row_steps_total",
		"Row-propagation units of the rows batch groups asked for.")
)

// scanKind names one of the four top-k scans opScanChain chooses between and
// holds its pre-resolved counter, so counting a scan is one atomic bump.
type scanKind struct {
	name  string
	count *obs.Counter
}

var (
	scanTransposed    = &scanKind{"transposed", metTopKScan.With("transposed")}
	scanTransposeOnce = &scanKind{"transpose-once", metTopKScan.With("transpose-once")}
	scanRows          = &scanKind{"rows", metTopKScan.With("rows")}
	scanReachable     = &scanKind{"reachable-rows", metTopKScan.With("reachable-rows")}
)

// queryInstr pairs the pre-resolved per-kind counter and histogram, so
// the per-query fast path is two atomic bumps with no label lookup.
type queryInstr struct {
	count *obs.Counter
	dur   *obs.Histogram
}

func newQueryInstr(kind string) queryInstr {
	return queryInstr{count: metQueries.With(kind), dur: metQueryDur.With(kind)}
}

var queryInstrs = map[string]queryInstr{
	"pair":          newQueryInstr("pair"),
	"single_source": newQueryInstr("single_source"),
	"all_pairs":     newQueryInstr("all_pairs"),
}

// observeQuery records one finished engine query of the given kind.
func observeQuery(kind string, seconds float64) {
	qi, ok := queryInstrs[kind]
	if !ok {
		qi = newQueryInstr(kind)
	}
	qi.count.Inc()
	qi.dur.Observe(seconds)
}
