package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/snapshot"
	"hetesim/internal/wal"
)

// Generation-state observability: snapshot lifecycle, WAL and mutation
// bookkeeping, all in the process-wide registry.
var (
	metSnapshotLoads = obs.Default().Counter("hetesim_snapshot_load_total",
		"Snapshots (a -snapshot-path file or a peer's state) admitted at boot.")
	metSnapshotSaves = obs.Default().Counter("hetesim_snapshot_save_total",
		"Snapshots written crash-safely to disk.")
	metSnapshotCorrupt = obs.Default().Counter("hetesim_snapshot_corrupt_total",
		"Snapshots rejected by checksum, version, or fingerprint validation.")
	metWarmStart = obs.Default().Gauge("hetesim_warm_start",
		"1 when the serving engine was warmed at boot by the paths a snapshot lists, else 0.")
	metMutationDuplicates = obs.Default().Counter("hetesim_mutation_duplicates_total",
		"Mutation batches answered from the idempotency table without re-applying.")
	metWALBytes = obs.Default().Gauge("hetesim_wal_bytes",
		"Current size of the edge-delta write-ahead log.")
	metWALCompactions = obs.Default().Counter("hetesim_wal_compactions_total",
		"Write-ahead log compactions (log folded into a new base graph).")
	metWritePhase = obs.Default().HistogramVec("hetesim_write_phase_seconds",
		"Time an applied delta batch spent per write-path phase, on primary and follower alike: apply (the next graph), log (WAL append and fsync), engine (the next generation's engines and fingerprint), rewarm (its chain cache, carried from the serving one). log runs beside engine + rewarm, so the phases do not sum to the ack.",
		obs.DefSecondsBuckets(), "phase")
	metPhaseApply  = metWritePhase.With("apply")
	metPhaseLog    = metWritePhase.With("log")
	metPhaseEngine = metWritePhase.With("engine")
	metPhaseRewarm = metWritePhase.With("rewarm")
)

// since observes the seconds elapsed from t in h.
func since(h *obs.Histogram, t time.Time) { h.Observe(time.Since(t).Seconds()) }

// engineSet is one serving generation: a graph, its fingerprint, its one
// query engine, and the WAL sequence the graph embodies. It is immutable
// once published; a request resolves the current set once and uses it
// throughout, so publishing the next set swaps graph and sequence together
// while in-flight queries drain against the set they started with. The
// baselines keep no state of their own: a query builds its measure over g
// or engine at use.
type engineSet struct {
	g           *hin.Graph
	fingerprint uint64
	seq         uint64       // last WAL sequence folded into g
	engine      *core.Engine // HeteSim: Definition 10, or Definition 3 for a ?raw=1 query
}

// maxAppliedKeys bounds the idempotency table: beyond it the oldest acked
// keys are evicted FIFO, so neither the in-memory table nor the checkpoint
// written at compaction can grow without bound. Retrying a batch acked
// more than 64Ki keyed batches ago re-applies it — idempotency is a
// crash-retry window, not an unbounded ledger.
const maxAppliedKeys = 1 << 16

var (
	errWALNotOpen = errors.New("server: write-ahead log is not open")
	errWALAppend  = errors.New("server: logging mutation batch")
)

// store owns everything that changes together when the served graph moves:
// the serving generation, the WAL handle, the idempotency table, compaction
// bookkeeping, the precompute spec list and its snapshot, and every
// goroutine the server itself starts — the warm-ups included, so Close
// stops and waits for a rebuild a reload or a resync started. New
// generations are produced only by apply (one delta batch) and adopt (a
// whole graph); see DESIGN §9.
type store struct {
	// Configuration, fixed once New returns.
	engineOpts      []core.Option
	snapshotPath    string      // spec-list snapshot location; "" disables
	graphPath       string      // base graph file (reload source, compaction target); "" disables
	walPath         string      // edge-delta write-ahead log; "" disables mutations
	walCompactBytes int64       // log size that triggers compaction; 0 = never
	fsys            snapshot.FS // injectable for fault-injection tests
	logf            func(string, ...any)

	cur atomic.Pointer[engineSet]

	// admit is the writers-only admission lock: whoever is about to produce
	// a generation holds it for its whole read-build-publish window, so a
	// reload can never clobber a concurrently acked batch. Client writes
	// TryLock and shed with 503; reloads, boot replay and the follower wait.
	// Readers (tail reads, state fetches, snapshot saves) never touch it.
	// Lock order: admit before mu.
	admit     sync.Mutex
	reloading atomic.Bool // a Reload is in flight; the loser answers 409

	// mu guards the fields below and every publish, so under it cur.seq is
	// the log's last sequence and cur.g the graph all logged batches yield.
	mu           sync.Mutex
	wal          *wal.Log
	applied      map[string]uint64  // idempotency key -> acked sequence number
	appliedOrder []string           // applied keys, oldest ack first (FIFO eviction)
	walBatches   int                // batches in the log since its base graph
	lastSavedFP  uint64             // fingerprint of the graph this process last wrote to graphPath
	specs        []string           // materialization paths: every warm-up rebuilds them
	deferredWarm *snapshot.Snapshot // a boot snapshot of another fingerprint, kept for after replay
	closed       bool

	ctx    context.Context // canceled by close; parents all background work
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// start finishes construction once the options have run.
func (st *store) start(g *hin.Graph) {
	st.ctx, st.cancel = context.WithCancel(context.Background())
	st.publish(st.newEngineSet(g), 0)
}

func (st *store) newEngineSet(g *hin.Graph) *engineSet {
	return &engineSet{g: g, fingerprint: g.Fingerprint(), engine: core.NewEngine(g, st.engineOpts...)}
}

// publish makes (es, seq) the serving generation. Callers hold mu (or are
// the constructor).
func (st *store) publish(es *engineSet, seq uint64) *engineSet {
	next := *es
	next.seq = seq
	st.cur.Store(&next)
	return &next
}

// spawn runs f on a tracked goroutine under the store's context; close
// waits for it. Once the store closed it runs nothing.
func (st *store) spawn(f func(ctx context.Context)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		f(st.ctx)
	}()
}

// close stops and waits for all tracked work — a warm-up in flight stops at
// its next step — saves the spec list when a snapshot path is configured,
// and closes the log. Idempotent.
func (st *store) close() {
	st.mu.Lock()
	already := st.closed
	st.closed = true
	st.mu.Unlock()
	if already {
		return
	}
	st.cancel()
	st.wg.Wait()
	if st.snapshotPath != "" {
		if err := st.saveSnapshot(); err != nil {
			st.logf("server: final snapshot save: %v", err)
		}
	}
	if err := st.closeWAL(); err != nil {
		st.logf("server: closing wal: %v", err)
	}
}

func (st *store) closeWAL() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.wal == nil {
		return nil
	}
	err := st.wal.Close()
	st.wal = nil
	return err
}

// openWAL binds the log at walPath to the serving graph, seeds the
// idempotency table from its checkpoints, and positions the generation just
// below the first batch the caller must replay through apply.
func (st *store) openWAL() (*wal.Replay, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.cur.Load()
	l, rep, err := wal.Open(st.fsys, st.walPath, cur.fingerprint)
	if err != nil {
		return nil, err
	}
	st.wal = l
	metWALBytes.Set(float64(l.Size()))
	for _, e := range rep.Checkpoint {
		st.rememberKeyLocked(e.Key, e.Seq)
	}
	seq := l.LastSeq()
	if len(rep.Batches) > 0 {
		seq = rep.Batches[0].Seq - 1
	}
	st.publish(cur, seq)
	return rep, nil
}

// tail reads up to maxBatches logged batches from sequence from, stamped
// with the serving generation. Batches, head and fingerprint are captured
// under the state lock, so the triple is consistent: applying every logged
// batch through head onto the log's base yields exactly the graph the
// fingerprint names. On wal.ErrCompacted it also reports the retained floor.
func (st *store) tail(from uint64, maxBatches int) (wal.Stream, uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.wal == nil {
		return wal.Stream{}, 0, errWALNotOpen
	}
	batches, err := st.wal.TailSince(from, maxBatches)
	es := st.cur.Load()
	return wal.Stream{Fingerprint: es.fingerprint, Head: es.seq, Batches: batches}, st.wal.MinRetained(), err
}

// rememberKeyLocked records an acked idempotency key and its sequence,
// evicting the oldest keys beyond maxAppliedKeys.
func (st *store) rememberKeyLocked(key string, seq uint64) {
	if key == "" {
		return
	}
	if _, ok := st.applied[key]; !ok {
		st.appliedOrder = append(st.appliedOrder, key)
	}
	st.applied[key] = seq
	for len(st.appliedOrder) > maxAppliedKeys {
		delete(st.applied, st.appliedOrder[0])
		st.appliedOrder = st.appliedOrder[1:]
	}
}

// checkpointEntriesLocked snapshots the idempotency table for a WAL reset,
// oldest ack first (insertion order is ack order — sequences are monotonic
// across compactions).
func (st *store) checkpointEntriesLocked() []wal.CheckpointEntry {
	entries := make([]wal.CheckpointEntry, 0, len(st.appliedOrder))
	for _, k := range st.appliedOrder {
		entries = append(entries, wal.CheckpointEntry{Key: k, Seq: st.applied[k]})
	}
	return entries
}

// applyResult is what one batch did.
type applyResult struct {
	es        *engineSet // the generation serving after the call
	seq       uint64     // the batch's ack sequence; a duplicate's original one
	duplicate bool       // the key was already acked: logged if sequenced, never re-applied
	rewarm    core.RewarmStats
	walBytes  int64
}

// apply is the one way a delta batch becomes the next generation — a client
// write (b.Seq == 0: the log assigns the sequence), a follower's replicated
// batch (sequenced by the primary, logged verbatim) or a boot replay
// (durable: already in the log). Order: dedupe by key, validate by computing
// the copy-on-write graph once, make the batch durable while the next
// generation is built beside it (logBeside: engines, fingerprint, rewarm
// from the serving set — Property 2 locality), publish, compact on size.
// Only a logged batch is published, so an ack still implies durability. A
// batch the graph rejects leaves no trace in the log, or replay would fail
// on it forever; a duplicate client retry leaves none either, while a
// sequenced duplicate (a retry that raced a crash reached the log twice)
// still advances the position. Rewarm failure is not batch failure —
// durability was decided at the append; the next set just starts colder.
// Callers hold admit.
func (st *store) apply(ctx context.Context, b wal.Batch, durable bool) (applyResult, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.cur.Load()
	if st.wal == nil {
		return applyResult{}, errWALNotOpen
	}
	ackSeq, dup := st.applied[b.Key] // "" is never recorded
	if dup {
		metMutationDuplicates.Inc()
		if b.Seq == 0 {
			return applyResult{es: cur, seq: ackSeq, duplicate: true, walBytes: st.wal.Size()}, nil
		}
	}
	next, res := cur, applyResult{duplicate: dup}
	if dup {
		if !durable {
			if err := st.log(&b); err != nil {
				return applyResult{}, err
			}
		}
	} else {
		// Validate before logging by computing the next graph — once; the
		// result is what gets published after the append.
		t := time.Now()
		ng, dirty, err := cur.g.Apply(b.Ops)
		if err != nil {
			return applyResult{}, err
		}
		since(metPhaseApply, t)
		if next, res.rewarm, err = st.logBeside(ctx, &b, durable, cur, ng, dirty); err != nil {
			return applyResult{}, err
		}
		st.rememberKeyLocked(b.Key, b.Seq)
	}
	st.walBatches++
	res.es, res.seq = st.publish(next, b.Seq), b.Seq
	// Never mid-replay: compaction resets the log, and the batches still
	// to be replayed exist nowhere else.
	if !durable && st.walCompactBytes > 0 && st.wal.Size() > st.walCompactBytes {
		if err := st.compactLocked(); err != nil {
			// Not batch failure: the log still holds everything; retry at
			// the next threshold crossing.
			st.logf("server: wal compaction: %v", err)
		}
	}
	res.walBytes = st.wal.Size()
	return res, nil
}

// logBeside makes b durable on this goroutine, unless it already is, while
// another goroutine builds the generation over ng beside it, and returns
// that generation once both are done — an error, and nothing to publish,
// if the append failed. The build is joined on every path, a panicking
// append included. A build that panicked after the batch became durable
// is replaced by a cold generation built here: the batch is in the log,
// so the serving graph must have it too. Callers hold mu.
func (st *store) logBeside(ctx context.Context, b *wal.Batch, durable bool, cur *engineSet, ng *hin.Graph, dirty *hin.Dirty) (*engineSet, core.RewarmStats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next *engineSet
	var stats core.RewarmStats
	built := make(chan any, 1) // the build's panic, or nil
	go func() {
		defer func() { built <- recover() }()
		next, stats = st.build(ctx, cur, ng, dirty)
	}()
	joined := false
	defer func() {
		if !joined {
			<-built
		}
	}()
	var err error
	if !durable {
		// Yield once, so the build takes this P at once and the append
		// resumes on the first P to free up: an fsync keeps its P while it
		// waits, so without the yield the build would wait in this P's
		// queue for the fsync to return, and the two would run one after
		// the other.
		runtime.Gosched()
		if err = st.log(b); err != nil {
			cancel() // what the build makes is discarded
		}
	}
	joined = true
	switch p := <-built; {
	case err != nil:
		return nil, stats, err
	case p != nil:
		st.logf("server: building generation %d panicked, serving it cold: %v", b.Seq, p)
		return st.newEngineSet(ng), core.RewarmStats{}, nil
	}
	return next, stats, nil
}

// log appends b to the WAL and fsyncs it, assigning b.Seq to a client
// write. Callers hold mu.
func (st *store) log(b *wal.Batch) error {
	t := time.Now()
	var err error
	if b.Seq == 0 {
		b.Seq, err = st.wal.Append(b.Key, b.Ops)
	} else {
		err = st.wal.AppendBatch(*b)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", errWALAppend, err)
	}
	since(metPhaseLog, t)
	metWALBytes.Set(float64(st.wal.Size()))
	return nil
}

// rewarmFrom is core's RewarmFrom, a variable so tests can make the build
// fail.
var rewarmFrom = (*core.Engine).RewarmFrom

// build returns the generation over ng, cur's graph with delta dirty
// applied: its engines and fingerprint, and its chain cache rewarmed from
// cur's. It reads only cur and ng, both immutable, so it runs beside the
// log write. A rewarm error is logged: the set then serves colder.
func (st *store) build(ctx context.Context, cur *engineSet, ng *hin.Graph, dirty *hin.Dirty) (*engineSet, core.RewarmStats) {
	t := time.Now()
	next := st.newEngineSet(ng)
	since(metPhaseEngine, t)
	t = time.Now()
	stats, err := rewarmFrom(next.engine, ctx, cur.engine, dirty)
	if err != nil {
		st.logf("server: incremental rewarm: %v", err)
	}
	since(metPhaseRewarm, t)
	return next, stats
}

// adopt is the one way a whole graph becomes the next generation — a
// reload's re-read base file (state == nil), or a resyncing follower's
// transfer of the primary's generation (the state container g and seq were
// decoded from). Order: a transferred graph is written as the durable base
// first, then the log is rebound when the fingerprint changed or seq is
// ahead of the log (a follower adopting the primary's graph: its next ack
// must continue above seq, not above its own stale position), then the set
// serves — the order compaction uses, so a crash at any point leaves a
// coherent (base, log) pair, and any failure leaves the old generation
// serving. The rebind matters: a log still naming the old base would be set
// aside — its acked batches never replayed — at the next boot. The
// idempotency table rides along as checkpoint records. The new generation
// serves cold: the paths the store remembers, and those a transferred state
// lists, are rebuilt in the background (warm), and the spec list is saved.
// Callers hold admit.
func (st *store) adopt(g *hin.Graph, seq uint64, state *snapshot.Snapshot) (*engineSet, error) {
	next := st.newEngineSet(g)
	st.mu.Lock()
	if state != nil && st.graphPath != "" {
		if err := st.saveGraph(g); err != nil {
			st.mu.Unlock()
			return nil, fmt.Errorf("writing adopted base graph: %w", err)
		}
		st.lastSavedFP = next.fingerprint
	}
	if st.wal != nil && (next.fingerprint != st.wal.Fingerprint() || seq > st.wal.LastSeq()) {
		if err := st.wal.Reset(next.fingerprint, st.checkpointEntriesLocked(), seq); err != nil {
			st.mu.Unlock()
			return nil, fmt.Errorf("rebinding wal to adopted graph: %w", err)
		}
		st.walBatches = 0
		metWALBytes.Set(float64(st.wal.Size()))
	}
	if state != nil {
		st.recordSpecsLocked(snapshot.DecodeSpecs(state))
	}
	metWarmStart.Set(0)
	next = st.publish(next, seq)
	specs := slices.Clone(st.specs)
	st.mu.Unlock()

	st.warm(next, specs, func() {})
	return next, nil
}

// warm rebuilds specs in es on a tracked goroutine, calls ready, then saves
// the spec list under es's fingerprint so the next boot rebuilds the same
// paths. Close cancels it between steps and waits for it.
func (st *store) warm(es *engineSet, specs []string, ready func()) {
	st.spawn(func(ctx context.Context) {
		st.rebuild(ctx, es, specs)
		ready()
		if st.snapshotPath != "" && ctx.Err() == nil {
			if err := st.saveSnapshot(); err != nil {
				st.logf("server: snapshot save after warming %016x: %v", es.fingerprint, err)
			}
		}
	})
}

// rebuild materializes specs in es (instant for a path already warm) and
// returns how many it built. A path that fails to materialize is logged and
// skipped: its queries still answer from cold caches. Once ctx is done it
// builds and logs nothing more.
func (st *store) rebuild(ctx context.Context, es *engineSet, specs []string) int {
	n := 0
	for _, spec := range specs {
		if err := precompute(ctx, es, spec); err != nil {
			if ctx.Err() == nil {
				st.logf("server: precomputing %s: %v", spec, err)
			}
			continue
		}
		st.logf("server: materialized %s", spec)
		n++
	}
	return n
}

// precompute materializes one relevance path spec in es's HeteSim engine.
func precompute(ctx context.Context, es *engineSet, spec string) error {
	p, err := metapath.Parse(es.g.Schema(), spec)
	if err != nil {
		return err
	}
	return es.engine.Precompute(ctx, p)
}

// recordSpecs remembers materialization paths, so every later warm-up —
// a reload's, a resync's, the next boot's through the saved snapshot —
// rebuilds the same working set.
func (st *store) recordSpecs(specs ...string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.recordSpecsLocked(specs)
}

func (st *store) recordSpecsLocked(specs []string) {
	for _, spec := range specs {
		if !slices.Contains(st.specs, spec) {
			st.specs = append(st.specs, spec)
		}
	}
}

// specList is the remembered paths, in the order they were first recorded.
func (st *store) specList() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return slices.Clone(st.specs)
}

// compact is compactLocked for callers outside apply.
func (st *store) compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.compactLocked()
}

// compactLocked folds the write-ahead log into its base: the serving
// (post-mutation) graph is written crash-safely to the configured graph
// path, then the log is reset against the new base fingerprint with the
// idempotency table carried as checkpoint records. Crash-safe in both
// orders: before the graph rename the old base + old log still replay to
// the same graph; between rename and reset the log names the old
// fingerprint and is set aside at boot — its batches are already folded
// into the base. A graph file this process did not write — an operator
// dropping in a replacement generation — is never overwritten: compaction
// refuses with an error naming both fingerprints instead of silently
// destroying the replacement.
func (st *store) compactLocked() error {
	if st.wal == nil || st.walBatches == 0 {
		return nil
	}
	if st.graphPath == "" {
		return errors.New("server: wal compaction needs a base graph path (WithReloadFrom)")
	}
	es := st.cur.Load()
	// The file is ours to overwrite only if it holds the log's base, the
	// graph we are about to write anyway, or the half of a previous
	// compaction that crashed between its graph write and log reset. An
	// unreadable or corrupt file lets compaction proceed: overwriting a
	// broken base with a coherent one is a repair, not a loss.
	if g, err := st.readGraph(); err == nil {
		if fp := g.Fingerprint(); fp != st.wal.Fingerprint() && fp != es.fingerprint && fp != st.lastSavedFP {
			return fmt.Errorf("server: refusing to compact over a replaced graph file: %s holds fingerprint %016x, the log's base is %016x — restart (the log is set aside at boot) or remove the replacement before mutating further",
				st.graphPath, fp, st.wal.Fingerprint())
		}
	}
	if err := st.saveGraph(es.g); err != nil {
		return fmt.Errorf("server: writing compacted base graph: %w", err)
	}
	st.lastSavedFP = es.fingerprint
	if err := st.wal.Reset(es.fingerprint, st.checkpointEntriesLocked(), es.seq); err != nil {
		return fmt.Errorf("server: resetting wal: %w", err)
	}
	st.walBatches = 0
	metWALCompactions.Inc()
	metWALBytes.Set(float64(st.wal.Size()))
	return nil
}

// readGraph reads the graph file at graphPath.
func (st *store) readGraph() (*hin.Graph, error) {
	f, err := os.Open(st.graphPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hin.Read(f)
}

// saveGraph writes g to the configured graph path with the snapshot
// writer's temp + fsync + rename + dir-sync protocol, so a crash mid-write
// never costs the previous base graph.
func (st *store) saveGraph(g *hin.Graph) error {
	return snapshot.WriteAtomic(st.fsys, st.graphPath, func(w io.Writer) error { return hin.Write(w, g) })
}

// warmStart checks that snap — a -snapshot-path file or a peer's state —
// belongs to es's graph, then rebuilds, synchronously, the paths it lists
// and remembers them; it returns how many it built. A snapshot of another
// graph is rejected whole and counted in hetesim_snapshot_corrupt_total.
// Sections other than the specs (a state's "graph" and "seq"; the "chain:",
// "embed:" and odd-path "SE(…)"/"TE(…)" chain sections older builds wrote)
// are skipped: chains are rebuilt, not read.
func (st *store) warmStart(ctx context.Context, es *engineSet, snap *snapshot.Snapshot) (int, error) {
	if err := snap.CheckCompat(es.fingerprint); err != nil {
		metSnapshotCorrupt.Inc()
		return 0, err
	}
	metSnapshotLoads.Inc()
	specs := snapshot.DecodeSpecs(snap)
	st.recordSpecs(specs...)
	n := st.rebuild(ctx, es, specs)
	if n > 0 {
		metWarmStart.Set(1)
	}
	return n, nil
}

// deferWarmStart keeps snap for takeDeferredWarmStart and reports true
// when it names another graph than the serving one while a log is
// configured but not open: the graph replay will reach, not a bad file.
func (st *store) deferWarmStart(snap *snapshot.Snapshot) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.walPath == "" || st.wal != nil || snap.Fingerprint == st.cur.Load().fingerprint {
		return false
	}
	st.deferredWarm = snap
	return true
}

// takeDeferredWarmStart returns and forgets the snapshot deferWarmStart
// kept, if any.
func (st *store) takeDeferredWarmStart() *snapshot.Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	snap := st.deferredWarm
	st.deferredWarm = nil
	return snap
}

// loadSnapshot reads the on-disk snapshot. A missing file (or no configured
// path) is a normal cold start: nil, nil.
func (st *store) loadSnapshot() (*snapshot.Snapshot, error) {
	if st.snapshotPath == "" {
		return nil, nil
	}
	snap, err := snapshot.Load(st.fsys, st.snapshotPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		metSnapshotCorrupt.Inc()
		return nil, err
	}
	return snap, nil
}

// saveSnapshot writes the spec list crash-safely to the snapshot path, under
// the serving generation's fingerprint. Saves serialize on mu (so the file
// always holds the most recent save's state); the previous snapshot survives
// any failure.
func (st *store) saveSnapshot() error {
	if st.snapshotPath == "" {
		return errors.New("server: no snapshot path configured")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	snap := &snapshot.Snapshot{Fingerprint: st.cur.Load().fingerprint}
	snapshot.EncodeSpecs(snap, st.specs)
	if err := snapshot.Save(st.fsys, st.snapshotPath, snap); err != nil {
		return err
	}
	metSnapshotSaves.Inc()
	return nil
}
