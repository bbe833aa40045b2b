package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hetesim/internal/baseline"
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
		"Snapshots loaded and admitted at boot or reload.")
	metSnapshotSaves = obs.Default().Counter("hetesim_snapshot_save_total",
		"Snapshots written crash-safely to disk.")
	metSnapshotCorrupt = obs.Default().Counter("hetesim_snapshot_corrupt_total",
		"Snapshots rejected by checksum, version, or fingerprint validation.")
	metSnapshotSaveRetries = obs.Default().Counter("hetesim_snapshot_save_retries_total",
		"Snapshot save attempts retried after a failure.")
	metWarmStart = obs.Default().Gauge("hetesim_warm_start",
		"1 when the serving engine was warm-started from a snapshot, else 0.")
	metMutationDuplicates = obs.Default().Counter("hetesim_mutation_duplicates_total",
		"Mutation batches answered from the idempotency table without re-applying.")
	metWALBytes = obs.Default().Gauge("hetesim_wal_bytes",
		"Current size of the edge-delta write-ahead log.")
	metWALCompactions = obs.Default().Counter("hetesim_wal_compactions_total",
		"Write-ahead log compactions (log folded into a new base graph).")
)

// engineSet is one serving generation: a graph, its fingerprint, every
// query engine over it, and the WAL sequence the graph embodies. It is
// immutable once published; a request resolves the current set once and
// uses it throughout, so publishing the next set swaps graph and sequence
// together while in-flight queries drain against the set they started with.
type engineSet struct {
	g           *hin.Graph
	fingerprint uint64
	seq         uint64       // last WAL sequence folded into g
	engine      *core.Engine // HeteSim: Definition 10, or Definition 3 for a ?raw=1 query
	pcrw        *baseline.PCRW
	pathsim     *baseline.PathSim
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
// bookkeeping, the precompute spec list, snapshot save/import, and every
// goroutine the server itself starts. New generations are produced only by
// apply (one delta batch) and adopt (a whole graph); see DESIGN §9.
type store struct {
	// Configuration, fixed once New returns.
	engineOpts      []core.Option
	snapshotPath    string      // chain-cache snapshot location; "" disables
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
	applied      map[string]uint64 // idempotency key -> acked sequence number
	appliedOrder []string          // applied keys, oldest ack first (FIFO eviction)
	walBatches   int               // batches in the log since its base graph
	lastSavedFP  uint64            // fingerprint of the graph this process last wrote to graphPath
	specs        []string          // boot-time materialization paths, re-warmed on adopt
	closed       bool

	snapSavedAt atomic.Int64 // unix nanos of the last snapshot save or import; 0 = never

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
	e := core.NewEngine(g, st.engineOpts...)
	return &engineSet{
		g:           g,
		fingerprint: g.Fingerprint(),
		engine:      e,
		pcrw:        baseline.NewPCRWFromEngine(e),
		pathsim:     baseline.NewPathSim(g),
	}
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

// close stops and waits for all tracked work, takes a final snapshot when
// one is configured, and closes the log. Idempotent.
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
// the copy-on-write graph once, make the batch durable, rewarm the engine
// from the serving set's (Property 2 locality), publish, compact on size. A
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
	// Validate before logging by computing the next graph — once; the
	// result is what gets published after the append.
	var ng *hin.Graph
	var dirty *hin.Dirty
	if !dup {
		var err error
		if ng, dirty, err = cur.g.Apply(b.Ops); err != nil {
			return applyResult{}, err
		}
	}
	if !durable {
		var err error
		if b.Seq == 0 {
			b.Seq, err = st.wal.Append(b.Key, b.Ops)
		} else {
			err = st.wal.AppendBatch(b)
		}
		if err != nil {
			return applyResult{}, fmt.Errorf("%w: %v", errWALAppend, err)
		}
		metWALBytes.Set(float64(st.wal.Size()))
	}
	// Durable from here: even if this process dies mid-rewarm, boot replays
	// the batch.
	next, res := cur, applyResult{duplicate: dup}
	if !dup {
		next = st.newEngineSet(ng)
		var err error
		if res.rewarm, err = next.engine.RewarmFrom(ctx, cur.engine, dirty); err != nil {
			st.logf("server: incremental rewarm: %v", err)
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

// adopt is the one way a whole graph becomes the next generation — a
// reload's re-read base file (state == nil), or a resyncing follower's
// transfer of the primary's generation (the state container g and seq were
// decoded from). Order: a transferred graph is written as the durable base
// first, then the log is rebound when the fingerprint changed or seq is
// ahead of the log (a follower adopting the primary's graph: its next ack
// must continue above seq, not above its own stale position), then the
// chains are imported, then the set serves — the order compaction uses, so
// a crash at any point leaves a coherent (base, log) pair, and any failure
// leaves the old generation serving. The rebind matters: a log still naming
// the old base would be set aside — its acked batches never replayed — at
// the next boot. The idempotency table rides along as checkpoint records.
// A reload warms from the on-disk snapshot when that matches (a snapshot of
// another generation just fails the fingerprint check: cold, not an error);
// a transfer warms from its own chain sections, which belong to g by
// construction. Afterwards the boot-time paths re-materialize and the
// snapshot is saved in the background. Returns the published set and how
// many chains warmed it. Callers hold admit.
func (st *store) adopt(g *hin.Graph, seq uint64, state *snapshot.Snapshot) (*engineSet, int, error) {
	next := st.newEngineSet(g)
	st.mu.Lock()
	if state != nil && st.graphPath != "" {
		if err := st.saveGraph(g); err != nil {
			st.mu.Unlock()
			return nil, 0, fmt.Errorf("writing adopted base graph: %w", err)
		}
		st.lastSavedFP = next.fingerprint
	}
	if st.wal != nil && (next.fingerprint != st.wal.Fingerprint() || seq > st.wal.LastSeq()) {
		if err := st.wal.Reset(next.fingerprint, st.checkpointEntriesLocked(), seq); err != nil {
			st.mu.Unlock()
			return nil, 0, fmt.Errorf("rebinding wal to adopted graph: %w", err)
		}
		st.walBatches = 0
		metWALBytes.Set(float64(st.wal.Size()))
	}
	var warm int
	if state != nil {
		var err error
		if warm, err = st.importSnapshot(next, state); err != nil {
			st.logf("server: transferred chains rejected, adopting cold: %v", err)
		}
	} else {
		warm, _ = st.loadSnapshot(next) // another generation's snapshot fails the fingerprint check: cold
	}
	if warm == 0 {
		metWarmStart.Set(0)
	}
	next = st.publish(next, seq)
	specs := append([]string(nil), st.specs...)
	st.mu.Unlock()

	st.warm(next, specs, func() {})
	return next, warm, nil
}

// warm materializes specs in es on a tracked goroutine (instant for paths a
// snapshot already warmed), calls ready, then persists the chain cache so
// the next boot warm-starts from this generation. A path that fails to
// materialize is logged and skipped: its queries still answer from cold
// caches.
func (st *store) warm(es *engineSet, specs []string, ready func()) {
	st.spawn(func(ctx context.Context) {
		for _, spec := range specs {
			if err := precompute(ctx, es, spec); err != nil {
				if ctx.Err() == nil {
					st.logf("server: precomputing %s: %v", spec, err)
				}
				continue
			}
			st.logf("server: materialized %s", spec)
		}
		ready()
		if st.snapshotPath != "" && ctx.Err() == nil {
			if err := st.saveSnapshotRetry(ctx, 3, 100*time.Millisecond); err != nil {
				st.logf("server: snapshot save after warming %016x: %v", es.fingerprint, err)
			}
		}
	})
}

// precompute materializes one relevance path spec in es's HeteSim engine.
func precompute(ctx context.Context, es *engineSet, spec string) error {
	p, err := metapath.Parse(es.g.Schema(), spec)
	if err != nil {
		return err
	}
	return es.engine.Precompute(ctx, p)
}

// recordSpec remembers a boot-time materialization path so adopt can
// re-warm a replacement graph with the same working set.
func (st *store) recordSpec(spec string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, have := range st.specs {
		if have == spec {
			return
		}
	}
	st.specs = append(st.specs, spec)
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

// exportSnapshot captures es's materialized chain matrices in the snapshot
// format — the one encoder behind the on-disk snapshot and the chain
// sections of GET /v1/admin/state. The codec sorts its sections, so the same
// cache state always encodes to the same bytes.
func exportSnapshot(es *engineSet) (*snapshot.Snapshot, error) {
	snap := &snapshot.Snapshot{Fingerprint: es.fingerprint}
	if err := snapshot.EncodeChains(snap, es.engine.ExportChains()); err != nil {
		return nil, err
	}
	return snap, nil
}

// importSnapshot validates snap against es's graph and admits its chains
// into the engine, returning how many were admitted — the one decoder
// behind warm starts from disk and states transferred from a peer. A
// snapshot that fails any check is rejected whole and counted in
// hetesim_snapshot_corrupt_total; sections other than chains (a state's
// "graph" and "seq", the "embed:" sections older builds wrote) are skipped,
// and so are the odd-path "SE(…)"/"TE(…)" chains older builds wrote, with a
// log line.
func (st *store) importSnapshot(es *engineSet, snap *snapshot.Snapshot) (int, error) {
	err := snap.CheckCompat(es.fingerprint)
	if err != nil {
		metSnapshotCorrupt.Inc()
		return 0, err
	}
	chains, err := snapshot.DecodeChains(snap)
	if err != nil {
		metSnapshotCorrupt.Inc()
		return 0, err
	}
	n, stale := es.engine.ImportChains(chains)
	if stale > 0 {
		st.logf("server: snapshot: skipped %d odd-path chains over the edge-object type older builds wrote", stale)
	}
	metSnapshotLoads.Inc()
	if n > 0 {
		metWarmStart.Set(1)
		st.snapSavedAt.Store(time.Now().UnixNano())
	}
	return n, nil
}

// loadSnapshot warms es from the on-disk snapshot. A missing file (or no
// configured path) is a normal cold start: 0, nil.
func (st *store) loadSnapshot(es *engineSet) (int, error) {
	if st.snapshotPath == "" {
		return 0, nil
	}
	snap, err := snapshot.Load(st.fsys, st.snapshotPath)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		metSnapshotCorrupt.Inc()
		return 0, err
	}
	return st.importSnapshot(es, snap)
}

// saveSnapshot writes the serving generation's caches crash-safely to the
// snapshot path. Saves serialize on mu (so the file always holds the most
// recent save's state); the previous snapshot survives any failure.
func (st *store) saveSnapshot() error {
	if st.snapshotPath == "" {
		return errors.New("server: no snapshot path configured")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	snap, err := exportSnapshot(st.cur.Load())
	if err != nil {
		return err
	}
	if err := snapshot.Save(st.fsys, st.snapshotPath, snap); err != nil {
		return err
	}
	metSnapshotSaves.Inc()
	st.snapSavedAt.Store(time.Now().UnixNano())
	return nil
}

// saveSnapshotRetry is saveSnapshot with bounded retries and jittered
// exponential backoff — transient filesystem failures (the disk filling
// briefly, a slow NFS rename) should not cost a whole snapshot interval of
// warmth. Each retry is counted in hetesim_snapshot_save_retries_total.
func (st *store) saveSnapshotRetry(ctx context.Context, attempts int, backoff time.Duration) error {
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			metSnapshotSaveRetries.Inc()
			d := backoff << uint(i-1)
			d += rand.N(d) // jitter in [d, 2d)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
		}
		if err = st.saveSnapshot(); err == nil {
			return nil
		}
		st.logf("server: snapshot save attempt %d/%d: %v", i+1, attempts, err)
	}
	return err
}
