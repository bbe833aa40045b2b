package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strings"
	"testing"

	"hetesim/internal/hin"
	"hetesim/internal/router"
)

// The follower schedule harness: seeded, step-driven replication runs of a
// primary and a follower that joins with an empty log, served through a
// socket-free router.Inproc transport. The follower loop's body (followTick)
// is called as an explicit step instead of on a ticker, so a seed replays
// exactly. Steps are keyed writes, retried writes, primary compaction,
// primary Precompute, follower ticks and injected local divergence. After
// every step the harness checks:
//
//   - no acked write is lost: the primary serves the acked batches folded
//     over the base, in ack order, at the last acked wal_seq;
//   - exactly once per idempotency key: a retried key acks its first seq;
//   - the follower's wal_seq never goes backwards;
//   - equal wal_seq ⟹ equal fingerprint: the follower serves the graph the
//     primary served at the follower's sequence (after every tick, and at
//     every step unless divergence was injected since the last tick);
//   - a converged follower answers pair and top-k with the primary's bits.

const schedulePrimary = "http://primary"

// followFleet is one schedule's state: the two replicas, the model of what
// the primary acked, and the step log printed on failure.
type followFleet struct {
	t                 *testing.T
	rng               *rand.Rand
	primary, follower *Server
	client            *http.Client
	o                 FollowerOptions

	model     *hin.Graph        // the base graph with every acked batch folded in
	fpAt      map[uint64]uint64 // the primary's fingerprint at each wal_seq
	acked     map[string]uint64 // idempotency key -> acked seq
	keys      []string          // acked keys, in ack order
	lastSeq   uint64            // the follower's highest wal_seq so far
	injected  bool              // divergence injected since the last tick
	converged int               // steps that compared converged answers
	steps     []string
}

// newFollowFleet builds a primary with a compactable log and an empty-log
// follower following it over inproc, with the follower's role published as
// RunFollower would before its first tick.
func newFollowFleet(t *testing.T, seed uint64) *followFleet {
	primary := newWALReplica(t)
	follower := newWALReplica(t)
	client := &http.Client{Transport: router.Inproc{"primary": primary.Handler(), "follower": follower.Handler()}}
	follower.publish(followState{})
	base := reloadGraph(t, 0)
	return &followFleet{
		t: t, rng: rand.New(rand.NewPCG(seed, 0x5eed)),
		primary: primary, follower: follower, client: client,
		o:     FollowerOptions{Target: schedulePrimary, MaxBatch: 2, Client: client, Logf: t.Logf},
		model: base, fpAt: map[uint64]uint64{0: base.Fingerprint()}, acked: map[string]uint64{},
	}
}

func (f *followFleet) fatalf(format string, args ...any) {
	f.t.Helper()
	f.t.Fatalf("%s\nschedule so far:\n  %s", fmt.Sprintf(format, args...), strings.Join(f.steps, "\n  "))
}

// do issues one request over the fleet's transport.
func (f *followFleet) do(method, url string, body any, into any) int {
	f.t.Helper()
	return callJSON(f.t, f.client, method, url, body, into)
}

// callJSON issues one request on client with body (when non-nil) as JSON,
// decodes a 200 answer into into (when non-nil) and returns the status.
func callJSON(t testing.TB, client *http.Client, method, url string, body, into any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK && into != nil {
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatalf("decoding %s %s: %v (%s)", method, url, err, raw)
		}
	}
	return resp.StatusCode
}

var (
	scheduleAuthors = []string{"Tom", "Mary", "Ann", "Bob"}
	schedulePapers  = []string{"p1", "p2", "p3"}
	scheduleVenues  = []string{"KDD", "SIGMOD", "VLDB"}
)

// randomOps draws a small batch the model graph accepts: a third of the
// time a delete of one of its author-paper edges, then upserts over a node
// pool that grows past the base graph.
func (f *followFleet) randomOps() []hin.Op {
	pick := func(s []string) string { return s[f.rng.IntN(len(s))] }
	var ops []hin.Op
	if del, ok := f.dropEdge(f.model); ok && f.rng.IntN(3) == 0 {
		ops = append(ops, del)
	}
	for n := len(ops) + 1 + f.rng.IntN(2); len(ops) < n; {
		if f.rng.IntN(4) == 0 {
			ops = append(ops, upsert("published_in", pick(schedulePapers), pick(scheduleVenues), float64(1+f.rng.IntN(3))))
		} else {
			ops = append(ops, upsert("writes", pick(scheduleAuthors), pick(schedulePapers), float64(1+f.rng.IntN(3))))
		}
	}
	return ops
}

// dropEdge draws a delete of one of g's author-paper edges, when it has one.
func (f *followFleet) dropEdge(g *hin.Graph) (hin.Op, bool) {
	n := len(scheduleAuthors) * len(schedulePapers)
	for i, start := 0, f.rng.IntN(n); i < n; i++ {
		k := (start + i) % n
		del := hin.Op{Kind: hin.OpDeleteEdge, Relation: "writes", Src: scheduleAuthors[k/len(schedulePapers)], Dst: schedulePapers[k%len(schedulePapers)]}
		if _, _, err := g.Apply([]hin.Op{del}); err == nil {
			return del, true
		}
	}
	return hin.Op{}, false
}

// write posts one keyed batch to the primary and folds it into the model.
func (f *followFleet) write(key string, ops []hin.Op) {
	f.t.Helper()
	var ack mutateBody
	if status := f.do(http.MethodPost, schedulePrimary+"/v1/admin/edges", mutateRequest{Key: key, Ops: ops}, &ack); status != http.StatusOK {
		f.fatalf("write %s = %d", key, status)
	}
	if want := uint64(len(f.keys)) + 1; ack.Seq != want || ack.Status != "applied" {
		f.fatalf("write %s acked %+v, want applied at seq %d", key, ack, want)
	}
	ng, _, err := f.model.Apply(ops)
	if err != nil {
		f.fatalf("model rejects acked write %s: %v", key, err)
	}
	f.model = ng
	f.acked[key] = ack.Seq
	f.keys = append(f.keys, key)
	f.fpAt[ack.Seq] = ng.Fingerprint()
}

// retry re-posts an acked key: it must answer its first ack, change nothing.
func (f *followFleet) retry(key string) {
	f.t.Helper()
	var ack mutateBody
	if status := f.do(http.MethodPost, schedulePrimary+"/v1/admin/edges", mutateRequest{Key: key, Ops: f.randomOps()}, &ack); status != http.StatusOK {
		f.fatalf("retry %s = %d", key, status)
	}
	if ack.Seq != f.acked[key] || ack.Status != "duplicate" {
		f.fatalf("retry %s acked %+v, want duplicate of seq %d", key, ack, f.acked[key])
	}
}

// diverge swaps a graph the follower never replicated into it at its
// current position: equal wal_seq, different fingerprint. Half the time it
// drops one of its author-paper edges, which a later replicated delete may
// name; otherwise it reweights one.
func (f *followFleet) diverge() {
	f.t.Helper()
	fs := f.follower.st
	fs.admit.Lock()
	defer fs.admit.Unlock()
	cur := f.follower.current()
	op := upsert("writes", "Tom", "p2", 9)
	if del, ok := f.dropEdge(cur.g); ok && f.rng.IntN(2) == 0 {
		op = del
	}
	bad, _, err := cur.g.Apply([]hin.Op{op})
	if err != nil {
		f.t.Fatal(err)
	}
	fs.mu.Lock()
	fs.publish(fs.newEngineSet(bad), cur.seq)
	fs.mu.Unlock()
	f.injected = true
}

// step draws and runs one schedule step.
func (f *followFleet) step(i int) {
	f.t.Helper()
	switch r := f.rng.IntN(100); {
	case r < 35:
		key, ops := fmt.Sprintf("k%d", i), f.randomOps()
		f.steps = append(f.steps, fmt.Sprintf("write %s %v", key, ops))
		f.write(key, ops)
	case r < 42 && len(f.keys) > 0:
		key := f.keys[f.rng.IntN(len(f.keys))]
		f.steps = append(f.steps, "retry "+key)
		f.retry(key)
	case r < 52:
		f.steps = append(f.steps, "compact")
		if err := f.primary.st.compact(); err != nil {
			f.fatalf("compact: %v", err)
		}
	case r < 60:
		spec := []string{"APA", "APCPA", "APC"}[f.rng.IntN(3)]
		f.steps = append(f.steps, "precompute "+spec)
		if err := f.primary.Precompute(spec); err != nil {
			f.fatalf("precompute %s: %v", spec, err)
		}
	case r < 66:
		f.steps = append(f.steps, "diverge")
		f.diverge()
	default:
		f.steps = append(f.steps, "tick")
		f.follower.followTick(context.Background(), f.o)
		f.injected = false
		if fp, want := f.follower.current().fingerprint, f.fpAt[f.follower.current().seq]; fp != want {
			f.fatalf("after a tick the follower serves %016x at seq %d; the primary served %016x there",
				fp, f.follower.current().seq, want)
		}
	}
	f.check()
}

// check asserts the invariants that hold after every step.
func (f *followFleet) check() {
	f.t.Helper()
	p, fl := f.primary.current(), f.follower.current()
	if want := uint64(len(f.keys)); p.seq != want || p.fingerprint != f.model.Fingerprint() {
		f.fatalf("primary serves seq %d fingerprint %016x; acked writes give seq %d fingerprint %016x",
			p.seq, p.fingerprint, want, f.model.Fingerprint())
	}
	if fl.seq < f.lastSeq {
		f.fatalf("follower wal_seq went backwards: %d after %d", fl.seq, f.lastSeq)
	}
	f.lastSeq = fl.seq
	if f.injected {
		return
	}
	if want, ok := f.fpAt[fl.seq]; !ok || fl.fingerprint != want {
		f.fatalf("follower serves fingerprint %016x at seq %d; the primary served %016x there", fl.fingerprint, fl.seq, want)
	}
	if fl.seq == p.seq {
		f.sameAnswers()
		f.converged++
	}
}

// sameAnswers compares a pair and a top-k answer of the two replicas bit
// for bit.
func (f *followFleet) sameAnswers() {
	f.t.Helper()
	var pp, fp pairBody
	f.do(http.MethodGet, schedulePrimary+"/v1/pair?path=APA&source=Tom&target=Mary", nil, &pp)
	f.do(http.MethodGet, "http://follower/v1/pair?path=APA&source=Tom&target=Mary", nil, &fp)
	if math.Float64bits(pp.Score) != math.Float64bits(fp.Score) {
		f.fatalf("converged pair score %v on the follower, %v on the primary", fp.Score, pp.Score)
	}
	var pk, fk topKBody
	f.do(http.MethodGet, schedulePrimary+"/v1/topk?path=APCPA&source=Tom&k=4", nil, &pk)
	f.do(http.MethodGet, "http://follower/v1/topk?path=APCPA&source=Tom&k=4", nil, &fk)
	if len(pk.Results) == 0 || len(pk.Results) != len(fk.Results) {
		f.fatalf("converged top-k: %d hits on the follower, %d on the primary", len(fk.Results), len(pk.Results))
	}
	for i := range pk.Results {
		if pk.Results[i].ID != fk.Results[i].ID || math.Float64bits(pk.Results[i].Score) != math.Float64bits(fk.Results[i].Score) {
			f.fatalf("converged top-k hit %d: %+v on the follower, %+v on the primary", i, fk.Results[i], pk.Results[i])
		}
	}
}

// TestFollowSchedules runs the harness over a fixed seed budget: 64
// schedules of 64 steps (32 in short mode, as make chaos runs it under
// -race). A failure names its seed; -run 'TestFollowSchedules/seed=N'
// replays it.
func TestFollowSchedules(t *testing.T) {
	seeds, steps := 64, 64
	if testing.Short() {
		seeds = 32
	}
	resyncs, heals, converged := metFollowResyncs.Value(), metFollowDivergence.Value(), 0
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			f := newFollowFleet(t, uint64(seed))
			for i := 0; i < steps; i++ {
				f.step(i)
			}
			converged += f.converged
		})
	}
	// A budget that never resyncs, heals or compares proves nothing.
	r, h := metFollowResyncs.Value()-resyncs, metFollowDivergence.Value()-heals
	t.Logf("%d schedules of %d steps: %d resyncs, %d divergences healed, %d converged comparisons", seeds, steps, r, h, converged)
	if r == 0 || h == 0 || converged == 0 {
		t.Fatal("schedules too weak to prove anything")
	}
}
