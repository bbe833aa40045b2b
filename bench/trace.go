package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/relevance"
)

// span is one timed call, kept in memory until the run ends. Spans of
// one replayed op share Op; Parent is the span one depth up for the same
// op (the call that, in the live system, causes this one), -1 at depth 0
// and for the layer probes.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer records spans around calls made from the benchmark's own code;
// nothing inside the program is instrumented for it.
type tracer struct {
	t0    time.Time
	spans []span
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timed runs f inside a span and returns how long it took and the span's
// id. The id is len(t.spans) at the time of the call, so f can name the
// span as the parent of the ones it opens.
func (t *tracer) timed(name string, op, parent int, f func()) (time.Duration, int) {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	start := time.Now()
	f()
	end := time.Now()
	t.spans[id].StartUS, t.spans[id].EndUS = us(start.Sub(t.t0)), us(end.Sub(t.t0))
	return end.Sub(start), id
}

func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// depthNames are the layers a replayed op is entered at, outermost first.
var depthNames = []string{"d0 router URL", "d1 replica URL", "d2 server handler", "d3 core call"}

// mirror is the benchmark's own copy of what one replica holds, entered
// at depth 3: an engine with the replica's options and warm paths.
func newMirror(g *hin.Graph, w workload) (*core.Engine, error) {
	e := core.NewEngine(g, w.engineOptions()...)
	paths := newPathCache(g)
	for _, spec := range w.Precompute {
		if err := e.Precompute(context.Background(), paths.path(spec)); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// replayer enters ops at each depth.
type replayer struct {
	r       *run
	tr      *tracer
	ops     []op
	owner   []int     // replica that served op i at depth 0
	front   *sender   // depth 0
	direct  []*sender // depth 1, by replica
	mirrors []*core.Engine
	paths   pathCache
}

// call performs op i at the given depth and reports success.
func (rp *replayer) call(depth, i int, buf *bytes.Buffer) bool {
	o := &rp.ops[i]
	f := rp.r.f
	switch depth {
	case 0:
		replica, _, ok := rp.front.send(rp.ops, i, buf)
		if replica != "" {
			rp.owner[i] = f.replicaIndex(replica)
		}
		return ok
	case 1:
		_, _, ok := rp.direct[rp.owner[i]].send(rp.ops, i, buf)
		return ok
	case 2:
		req := httptest.NewRequest(o.Method, o.URI, bytes.NewReader(o.Body))
		if o.Body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		f.reps[rp.owner[i]].srv.Handler().ServeHTTP(rec, req)
		return rec.Code == http.StatusOK
	}
	return false
}

// coreCall prepares op i's arguments (parsing and id lookup are the
// server's codec work, not the core's) and returns the depth-3 call.
func (rp *replayer) coreCall(i int) func() bool {
	o := &rp.ops[i]
	g := rp.r.f.g
	eng := rp.mirrors[rp.owner[i]]
	ctx := context.Background()
	idx := func(typ, id string) int {
		n, err := g.NodeIndex(typ, id)
		if err != nil {
			panic(err) // the schedule drew the id from this graph
		}
		return n
	}
	switch o.Kind {
	case opPair:
		p := rp.paths.path(o.Path)
		src, dst := idx(p.Source(), o.Source), idx(p.Target(), o.Target)
		return func() bool { _, _, err := eng.PairWithPlan(ctx, p, src, dst, core.PlanOptions{}); return err == nil }
	case opTopK:
		p := rp.paths.path(o.Path)
		src := idx(p.Source(), o.Source)
		return func() bool {
			_, _, err := eng.TopKSearchWithPlan(ctx, p, src, o.K, 0, core.PlanOptions{})
			return err == nil
		}
	case opBatch:
		qs := batchQueries(rp.paths, g, o.Slots)
		return func() bool { _, _, err := eng.ExecuteBatch(ctx, qs, core.BatchOptions{}); return err == nil }
	case opRelevance:
		src, dst := idx("author", o.Source), idx("author", o.Target)
		return func() bool {
			_, err := relevance.Pair(ctx, eng, "author", src, "author", dst, relevance.Options{MaxPaths: relevancePaths})
			return err == nil
		}
	}
	panic("no core call for " + o.Kind.String())
}

func batchQueries(paths pathCache, g *hin.Graph, slots []slot) []core.BatchQuery {
	qs := make([]core.BatchQuery, len(slots))
	for i, s := range slots {
		p := paths.path(s.Path)
		src, _ := g.NodeIndex(p.Source(), s.Source)
		q := core.BatchQuery{Kind: core.BatchTopK, Path: p, Src: src, K: s.K}
		if s.Kind == "pair" {
			dst, _ := g.NodeIndex(p.Target(), s.Target)
			q = core.BatchQuery{Kind: core.BatchPair, Path: p, Src: src, Dst: dst}
		}
		qs[i] = q
	}
	return qs
}

// replayDepth walks the whole sample at one depth. The replay is
// depth-major — the sample at depth 0, then the sample at depth 1, and so
// on — so each pass meets the caches in the state the same walk left them
// in, which is what makes op i comparable across depths on cold-adhoc.
// ids[i] is op i's span one depth up (-1 at depth 0) and is advanced. It
// returns each op's duration in microseconds.
func (rp *replayer) replayDepth(d int, ids []int) (durs []float64, failed int) {
	var buf bytes.Buffer
	durs = make([]float64, len(rp.ops))
	if d == 3 && rp.r.cfg.workload.CacheLimit > 0 {
		for i := range rp.ops { // bring the mirrors' caches to the same churn
			rp.coreCall(i)()
		}
	}
	for i := range rp.ops {
		var call func() bool
		if d == 3 {
			call = rp.coreCall(i)
		} else {
			i := i
			call = func() bool { return rp.call(d, i, &buf) }
		}
		ok := false
		dur, id := rp.tr.timed(depthNames[d]+" "+rp.ops[i].Kind.String(), i, ids[i], func() { ok = call() })
		if !ok {
			failed++
		}
		durs[i], ids[i] = us(dur), id
	}
	return durs, failed
}

// writeReplay is the depth replay of write-mix. The fleet cannot take one
// write twice, so depths 0 to 2 get their own batches: same seed and
// shapes, targets shifted by the depth (see writeGen). Depth 3 is the
// sequence the server's write handler runs, made of direct calls on the
// benchmark's own graph, engines and log — state the fleet never sees, so
// it replays depth 2's batches exactly; those calls are the d4 spans.
func (rp *replayer) writeReplay(n int, dir string) (durs [][]float64, failed int, err error) {
	f := rp.r.f
	hc := &http.Client{Transport: rp.r.tr}
	durs = make([][]float64, len(depthNames))
	ids := make([]int, n)
	for i := range ids {
		ids[i] = -1
	}
	handler := f.reps[0].srv.Handler()
	norm, err := newMirror(f.g, f.w)
	if err != nil {
		return nil, 0, err
	}
	state, err := newPrimary(f.g, f.w, norm, dir, "replay.wal")
	if err != nil {
		return nil, 0, err
	}
	defer state.log.Close()
	var wt writeTimes

	for d := range depthNames {
		durs[d] = make([]float64, n)
		shift := d
		if d == 3 {
			shift = 2 // private state: replay exactly depth 2's batches
		}
		batches := newWriteGen(f.g, rp.r.cfg.seed, fmt.Sprintf("d%d", d), shift).batches(n)
		for i := range batches {
			o := &batches[i]
			ok := false
			var call func()
			switch d {
			case 0:
				call = func() { _, _, ok = postWrite(hc, f.front.URL, o) }
			case 1:
				call = func() { _, _, ok = postWrite(hc, f.reps[0].ts.URL, o) }
			case 2:
				call = func() {
					_, _, ok = retryShed(func() (int, []byte) {
						rec := httptest.NewRecorder()
						handler.ServeHTTP(rec, httptest.NewRequest(o.Method, o.URI, bytes.NewReader(o.Body)))
						return rec.Code, rec.Body.Bytes()
					})
				}
			case 3:
				parent := len(rp.tr.spans) // the span timed() is about to open
				call = func() { ok = state.apply(rp.tr, i, parent, o, &wt) == nil }
			}
			dur, id := rp.tr.timed(depthNames[d]+" write", i, ids[i], call)
			if !ok {
				failed++
			}
			durs[d][i], ids[i] = us(dur), id
		}
	}
	rp.r.printf("  write path at depth 3 (p50): hin.Apply %.3fms  hin.Fingerprint %.3fms  core.RewarmFrom %.3fms (%.0f rows patched)  wal.Append %.3fms",
		median(wt.Apply), median(wt.Fingerprint), median(wt.Rewarm), median(wt.Rows), median(wt.Append))
	return durs, failed, nil
}

// medianBand returns the indices of the ops in the middle fifth of v by
// rank (at least fifteen of them): the requests a p50 describes.
func medianBand(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	lo, hi := len(v)*2/5, len(v)*3/5
	for hi-lo < 15 && (lo > 0 || hi < len(v)) {
		if lo > 0 {
			lo--
		}
		if hi < len(v) {
			hi++
		}
	}
	return idx[lo:hi]
}

func meanAt(v []float64, idx []int) float64 {
	sum := 0.0
	for _, i := range idx {
		sum += v[i]
	}
	return sum / float64(len(idx))
}

// selfTimeReport turns per-depth durations into per-layer self times. A
// layer's self time for one op is its span minus the span one depth down;
// the reported value is the mean over the median band of the sample (ops
// ranked by their depth-0 duration), so the layers add up to the typical
// request instead of each being a median of a different op. The sum is
// printed against the same band of the untraced pass.
func (r *run) selfTimeReport(durs [][]float64, plain []float64, layer map[string]float64) {
	names := []string{"router.relay_self_us", "server.http_self_us", "server.codec_self_us", "core.exec_us"}
	band := medianBand(durs[0])
	sum := 0.0
	for d, name := range names {
		v := durs[d]
		if d+1 < len(durs) {
			v = selfTimes(durs[d], durs[d+1])
		}
		layer[name] = meanAt(v, band)
		sum += layer[name]
		r.printf("  %-24s %12.1f us   (%s: %.1f us)", name, layer[name], depthNames[d], meanAt(durs[d], band))
	}
	untraced := meanAt(plain, medianBand(plain))
	layer["gen.replay_p50_us"] = untraced
	layer["gen.trace_overhead_pct"] = 100 * (sum - untraced) / untraced
	r.printf("  self times of the median band (%d of %d ops) sum to %.1f us; the untraced serial pass's band is %.1f us: residual %+.1f%%, which is also all that recording spans can have cost",
		len(band), len(durs[0]), sum, untraced, layer["gen.trace_overhead_pct"])
}
