package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"hetesim/internal/hin"
)

// setupRepeats is how many times a run boots its fleet; setup_s is the
// median. The last fleet serves the run.
const setupRepeats = 5

// oracleShare is the seeded share of routed answers kept for the oracle;
// oracleChecks caps how many distinct ones the uncached oracle evaluates.
const (
	oracleShare  = 0.05
	oracleChecks = 120
)

// endToEnd are the metrics an untraced run reports, with their units.
// BENCHMARK.json lists the same names; the tests hold the two together.
var endToEnd = map[string]string{
	"setup_s": "s", "throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_p95_ms": "ms", "latency_p99_ms": "ms",
}

type config struct {
	workload workload
	seed     int64
	seconds  float64
	short    bool   // SmallACMConfig graph, for tests and smoke runs
	out      string // where a traced run writes trace.json
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line of one run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one workload run: its fleet, its accounting, and
// where the human-readable lines go.
type run struct {
	cfg config
	f   *fleet
	tr  *http.Transport
	w   io.Writer

	attempted, failed, wrong int
	setupS                   float64
}

func (r *run) printf(format string, args ...any) { fmt.Fprintf(r.w, format+"\n", args...) }

func (r *run) count(p phase) {
	r.attempted += p.Sent
	r.failed += p.Failed
	r.printf("  %s", p)
}

// sender returns a sender for the router URL. keep marks the op indices
// whose answers the oracle will want.
func (r *run) sender(keep []bool) *sender {
	return &sender{hc: &http.Client{Transport: r.tr}, base: r.f.front.URL, keep: keep}
}

// pickForOracle flips the seeded oracleShare coin for each of n ops.
func pickForOracle(n int, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed ^ 0x6f7261636c65))
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = rng.Float64() < oracleShare
	}
	return keep
}

// verify runs the oracle over the kept answers (distinct ops, first
// oracleChecks of them) and counts mismatches as failures.
func (r *run) verify(o *oracle, ops []op, samples []sample) {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	seen := map[int]bool{}
	checked := 0
	for _, s := range samples {
		if s.Body == nil || !s.OK || seen[s.Op] || checked >= oracleChecks {
			continue
		}
		seen[s.Op] = true
		checked++
		if err := o.check(&ops[s.Op], s.Body, rng); err != nil {
			r.wrong++
			r.printf("  WRONG ANSWER %s %s: %v", ops[s.Op].Method, ops[s.Op].URI, err)
		}
	}
	r.printf("  oracle: %d routed answers checked bit-for-bit against an uncached engine (even paths also vs sparse-only Eq.8 to %g), %d wrong",
		checked, eq8Tolerance, r.wrong)
}

// bootRepeatedly boots the workload's fleet setupRepeats times under root
// and keeps the last; setup_s is the median boot.
func (r *run) bootRepeatedly(root string) error {
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if r.f != nil {
			r.f.close()
			r.f = nil
		}
		dir := filepath.Join(root, "fleet"+strconv.Itoa(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		t := time.Now()
		f, err := bootFleet(r.cfg.workload, r.cfg.short, dir)
		if err != nil {
			return err
		}
		secs = append(secs, time.Since(t).Seconds())
		r.f = f
	}
	r.setupS = median(secs)
	r.printf("  setup: %v s (median %.4f; last: datagen %.3f precompute %.3f snapshot save %.3f load %.3f, %d bytes)",
		secs, r.setupS, r.f.datagenS, r.f.precomputeS, r.f.snapSaveS, r.f.snapLoadS, r.f.snapBytes)
	return nil
}

// printByKind prints a phase's latency per op kind: the kinds of one
// workload are far apart, and the mix's percentiles say which kind they
// landed on only next to these.
func (r *run) printByKind(ops []op, samples []sample) {
	byKind := map[string][]float64{}
	for _, s := range samples {
		k := ops[s.Op].Kind.String()
		byKind[k] = append(byKind[k], ms(s.latency()))
	}
	for _, k := range sortedKeys(byKind) {
		v := sortedCopy(byKind[k])
		r.printf("    %-10s n=%-6d p50=%.3fms p95=%.3fms p99=%.3fms", k, len(v), percentile(v, 50), percentile(v, 95), percentile(v, 99))
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// warmup is the untimed lead-in of a run of the given length.
func warmup(s float64) time.Duration {
	w := s / 10
	if w < 0.1 {
		w = 0.1
	}
	return seconds(w)
}

// runTimed is the untraced run: it reports the end-to-end metrics.
func runTimed(cfg config, w io.Writer) (report, error) {
	r := &run{cfg: cfg, w: w, tr: newTransport()}
	defer r.tr.CloseIdleConnections()
	root, err := os.MkdirTemp(".", ".bench-tmp-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(root)
	if err := r.bootRepeatedly(root); err != nil {
		return report{}, err
	}
	defer func() { r.f.close() }()

	e2e, err := cfg.workload.Timed(r)
	if err != nil {
		return report{}, err
	}
	rep := report{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed + r.wrong,
		Metrics:   map[string]metric{},
	}
	for name, v := range map[string]float64{
		"setup_s":          r.setupS,
		"throughput_ops_s": e2e.Throughput.Value,
		"latency_p50_ms":   e2e.P50.Value,
		"latency_p95_ms":   e2e.P95.Value,
		"latency_p99_ms":   e2e.P99.Value,
	} {
		rep.Metrics[name] = metric{v, endToEnd[name]}
	}
	for _, name := range sortedKeys(endToEnd) {
		r.printf("  %-36s %14.6g %s", name, rep.Metrics[name].Value, endToEnd[name])
	}
	return rep, nil
}

// warmPoint: phase A, closed loop, gives throughput and the reported
// latencies; phase B replays the mix open loop at rateWarm, timed from the
// due time. B's tail percentiles move by a quarter or more between
// identical runs on a two-core box (README.md has the measurements), so
// they are printed, not gated.
func (r *run) warmPoint() (phase, error) {
	ops := newGen(r.f.g, r.cfg.seed).pointMix(20000)
	sn := r.sender(pickForOracle(len(ops), r.cfg.seed))
	closedLoop(r.sender(nil), ops, r.cfg.workload.Clients, warmup(r.cfg.seconds))

	dA, dB := seconds(0.7*r.cfg.seconds), seconds(0.3*r.cfg.seconds)
	sa := closedLoop(sn, ops, r.cfg.workload.Clients, dA)
	a := summarize("A closed-loop x2", timeWindows(sa, dA))
	r.count(a)
	r.printByKind(ops, sa)
	sb := openLoop(sn, ops, r.rate(rateWarm), maxConns, dB)
	r.count(summarize(fmt.Sprintf("B open-loop %g/s", r.rate(rateWarm)), timeWindows(sb, dB)))
	r.verify(newOracle(r.f.g), ops, append(sa, sb...))
	return a, nil
}

// rate scales the frozen paper-scale arrival rate down for the brief
// runs of -short, which do not want thousands of requests.
func (r *run) rate(full float64) float64 {
	if r.cfg.short {
		return full / 5
	}
	return full
}

// coldAdhoc: one client walks whole cycles of never-cached paths.
func (r *run) coldAdhoc() (phase, error) {
	ops := newGen(r.f.g, r.cfg.seed).coldCycle()
	sn := r.sender(all(len(ops))) // a cycle is small enough to check whole
	start := time.Now()
	runOnce(r.sender(nil), ops, start) // warm-up cycle: transitions built, cache in its steady churn
	var cycles [][]sample
	for t := time.Now(); len(cycles) < windows || time.Since(t) < seconds(r.cfg.seconds); {
		cycles = append(cycles, runOnce(sn, ops, start))
	}
	p := summarize(fmt.Sprintf("closed-loop x1, %d cycles of %d ops", len(cycles), len(ops)), cycleWindows(cycles))
	r.count(p)
	r.verify(newOracle(r.f.g), ops, flatten(cycles))
	return p, nil
}

// batchEnsemble: two clients, closed loop over batch and relevance posts.
func (r *run) batchEnsemble() (phase, error) {
	ops := newGen(r.f.g, r.cfg.seed).ensembleMix(400)
	keep := pickForOracle(len(ops), r.cfg.seed)
	closedLoop(r.sender(nil), ops, r.cfg.workload.Clients, warmup(r.cfg.seconds))
	d := seconds(r.cfg.seconds)
	s := closedLoop(r.sender(keep), ops, r.cfg.workload.Clients, d)
	r.printByKind(ops, s)
	p := summarize("closed-loop x2", timeWindows(s, d))
	r.count(p)
	r.verify(newOracle(r.f.g), ops, s)
	return p, nil
}

// ack is one write as the writer saw it.
type ack struct {
	Seq        uint64
	Sent, Done time.Duration
	OK         bool
}

// seen is the first moment the follower's /readyz reported a sequence.
type seen struct {
	at  time.Duration
	seq uint64
}

// summarizeWrites counts the writes, prints ack latency and visibility
// lag, and returns the writer's busy-time throughput: acks per second
// spent waiting for acks, per window.
func (r *run) summarizeWrites(acks []ack, trail []seen, d time.Duration) windowed {
	var ackMS, rywMS []float64
	perWin := make([][]float64, windows)
	busy := make([]float64, windows)
	for _, a := range acks {
		r.attempted++
		if !a.OK {
			r.failed++
			continue
		}
		l := ms(a.Done - a.Sent)
		ackMS = append(ackMS, l)
		wi := min(int(a.Sent*windows/d), windows-1)
		perWin[wi] = append(perWin[wi], l)
		busy[wi] += (a.Done - a.Sent).Seconds()
		if i := sort.Search(len(trail), func(i int) bool { return trail[i].seq >= a.Seq }); i < len(trail) {
			rywMS = append(rywMS, ms(trail[i].at-a.Done))
		}
	}
	var tput, ack50 []float64
	for i := range perWin {
		if len(perWin[i]) > 0 {
			tput = append(tput, float64(len(perWin[i]))/busy[i])
			ack50 = append(ack50, median(perWin[i]))
		}
	}
	sort.Float64s(ackMS)
	sort.Float64s(rywMS)
	wt, a50 := windowMedian(tput), windowMedian(ack50)
	r.printf("  writes paced %d/s: acked=%d write_ack_p50_ms=%.3f (iqr %.1f%%) write_ack_p90_ms=%.3f ryw_visible_p50_ms=%.3f (n=%d)  writer busy-time throughput %.2f acks/s (iqr %.1f%%)",
		writeRate, len(ackMS), a50.Value, 100*a50.Spread, percentile(ackMS, 90), percentile(rywMS, 50), len(rywMS), wt.Value, 100*wt.Spread)
	return wt
}

// writeMix: one closed-loop reader replays the warm-point mix while one
// writer posts edge-delta batches through the router at the fixed
// writeRate (so a faster write path does not raise the load on the
// reader); a watcher polls the follower's /readyz to time when each acked
// sequence becomes visible there.
func (r *run) writeMix() (phase, error) {
	reads := newGen(r.f.g, r.cfg.seed).pointMix(20000)
	d := seconds(r.cfg.seconds)
	writes := newWriteGen(r.f.g, r.cfg.seed, "w", 0).batches(int(writeRate*r.cfg.seconds) + 1)
	closedLoop(r.sender(nil), reads, r.cfg.workload.Clients, warmup(r.cfg.seconds))

	wtr := newTransport() // the writer and the watcher stay off the readers' connections
	defer wtr.CloseIdleConnections()
	hc := &http.Client{Transport: wtr}
	start := time.Now()
	var wg sync.WaitGroup
	var readSamples []sample
	acks := make([]ack, 0, len(writes))
	wg.Add(2)
	go func() {
		defer wg.Done()
		readSamples = closedLoop(r.sender(nil), reads, r.cfg.workload.Clients, d)
	}()
	go func() {
		defer wg.Done()
		gap := time.Second / writeRate
		for i := range writes {
			due := time.Duration(i) * gap
			if due >= d {
				return
			}
			sleepUntil(start, due)
			a := ack{Sent: time.Since(start)}
			a.Seq, _, a.OK = postWrite(hc, r.f.front.URL, &writes[i])
			a.Done = time.Since(start)
			acks = append(acks, a)
		}
	}()
	// Watcher: follower wal_seq over time, sampled every few milliseconds.
	var trail []seen
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		tick := time.NewTicker(4 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if rb, err := readyz(hc, r.f.reps[1].ts.URL); err == nil && (len(trail) == 0 || rb.WALSeq > trail[len(trail)-1].seq) {
					trail = append(trail, seen{time.Since(start), rb.WALSeq})
				}
			}
		}
	}()
	wg.Wait()

	// Let the follower drain the tail, then stop watching.
	var lastSeq uint64
	acked := []hin.Op{}
	for i, a := range acks {
		if a.OK {
			lastSeq = a.Seq
			acked = append(acked, writes[i].Ops...)
		}
	}
	converged := r.waitConverged(hc, lastSeq)
	close(stop)
	<-watched

	p := summarize("reads closed-loop x1", timeWindows(readSamples, d))
	r.count(p)

	p.Throughput = r.summarizeWrites(acks, trail, d)

	// Final state: both replicas at one sequence and fingerprint, and
	// scores equal to an engine over base graph + every acked op.
	if !converged {
		r.wrong++
		r.printf("  WRONG: replicas did not converge on wal_seq %d with one fingerprint", lastSeq)
	}
	final, _, err := r.f.g.Apply(acked)
	if err != nil {
		return p, fmt.Errorf("replaying acked ops on the base graph: %w", err)
	}
	check := reads[:400]
	after := runOnce(r.sender(all(len(check))), check, time.Now())
	for _, s := range after {
		r.attempted++
		if !s.OK {
			r.failed++
		}
	}
	r.verify(newOracle(final), check, after)
	return p, nil
}

func all(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

// postWrite posts one mutation batch and returns the acked WAL sequence.
// A primary sheds a write that meets another holder of its write lock —
// here, the follower's tail read — with 503; like any client of the write
// API, postWrite retries that under the batch's idempotency key, and the
// ack latency includes the retries.
func postWrite(hc *http.Client, base string, o *op) (seq uint64, size int, ok bool) {
	return retryShed(func() (int, []byte) {
		resp, err := hc.Post(base+o.URI, "application/json", bytes.NewReader(o.Body))
		if err != nil {
			return 0, nil
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	})
}

// retryShed calls try until it answers anything but 503, for at most two
// seconds, and reads the acked sequence out of the final answer.
func retryShed(try func() (status int, body []byte)) (seq uint64, size int, ok bool) {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		status, body := try()
		if status == http.StatusServiceUnavailable && time.Now().Before(deadline) {
			continue
		}
		var mb struct {
			Seq uint64 `json:"seq"`
		}
		_ = json.Unmarshal(body, &mb) // no seq, no ack
		return mb.Seq, len(body), status == http.StatusOK && mb.Seq > 0
	}
}

type readyBody struct {
	WALSeq      uint64 `json:"wal_seq"`
	Fingerprint string `json:"fingerprint"`
}

func readyz(hc *http.Client, base string) (readyBody, error) {
	var rb readyBody
	resp, err := hc.Get(base + "/readyz")
	if err != nil {
		return rb, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&rb)
	return rb, err
}

// waitConverged polls both replicas' /readyz until they report seq with
// one fingerprint.
func (r *run) waitConverged(hc *http.Client, seq uint64) bool {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		a, errA := readyz(hc, r.f.reps[0].ts.URL)
		b, errB := readyz(hc, r.f.reps[1].ts.URL)
		if errA == nil && errB == nil && a.WALSeq == seq && b.WALSeq == seq && a.Fingerprint == b.Fingerprint {
			return true
		}
	}
	return false
}
