package main

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns bounds the load generator's connections to any one host.
const maxConns = 2

// newTransport is the load generator's connection pool: at most maxConns
// keep-alive connections per host.
func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, IdleConnTimeout: time.Minute}
}

// sample is one completed request. Times are offsets from the phase
// start; Due is when the schedule said to send it (equal to Sent in a
// closed loop).
type sample struct {
	Op              int
	Due, Sent, Done time.Duration
	OK              bool
	Size            int    // response body bytes
	Body            []byte // kept only for ops picked for the oracle
}

func (s sample) latency() time.Duration { return s.Done - s.Due }

// sender issues ops against one base URL and records what came back.
type sender struct {
	hc   *http.Client
	base string
	keep []bool // by op index: retain the body for the oracle
}

// send performs op i. buf is the caller's scratch space for the body.
func (sn *sender) send(ops []op, i int, buf *bytes.Buffer) (replica string, body []byte, ok bool) {
	buf.Reset()
	o := &ops[i]
	req, err := http.NewRequest(o.Method, sn.base+o.URI, bytes.NewReader(o.Body))
	if err != nil {
		return "", nil, false
	}
	if o.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := sn.hc.Do(req)
	if err != nil {
		return "", nil, false
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", nil, false
	}
	ok = resp.StatusCode == http.StatusOK
	// Batch and relevance answer 200 around per-slot and per-path failures.
	if ok && (o.Kind == opBatch || o.Kind == opRelevance) && bytes.Contains(buf.Bytes(), []byte(`"error"`)) {
		ok = false
	}
	if sn.keep != nil && sn.keep[i] {
		body = append([]byte(nil), buf.Bytes()...)
	}
	return resp.Header.Get("X-Hetesim-Replica"), body, ok
}

// closedLoop runs n clients for d: each sends its next op only after the
// previous one completed. Client c walks ops c, c+n, c+2n, … and wraps.
func closedLoop(sn *sender, ops []op, n int, d time.Duration) []sample {
	start := time.Now()
	out := make([][]sample, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := c; time.Since(start) < d; i += n {
				out[c] = append(out[c], sn.one(ops, i%len(ops), start, -1, &buf))
			}
		}(c)
	}
	wg.Wait()
	return flatten(out)
}

// runOnce sends every op once, in order, on one connection.
func runOnce(sn *sender, ops []op, start time.Time) []sample {
	var buf bytes.Buffer
	out := make([]sample, 0, len(ops))
	for i := range ops {
		out = append(out, sn.one(ops, i, start, -1, &buf))
	}
	return out
}

// one sends op i and times it. due < 0 means "now" (closed loop).
func (sn *sender) one(ops []op, i int, start time.Time, due time.Duration, buf *bytes.Buffer) sample {
	sent := time.Since(start)
	if due < 0 {
		due = sent
	}
	_, body, ok := sn.send(ops, i, buf)
	return sample{Op: i, Due: due, Sent: sent, Done: time.Since(start), OK: ok, Size: buf.Len(), Body: body}
}

// openLoop sends ops at a fixed rate for d, whatever the fleet's pace: op
// k is due at k/rate. Workers claim ops in due order and wait for the due
// time when they are early; when all are busy the next op starts late,
// and because latency is timed from the due time, that wait is counted.
func openLoop(sn *sender, ops []op, rate float64, workers int, d time.Duration) []sample {
	start := time.Now()
	total := int64(rate * d.Seconds())
	gap := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	out := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				k := next.Add(1) - 1
				if k >= total {
					return
				}
				due := time.Duration(k) * gap
				sleepUntil(start, due)
				out[w] = append(out[w], sn.one(ops, int(k%int64(len(ops))), start, due, &buf))
			}
		}(w)
	}
	wg.Wait()
	return flatten(out)
}

func flatten(parts [][]sample) []sample {
	var all []sample
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}
