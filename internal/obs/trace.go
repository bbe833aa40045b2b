package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Per-query stage tracing. A Trace is threaded through context.Context;
// instrumentation sites ask FromContext for it and open spans. Every
// accessor is nil-safe, so an untraced query pays only the context
// lookup — no allocation, no clock read.
//
// Span names map onto the paper's query pipeline (DESIGN.md
// "Observability"): decode → plan (path decomposition, Defs. 5–6) →
// chain_multiply per reachable-probability step (Defs. 8–9) →
// normalize (the Def. 10 cosine), with cache_hit/cache_miss spans where
// the materialized-path cache short-circuits that pipeline.

// Span is one recorded stage of a traced query. Start is the offset
// from the trace's origin, so spans order and nest without wall-clock
// timestamps.
type Span struct {
	Name  string            `json:"name"`
	Start time.Duration     `json:"-"`
	Dur   time.Duration     `json:"-"`
	Attrs map[string]string `json:"attrs,omitempty"`

	// JSON mirrors of Start/Dur in microseconds, filled by snapshot();
	// durations marshal as bare nanosecond integers otherwise, which no
	// human reads fluently.
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// Trace accumulates the spans of one query. Safe for concurrent use.
type Trace struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

type ctxKey struct{}

// NewTrace starts an empty trace with its origin at now and returns a
// context carrying it.
func NewTrace(ctx context.Context) (context.Context, *Trace) {
	t := &Trace{origin: time.Now()}
	return context.WithValue(ctx, ctxKey{}, t), t
}

// FromContext returns the trace carried by ctx, or nil when the query is
// untraced. All Trace and SpanHandle methods tolerate nil receivers, so
// call sites never need to branch.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// SpanHandle is an open span; call End (optionally after SetAttr) to
// record it.
type SpanHandle struct {
	t     *Trace
	name  string
	start time.Time
	attrs map[string]string
}

// Start opens a span. Returns nil (a valid no-op handle) on a nil trace.
func (t *Trace) Start(name string) *SpanHandle {
	if t == nil {
		return nil
	}
	return &SpanHandle{t: t, name: name, start: time.Now()}
}

// SetAttr attaches a key/value annotation (matrix dims, nnz, cache key)
// to the span and returns it for chaining.
func (s *SpanHandle) SetAttr(k, v string) *SpanHandle {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[k] = v
	return s
}

// End closes the span and appends it to the trace.
func (s *SpanHandle) End() {
	if s == nil {
		return
	}
	now := time.Now()
	sp := Span{
		Name:  s.name,
		Start: s.start.Sub(s.t.origin),
		Dur:   now.Sub(s.start),
		Attrs: s.attrs,
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sp)
	s.t.mu.Unlock()
}

// Event records an instantaneous zero-duration span (a cache hit, a
// degradation decision) with the given attributes.
func (t *Trace) Event(name string, attrs map[string]string) {
	if t == nil {
		return
	}
	sp := Span{Name: name, Start: time.Since(t.origin), Attrs: attrs}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// snapshot returns the spans sorted by start offset with the JSON
// microsecond mirrors filled in.
func (t *Trace) snapshot() []Span {
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	for i := range out {
		out[i].StartUS = float64(out[i].Start) / float64(time.Microsecond)
		out[i].DurUS = float64(out[i].Dur) / float64(time.Microsecond)
	}
	return out
}

// Report is the JSON rendering of a finished trace, returned inline
// under "trace" when a client asks with ?trace=1 and stored in slow-log
// entries.
type Report struct {
	TotalUS  float64 `json:"total_us"`
	Coverage float64 `json:"coverage"` // fraction of total covered by spans
	Spans    []Span  `json:"spans"`
}

// Elapsed returns the wall time since the trace's origin — the total to
// report against when the query is still finishing (e.g. attaching the
// trace to the response body before the handler returns).
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.origin)
}

// Report finalizes the trace against a total query wall time.
func (t *Trace) Report(total time.Duration) *Report {
	if t == nil {
		return nil
	}
	spans := t.snapshot()
	return &Report{
		TotalUS:  float64(total) / float64(time.Microsecond),
		Coverage: Coverage(spans, total),
		Spans:    spans,
	}
}

// Coverage returns the fraction of total wall time covered by the union
// of the spans' intervals. Overlapping and nested spans count once, so a
// parent span plus its children cannot exceed 1. Used by the acceptance
// tests ("spans cover ≥90% of a pair query") and exposed in Report for
// operators judging how much of a slow query the trace explains.
func Coverage(spans []Span, total time.Duration) float64 {
	if total <= 0 || len(spans) == 0 {
		return 0
	}
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		if s.Dur <= 0 {
			continue
		}
		ivs = append(ivs, iv{s.Start, s.Start + s.Dur})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, hi time.Duration
	for _, v := range ivs {
		if v.lo > hi {
			covered += v.hi - v.lo
			hi = v.hi
		} else if v.hi > hi {
			covered += v.hi - hi
			hi = v.hi
		}
	}
	if covered > total {
		return 1
	}
	return float64(covered) / float64(total)
}
