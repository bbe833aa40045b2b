package main

import (
	"context"
	"path/filepath"

	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/snapshot"
	"hetesim/internal/wal"
)

// primary is the benchmark's own copy of what a write changes on the
// primary replica: the graph, the two engines (Server.Precompute warms
// the normalized one only) and the log. apply runs the sequence the
// server's write handler runs, as direct calls with a span around each.
type primary struct {
	g         *hin.Graph
	norm, raw *core.Engine
	log       *wal.Log
	opts      []core.Option
}

func newPrimary(g *hin.Graph, w workload, norm *core.Engine, dir, name string) (*primary, error) {
	log, _, err := wal.Open(snapshot.OS{}, filepath.Join(dir, name), g.Fingerprint())
	if err != nil {
		return nil, err
	}
	return &primary{g: g, norm: norm, log: log, opts: w.engineOptions(),
		raw: core.NewEngine(g, append(w.engineOptions(), core.WithNormalization(false))...)}, nil
}

// writeTimes are the d4 spans of one applied batch, in milliseconds.
type writeTimes struct {
	Append, Apply, Rewarm, Fingerprint []float64
	Rows                               []float64 // chain rows patched by the rewarm
}

// apply takes one batch through validate, log, apply, rewarm of both
// engines and fingerprint — handleMutate's order — and appends the timings.
func (p *primary) apply(tr *tracer, opID, parent int, o *op, wt *writeTimes) error {
	ctx := context.Background()
	if _, _, err := p.g.Apply(o.Ops); err != nil {
		return err
	}
	var err error
	t, _ := tr.timed("d4 wal.Append", opID, parent, func() { _, err = p.log.Append(o.Key, o.Ops) })
	if err != nil {
		return err
	}
	wt.Append = append(wt.Append, ms(t))
	var ng *hin.Graph
	var dirty *hin.Dirty
	t, _ = tr.timed("d4 hin.Apply", opID, parent, func() { ng, dirty, err = p.g.Apply(o.Ops) })
	if err != nil {
		return err
	}
	wt.Apply = append(wt.Apply, ms(t))
	norm := core.NewEngine(ng, p.opts...)
	raw := core.NewEngine(ng, append(p.opts, core.WithNormalization(false))...)
	var st core.RewarmStats
	t, _ = tr.timed("d4 core.RewarmFrom", opID, parent, func() { st, err = norm.RewarmFrom(ctx, p.norm, dirty) })
	if err != nil {
		return err
	}
	wt.Rewarm = append(wt.Rewarm, ms(t))
	wt.Rows = append(wt.Rows, float64(st.Rows))
	if _, err = raw.RewarmFrom(ctx, p.raw, dirty); err != nil {
		return err
	}
	t, _ = tr.timed("d4 hin.Fingerprint", opID, parent, func() { ng.Fingerprint() })
	wt.Fingerprint = append(wt.Fingerprint, ms(t))
	p.g, p.norm, p.raw = ng, norm, raw
	return nil
}
