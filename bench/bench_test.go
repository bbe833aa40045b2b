package main

import (
	"bytes"
	"io"
	"math"
	"regexp"
	"testing"

	"hetesim/internal/datagen"
)

func TestPercentileMedianQuartiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {99, 10}, {10, 1}, {100, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("empty input must give NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
	q1, q3 = quartiles([]float64{160, 10, 40, 20, 80})
	if q1 != 15 || q3 != 120 {
		t.Errorf("quartiles = %v, %v, want 15, 120", q1, q3)
	}
	if got := spread([]float64{160, 10, 40, 20, 80}); got != (120.0-15)/40 {
		t.Errorf("spread = %v", got)
	}
}

func TestWindowMedianAndSelfTimes(t *testing.T) {
	w := windowMedian([]float64{10, 12, 11, 50, 9})
	if w.Value != 11 {
		t.Errorf("window median = %v, want 11 (one slow window must not move it)", w.Value)
	}
	self := selfTimes([]float64{100, 250, 90}, []float64{60, 200, 70})
	if self[0] != 40 || self[1] != 50 || self[2] != 20 {
		t.Errorf("selfTimes = %v", self)
	}
	// Layers summed over one band add up to that band's depth-0 mean.
	d0 := make([]float64, 100)
	d1 := make([]float64, 100)
	for i := range d0 {
		d0[i], d1[i] = float64(100+i), float64(40+i/2)
	}
	band := medianBand(d0)
	if len(band) != 20 || band[0] != 40 || band[19] != 59 {
		t.Fatalf("median band = %v", band)
	}
	if got, want := meanAt(selfTimes(d0, d1), band)+meanAt(d1, band), meanAt(d0, band); math.Abs(got-want) > 1e-9 {
		t.Errorf("self times sum to %v, depth 0 is %v", got, want)
	}
	if got := len(medianBand(make([]float64, 8))); got != 8 {
		t.Errorf("a small sample's band is the whole sample, got %d of 8", got)
	}
}

func TestPhaseWindows(t *testing.T) {
	var s []sample
	for i := 0; i < 100; i++ { // one op every 10ms for 1s, 1ms each
		at := seconds(float64(i) / 100)
		s = append(s, sample{Due: at, Sent: at, Done: at + seconds(0.001), OK: i != 7})
	}
	p := summarize("x", timeWindows(s, seconds(1)))
	if p.Sent != 100 || p.Failed != 1 || p.PerWindow != 20 {
		t.Errorf("sent %d failed %d per-window %d", p.Sent, p.Failed, p.PerWindow)
	}
	if math.Abs(p.Throughput.Value-100) > 1e-9 || math.Abs(p.P50.Value-1) > 1e-9 {
		t.Errorf("throughput %v p50 %v", p.Throughput.Value, p.P50.Value)
	}
	if p.backlogGrew() {
		t.Error("no lateness, no backlog")
	}
}

func TestScheduleFromSeed(t *testing.T) {
	ds, err := datagen.ACM(acmConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	schedules := map[string]func(seed int64) []op{
		"point":    func(seed int64) []op { return newGen(g, seed).pointMix(200) },
		"cold":     func(seed int64) []op { return newGen(g, seed).coldCycle() },
		"ensemble": func(seed int64) []op { return newGen(g, seed).ensembleMix(20) },
		"writes":   func(seed int64) []op { return newWriteGen(g, seed, "w", 0).batches(50) },
	}
	for name, mk := range schedules {
		a, b, c := scheduleBytes(mk(7)), scheduleBytes(mk(7)), scheduleBytes(mk(8))
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed must give a byte-identical schedule", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: another seed must give another schedule", name)
		}
	}
	// Every generated write batch applies to the graph the ones before it left.
	cur := g
	for i, o := range newWriteGen(g, 3, "w", 0).batches(200) {
		next, _, err := cur.Apply(o.Ops)
		if err != nil {
			t.Fatalf("write batch %d does not apply: %v", i, err)
		}
		cur = next
	}
}

func TestBenchmarkJSONNamesMatchCode(t *testing.T) {
	var sp spec
	if err := readJSON("../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || !name.MatchString(w.Name) {
			t.Errorf("workload %d: %q/%q in BENCHMARK.json, %q/%q in the code", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	match := func(kind string, listed []metricSpec, emitted map[string]string) {
		if len(listed) != len(emitted) {
			t.Errorf("%s: %d metrics listed, %d emitted", kind, len(listed), len(emitted))
		}
		for _, m := range listed {
			if unit, ok := emitted[m.Name]; !ok || unit != m.Unit || !name.MatchString(m.Name) {
				t.Errorf("%s metric %q (%s): the code emits unit %q (known: %v)", kind, m.Name, m.Unit, unit, ok)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %q: better = %q", kind, m.Name, m.Better)
			}
		}
	}
	match("end_to_end", sp.EndToEnd, endToEnd)
	match("per_layer", sp.PerLayer, layerMetrics)
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end metric %q: bound %v", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs every workload briefly on the small graph: no failed
// request, no wrong answer, every listed metric reported.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		rep, err := runTimed(config{workload: w, seed: 1, seconds: 0.3, short: true}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.Name, rep.Correct, rep.Failed, rep.Attempted)
		}
		for name := range endToEnd {
			if m, ok := rep.Metrics[name]; !ok || !(m.Value > 0) {
				t.Errorf("%s: %s = %v (reported: %v)", w.Name, name, m.Value, ok)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	w, _ := workloadByName("write-mix")
	var out bytes.Buffer
	rep, err := runTraced(config{workload: w, seed: 1, seconds: 0.3, short: true, out: t.TempDir()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Errorf("correct=%v failed=%d\n%s", rep.Correct, rep.Failed, out.String())
	}
	for name := range layerMetrics {
		if m, ok := rep.Metrics[name]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v (reported: %v)", name, m.Value, ok)
		}
	}
}
