package main

import (
	"fmt"
	"sort"
	"time"
)

// windows is how many equal parts a timed phase is cut into; every
// reported value is the median of the per-window values.
const windows = 5

// lateLimitMS is how much the open-loop generator's lateness may grow
// from the first window to the last before the phase counts as a growing
// backlog rather than a steady state.
const lateLimitMS = 10

// phase is the summary of one timed phase under the stability rule.
type phase struct {
	Name                string
	Sent, Failed        int
	PerWindow           int // samples in the smallest window
	Throughput          windowed
	P50, P95, P99       windowed // latency, ms
	LateP99             float64  // generator lateness over the whole phase, ms
	LateFirst, LateLast float64  // p99 lateness of the first and last window, ms
}

// backlogGrew reports an open-loop phase that did not reach a steady
// state: its numbers describe a queue filling up, not the fleet.
func (p phase) backlogGrew() bool { return p.LateLast-p.LateFirst > lateLimitMS }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windowSet is a phase's samples cut into windows; secs[i] is the length
// of window i.
type windowSet struct {
	wins [][]sample
	secs []float64
}

// summarize reduces per-window samples to a phase.
func summarize(name string, ws windowSet) phase {
	wins, secs := ws.wins, ws.secs
	p := phase{Name: name, PerWindow: -1}
	var tput, p50, p95, p99 []float64
	var lateAll []float64
	for i, win := range wins {
		lat := make([]float64, 0, len(win))
		late := make([]float64, 0, len(win))
		for _, s := range win {
			p.Sent++
			if !s.OK {
				p.Failed++
			}
			lat = append(lat, ms(s.latency()))
			late = append(late, ms(s.Sent-s.Due))
		}
		sort.Float64s(lat)
		sort.Float64s(late)
		tput = append(tput, float64(len(win))/secs[i])
		p50 = append(p50, percentile(lat, 50))
		p95 = append(p95, percentile(lat, 95))
		p99 = append(p99, percentile(lat, 99))
		if i == 0 {
			p.LateFirst = percentile(late, 99)
		}
		p.LateLast = percentile(late, 99)
		lateAll = append(lateAll, late...)
		if p.PerWindow < 0 || len(win) < p.PerWindow {
			p.PerWindow = len(win)
		}
	}
	sort.Float64s(lateAll)
	p.LateP99 = percentile(lateAll, 99)
	p.Throughput, p.P50, p.P95, p.P99 = windowMedian(tput), windowMedian(p50), windowMedian(p95), windowMedian(p99)
	return p
}

// timeWindows cuts a phase of length d into equal windows by due time.
func timeWindows(samples []sample, d time.Duration) windowSet {
	wins := make([][]sample, windows)
	secs := make([]float64, windows)
	for i := range secs {
		secs[i] = d.Seconds() / windows
	}
	for _, s := range samples {
		i := min(int(s.Due*windows/d), windows-1)
		wins[i] = append(wins[i], s)
	}
	return windowSet{wins, secs}
}

// cycleWindows groups whole cycles into windows, so every window holds
// the same ops the same number of times (give or take one cycle).
func cycleWindows(cycles [][]sample) windowSet {
	wins := make([][]sample, windows)
	secs := make([]float64, windows)
	for i := range wins {
		for _, c := range cycles[i*len(cycles)/windows : (i+1)*len(cycles)/windows] {
			wins[i] = append(wins[i], c...)
			secs[i] += (c[len(c)-1].Done - c[0].Sent).Seconds()
		}
	}
	return windowSet{wins, secs}
}

func (p phase) String() string {
	s := fmt.Sprintf("%-22s sent=%d failed=%d n/window=%d  %.1f ops/s (iqr %.1f%%)  p50=%.3fms (%.1f%%) p95=%.3fms (%.1f%%) p99=%.3fms (%.1f%%)  late_p99=%.3fms",
		p.Name, p.Sent, p.Failed, p.PerWindow,
		p.Throughput.Value, 100*p.Throughput.Spread,
		p.P50.Value, 100*p.P50.Spread, p.P95.Value, 100*p.P95.Spread, p.P99.Value, 100*p.P99.Spread, p.LateP99)
	if p.backlogGrew() {
		s += fmt.Sprintf("  INVALID: backlog grew (late p99 %.1fms -> %.1fms)", p.LateFirst, p.LateLast)
	}
	return s
}
