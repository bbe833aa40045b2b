package main

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// counters is one scrape of the public /metrics endpoint: every sample
// line, keyed by its full "name{labels}" text.
type counters map[string]float64

// scrape reads the router's /metrics. All fleet members live in this
// process and share one registry, so the numbers are fleet-wide sums. It
// also reports how long the scrape took.
func scrape(base string) (counters, time.Duration, error) {
	t := time.Now()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	c, err := parseMetrics(resp.Body)
	return c, time.Since(t), err
}

func parseMetrics(r io.Reader) (counters, error) {
	c := counters{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		c[line[:i]] = v
	}
	return c, sc.Err()
}

// sum adds every sample of the named metric whose label text contains all
// of the given fragments (e.g. `kind="pair"`).
func (c counters) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range c {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta is after.sum − before.sum for one metric.
func delta(before, after counters, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}
