// Command benchjson converts `go test -bench` text output on stdin into a
// JSON benchmark baseline on stdout, so benchmark numbers can be committed
// and diffed across changes (make bench-json writes BENCH_core.json).
//
// Usage:
//
//	go test -run '^$' -bench 'Table|Fig' -benchmem . | benchjson > BENCH_core.json
//
// Each benchmark line becomes an object with ns/op, and when -benchmem was
// on, B/op and allocs/op; units a benchmark reports with b.ReportMetric
// (e.g. ms/cycle) go into its "metrics" map. Lines that are not benchmark results (the goos/
// goarch preamble, PASS, ok) pass through to stderr so the terminal still
// shows the run's outcome.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`

	Metrics map[string]float64 `json:"metrics,omitempty"` // b.ReportMetric units
}

func main() {
	var results []result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		r, ok := parseLine(line)
		if !ok {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"benchmarks": results}); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkTable1AuthorProfile-8  1766  659087 ns/op  889531 B/op  568 allocs/op
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	name, procs := splitProcs(fields[0])
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: name, Procs: procs, Iterations: iters}
	seen := false
	// Values come in "<number> <unit>" pairs after the iteration count.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[fields[i+1]] = v
		}
	}
	return r, seen
}

// splitProcs separates the -N GOMAXPROCS suffix from a benchmark name.
func splitProcs(s string) (string, int) {
	i := strings.LastIndex(s, "-")
	if i < 0 {
		return s, 1
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return s, 1
	}
	return s[:i], n
}
