// Command bench is the repository's end-to-end benchmark: it boots a
// router and two replicas in this process over loopback TCP, drives one
// of four workloads through the router, checks the answers against an
// uncached engine, and prints every metric by name with its unit. The
// last line of standard output is one JSON object with the result.
// README.md in this directory describes workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	var (
		name   = flag.String("workload", "", "workload to run: warm-point, cold-adhoc, batch-ensemble or write-mix (empty: each of them, in its own child process)")
		seed   = flag.Int64("seed", 1, "seed of the op schedule")
		secs   = flag.Float64("seconds", 15, "length of the timed part of a run")
		trace  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
		short  = flag.Bool("short", false, "small graph, for smoke runs")
		out    = flag.String("out", ".bench_out", "directory a traced run writes trace-<workload>.json to")
		repeat = flag.Int("repeat", 0, "run each workload N times (seed, seed+1, …) in child processes and print median, quartiles and spread per metric")
		check  = flag.Bool("check", false, "like -repeat (default 5), then compare with bench/baseline.json under the bounds of BENCHMARK.json; exit 1 on a regression")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if *check || *repeat > 0 || *name == "" {
		os.Exit(repeatRuns(*name, *seed, *secs, *short, *trace, *repeat, *check))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	fmt.Printf("bench commit=%s %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g workload=%s trace=%d\n",
		commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), *seed, *secs, w.Name, *trace)
	cfg := config{workload: w, seed: *seed, seconds: *secs, short: *short, out: *out}
	run := runTimed
	if *trace == 1 {
		run = runTraced
	}
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct || rep.Failed > 0 {
		os.Exit(1)
	}
}

// commit is the VCS revision stamped into the binary, when there is one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
