package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json (at the repository root) that the
// gate and the tests read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// baseline is bench/baseline.json: the medians recorded at the commit
// that last measured them, by workload and metric, plus the per-layer
// table of one traced run per workload.
type baseline struct {
	Commit   string                        `json:"commit"`
	Note     string                        `json:"note"`
	Rates    map[string]float64            `json:"rates"`
	EndToEnd map[string]map[string]float64 `json:"end_to_end"`
	PerLayer map[string]map[string]float64 `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// childRun runs one workload once in a child process (this binary) and
// returns its result line. With show, the child's own lines are passed
// through.
func childRun(workload string, seed int64, secs float64, short bool, trace int, show bool) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
	if short {
		args = append(args, "-short")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if show {
		os.Stdout.Write(out)
	}
	var rep report
	if jerr := json.Unmarshal(lines[len(lines)-1], &rep); jerr != nil {
		return rep, fmt.Errorf("%s: no result line (%v, exit: %v)", workload, jerr, err)
	}
	return rep, err
}

// repeatRuns is the all-workloads / -repeat / -check mode: every run is a
// child process, so no run inherits heap, caches or counters from another.
// Run i uses seed+i — another schedule each time, the way the acceptance
// rule measures spread. It returns the process exit code.
func repeatRuns(only string, seed int64, secs float64, short bool, trace, n int, check bool) int {
	var sp spec
	var base baseline
	if check {
		if err := readJSON("BENCHMARK.json", &sp); err != nil {
			fmt.Fprintln(os.Stderr, "bench: -check runs from the repository root:", err)
			return 2
		}
		if err := readJSON("bench/baseline.json", &base); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if n == 0 {
			n = 5
		}
		trace = 0
	}
	if n == 0 {
		n = 1
	}
	code := 0
	for _, w := range workloads {
		if only != "" && only != w.Name {
			continue
		}
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < n; i++ {
			rep, err := childRun(w.Name, seed+int64(i), secs, short, trace, n == 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
				continue
			}
			for name, m := range rep.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		if n == 1 {
			continue // the child printed every metric itself
		}
		for _, name := range sortedKeys(values) {
			v := values[name]
			q1, q3 := quartiles(v)
			line := fmt.Sprintf("%-15s %-18s median=%-12.6g q1=%-12.6g q3=%-12.6g spread=%5.1f%% %s (n=%d)",
				w.Name, name, median(v), q1, q3, 100*spread(v), units[name], len(v))
			if check {
				verdict := judge(sp, base, w.Name, name, v)
				line += "  " + verdict
				if strings.HasPrefix(verdict, "regressed") {
					code = 1
				}
			}
			fmt.Println(line)
		}
	}
	return code
}

// judge compares fresh values of one (metric, workload) with the baseline
// under the metric's bound: ok, regressed, or unresolved when the runs'
// own spread is wider than the bound.
func judge(sp spec, base baseline, workload, name string, v []float64) string {
	var ms *metricSpec
	for i := range sp.EndToEnd {
		if sp.EndToEnd[i].Name == name {
			ms = &sp.EndToEnd[i]
		}
	}
	was, ok := base.EndToEnd[workload][name]
	if ms == nil || !ok {
		return "no baseline"
	}
	worse := (median(v) - was) / was
	if ms.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse <= ms.Bound:
		return fmt.Sprintf("ok (%+.1f%% vs baseline %.6g, bound %.0f%%)", 100*worse, was, 100*ms.Bound)
	case len(v) >= 2 && !math.IsNaN(spread(v)) && spread(v) > ms.Bound:
		return fmt.Sprintf("unresolved (%+.1f%% worse, but spread exceeds the %.0f%% bound)", 100*worse, 100*ms.Bound)
	default:
		return fmt.Sprintf("regressed (%+.1f%% worse than baseline %.6g, bound %.0f%%)", 100*worse, was, 100*ms.Bound)
	}
}
