package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// repeatRuns is the steadiness and repeatability report: it runs the
// workload k times, each in its own process so peak RSS and heap state do
// not carry over, then prints every metric's median, quartiles and spread
// (the interquartile range over the median, the statistic the bounds in
// BENCHMARK.json are held to). Metrics marked exact must read identically
// in every run of one seed; any that differ are flagged, and the report
// exits 3.
func repeatRuns(wl workload, seed int64, seconds, trace int, workdir string, k int, varySeed bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# perfbench repeat workload=%s runs=%d seconds=%d trace=%d vary-seed=%v %s\n",
		wl.name, k, seconds, trace, varySeed, provenance())
	seeds := make([]int64, k)
	results := make([]result, k)
	for i := range results {
		seeds[i] = seed
		if varySeed {
			seeds[i] = seed + int64(i)
		}
		cmd := exec.Command(exe, "--workload", wl.name, "--seed", fmt.Sprint(seeds[i]),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--workdir", workdir)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: run %d: %v\n", i, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &results[i]); err != nil {
			fmt.Fprintf(stderr, "perfbench: run %d: result line: %v\n", i, err)
			return 1
		}
		r := results[i]
		fmt.Fprintf(stdout, "# run %d seed %d: attempted %d, failed %d, correct %v\n", i, seeds[i], r.Attempted, r.Failed, r.Correct)
	}

	var names []string
	units := map[string]string{}
	for _, r := range results {
		for name, m := range r.Metrics {
			if _, ok := units[name]; !ok {
				names = append(names, name)
				units[name] = m.Unit
			}
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-48s %-8s %3s %14s %14s %14s %9s %s\n", "metric", "unit", "n", "median", "q1", "q3", "spread%", "exact")
	status := 0
	attempted, failed := 0, 0
	for _, r := range results {
		attempted += r.Attempted
		failed += r.Failed
	}
	for _, name := range names {
		var vals []float64
		for _, r := range results {
			if m, ok := r.Metrics[name]; ok {
				vals = append(vals, m.Value)
			}
		}
		q1, q3 := quartiles(vals)
		med := median(append([]float64(nil), vals...))
		spread := 0.0
		if med != 0 {
			spread = 100 * (q3 - q1) / med
		}
		exact := ""
		if strings.Contains(name, ".exact.") {
			exact = "same"
			if !sameWithinSeed(name, seeds, results) {
				exact = "DIFFERS"
				status = 3
			}
		}
		fmt.Fprintf(stdout, "%-48s %-8s %3d %14.6g %14.6g %14.6g %9.2f %s\n", name, units[name], len(vals), med, q1, q3, spread, exact)
	}
	share := 0.0
	if attempted > 0 {
		share = 100 * float64(failed) / float64(attempted)
	}
	fmt.Fprintf(stdout, "# ops attempted %d, failed %d (%.2f%%)\n", attempted, failed, share)
	return status
}

// sameWithinSeed reports whether every pair of runs that share a seed read
// the metric identically.
func sameWithinSeed(name string, seeds []int64, results []result) bool {
	first := map[int64]float64{}
	for i, r := range results {
		v := r.Metrics[name].Value
		if prev, ok := first[seeds[i]]; ok && prev != v {
			return false
		}
		first[seeds[i]] = v
	}
	return true
}
