// Command perfbench is the repository's benchmark. It drives the cyclesteal
// stack through its public packages (cyclesteal, cyclesteal/fleet and
// cyclesteal/distrib) on four fixed-work workloads and prints one JSON result
// line:
//
//	perfbench --workload study --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the workload twice, untraced and then traced, and reports the per-layer
// metrics, including the tracing overhead. With --repeat k it runs k
// separate processes of the same workload and prints each metric's median,
// quartiles and spread. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// commit is stamped by run.sh from git, when the tree is a git checkout.
var commit = "unknown"

// setupReps is how many times each workload builds its program objects and
// runs its discarded warm-up; setup_s reports the median.
const setupReps = 7

// warmupSeed seeds every warm-up. It does not depend on --seed, so set-up
// does the same work for every run seed and setup_s does not vary with it.
const warmupSeed = 7

// workers is every worker count the benchmark passes: the reference
// machine's nproc, fixed so results do not depend on the machine's.
const workers = 2

// rssSegments is how many segments a run's ops are cut into for peak RSS.
// Each segment's peak is measured on its own and peak_rss_mb is their
// median, so a single unlucky collection does not set a small heap's peak.
const rssSegments = 10

// params are one run's settings.
type params struct {
	seed    int64
	seconds int
	workdir string
}

// outcome is one pass over a workload's ops.
type outcome struct {
	setups    []time.Duration // each set-up repetition: build plus warm-up
	latencies []time.Duration // one per completed op
	busy      time.Duration   // wall time inside op windows
	rss       []float64       // peak RSS of each segment, MiB
	attempted int
	failed    int
	problems  []string           // why ops failed (the first 20)
	layer     map[string]float64 // per-layer metrics; traced passes only
}

// fail records a failed op.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// segmentRSS is called before op i of n, and with i == n after the last:
// at each segment boundary it records the peak RSS since the previous
// boundary and resets the kernel's mark.
func (o *outcome) segmentRSS(i, n int) {
	if i%((n+rssSegments-1)/rssSegments) != 0 && i != n {
		return
	}
	if i > 0 {
		o.rss = append(o.rss, peakRSSMB())
	}
	if i < n {
		resetPeakRSS()
	}
}

// opsPerSecond is ops attempted per second spent inside op windows.
func (o *outcome) opsPerSecond() float64 {
	if o.busy <= 0 {
		return 0
	}
	return float64(o.attempted) / o.busy.Seconds()
}

// workload is one benchmark workload. run makes every input from p.seed
// before its clock starts and does the same work on every run; tr is nil on
// untraced passes.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, p params, tr *tracer) (*outcome, error)
}

// The why strings match BENCHMARK.json.
var workloads = []workload{
	{"study", "16-trial replication cell of the E12 fleet over 2 in-process distrib workers: the only path through mc, stats, fleet.Study and distrib", runStudy},
	{"serve", "resident Service under a closed loop of 2 tenants with churn, adaptive checkpoints and a fsync'd WAL: the only path through admission, the event log and the WAL", runServe},
	{"batch", "fleet.Run of a 1M-task job on 10k stations: the only path through the live goroutine-per-station engine, the yardstick a Core-only fleet.Run must meet", runBatch},
	{"opportunity", "root Engine at p=2: exact game solve, two schedule evaluations, 500 simulations: the only path through internal/game and the buffer-less simulator", runOpportunity},
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome, printed as the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: study, serve, batch or opportunity")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 15, "run length on the reference machine; sets the fixed op count")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: untraced and traced passes, per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for WAL files and the span dump")
	repeat := fs.Int("repeat", 0, "run the workload this many times as separate processes and report the spread")
	varySeed := fs.Bool("vary-seed", false, "with --repeat, run i uses seed+i instead of the same seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want study, serve, batch or opportunity)\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds ≥ 1, --trace 0 or 1, --repeat ≥ 0")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *repeat > 0 {
		return repeatRuns(wl, *seed, *seconds, *trace, *workdir, *repeat, *varySeed, stdout, stderr)
	}
	p := params{seed: *seed, seconds: *seconds, workdir: *workdir}
	res, err := measure(context.Background(), wl, p, *trace, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func lookup(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// specFile is the benchmark's definition, read from the repository root,
// where run.sh runs the program. A traced run reports every per-layer
// metric it lists.
const specFile = "BENCHMARK.json"

// metricDef is one per-layer metric of specFile.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func perLayerMetrics() ([]metricDef, error) {
	raw, err := os.ReadFile(specFile)
	if err != nil {
		return nil, err
	}
	var spec struct {
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return spec.PerLayer, nil
}

// measure runs one workload and assembles its result, printing a readable
// report first.
func measure(ctx context.Context, wl workload, p params, trace int, w io.Writer) (result, error) {
	var perLayer []metricDef
	if trace == 1 {
		var err error
		if perLayer, err = perLayerMetrics(); err != nil {
			return result{}, err
		}
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%d %s\n", wl.name, p.seed, p.seconds, trace, provenance())
	fmt.Fprintf(w, "# why: %s\n", wl.why)
	o, err := wl.run(ctx, p, nil)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	var rows []reportRow
	if trace == 0 {
		for _, m := range endToEnd(o) {
			res.Metrics[m.name] = metricValue{m.value, m.unit}
			rows = append(rows, m)
		}
	} else {
		tr := newTracer()
		to, err := wl.run(ctx, p, tr)
		if err != nil {
			return result{}, err
		}
		path := filepath.Join(p.workdir, "spans-"+wl.name+".jsonl")
		if err := tr.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(w, "# %d spans written to %s\n", tr.len(), path)
		untraced, tracedRate := o.opsPerSecond(), to.opsPerSecond()
		to.layer[wl.name+".trace.overhead_pct"] = 100 * (untraced - tracedRate) / untraced
		fmt.Fprintf(w, "# ops_per_s untraced %.4g, traced %.4g\n", untraced, tracedRate)
		res.Attempted += to.attempted
		res.Failed += to.failed
		o.problems = append(o.problems, to.problems...)
		for _, def := range perLayer {
			v, ok := to.layer[def.Name]
			if !ok && strings.HasPrefix(def.Name, wl.name+".") {
				return result{}, fmt.Errorf("traced pass did not measure %s", def.Name)
			}
			// Metrics of other workloads' layers read 0: this workload
			// spends nothing there.
			res.Metrics[def.Name] = metricValue{v, def.Unit}
			if ok {
				rows = append(rows, reportRow{def.Name, v, def.Unit, 0})
			}
		}
	}
	res.Correct = res.Failed == 0
	printReport(w, rows, res)
	for _, pr := range o.problems {
		fmt.Fprintf(w, "# problem: %s\n", pr)
	}
	return res, nil
}

// reportRow is one metric line of the readable report.
type reportRow struct {
	name    string
	value   float64
	unit    string
	samples int // 0: not a sampled statistic
}

// endToEnd derives the end-to-end metrics from an untraced pass.
func endToEnd(o *outcome) []reportRow {
	lat := ms(o.latencies)
	sort.Float64s(lat)
	setups := ms(o.setups)
	rss := append([]float64(nil), o.rss...)
	return []reportRow{
		{"setup_s", median(setups) / 1000, "s", len(setups)},
		{"ops_per_s", o.opsPerSecond(), "1/s", o.attempted},
		{"op_p50_ms", quantile(lat, 0.5), "ms", len(lat)},
		{"op_p90_ms", quantile(lat, 0.9), "ms", len(lat)},
		{"peak_rss_mb", median(rss), "MB", len(rss)},
	}
}

func printReport(w io.Writer, rows []reportRow, res result) {
	fmt.Fprintf(w, "%-48s %14s %-8s %s\n", "metric", "value", "unit", "samples")
	for _, r := range rows {
		n := "-"
		if r.samples > 0 {
			n = fmt.Sprint(r.samples)
		}
		fmt.Fprintf(w, "%-48s %14.6g %-8s %s\n", r.name, r.value, r.unit, n)
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "# ops attempted %d, failed %d (%.2f%%), correct %v\n", res.Attempted, res.Failed, 100*share, res.Correct)
}

// provenance names the machine and build a result came from.
func provenance() string {
	return fmt.Sprintf("commit=%s go=%s nproc=%d gomaxprocs=%d", commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// minOps is the fewest timed ops a run performs, so op_p90_ms always has at
// least ten samples beyond it.
const minOps = 100

// opCount is the fixed number of ops a run performs: the reference
// machine's rate times the requested run length, and at least minOps. It
// never depends on how fast this run goes.
func opCount(seconds int, perSecond float64) int {
	return max(minOps, int(math.Round(float64(seconds)*perSecond)))
}

// timeSetups builds a workload setupReps times, timing each build
// (including its warm-up), and returns the last build for the timed ops.
func timeSetups[T any](o *outcome, build func() (T, error)) (T, error) {
	var last T
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		b, err := build()
		if err != nil {
			return last, err
		}
		o.setups = append(o.setups, time.Since(start))
		last = b
	}
	return last, nil
}
