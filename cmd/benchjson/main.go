// Command benchjson converts `go test -bench` text output on stdin into the
// stable JSON document CI archives per commit (BENCH_<sha>.json) — the
// repo's perf trajectory, one artifact per push, diffable across commits.
//
// Repeated runs of the same benchmark (-count > 1) aggregate into
// mean/min/max per metric, so regressions can be judged against min (least
// noisy) while mean shows the typical cost.
//
// With -baseline it becomes the trend gate CI runs per push: the new
// document (a file argument, or stdin) is diffed against the previous
// commit's artifact, a per-benchmark delta table prints, and the exit
// status is non-zero when any benchmark regressed. Three gates apply, all
// judged on min over runs (the noise-resistant series): ns/op beyond
// -threshold percent, B/op beyond -bthreshold percent, and allocs/op above
// the baseline's max. A deterministic benchmark's runs agree (min = max),
// so its allocation count stays gated exactly; a benchmark that starts
// goroutines may vary by a few allocations between runs, and the gate
// forgives a new min inside the baseline's own spread. Benchmarks that only
// exist on one side are reported but never fail the gate, so adding or
// retiring a benchmark doesn't block a PR.
//
// With -series it charts a BENCH_*.json history: the file arguments are
// read in order (oldest first), a per-benchmark trajectory table prints to
// stdout, and -svg writes a line chart suitable for a CI artifact. The
// default chart normalizes each benchmark to its first appearance (100%),
// which makes trends comparable across benchmarks of any cost; -absolute
// instead plots raw ns/op on a log₁₀ scale, which makes the *costs*
// comparable — a decade of vertical distance is a 10× cost gap anywhere on
// the chart.
//
// Usage:
//
//	go test -run='^$' -bench='^(BenchmarkMC|BenchmarkFarm)' -benchmem -count=3 ./... | benchjson -commit "$SHA" > BENCH_$SHA.json
//	benchjson -baseline BENCH_prev.json -threshold 15 -bthreshold 15 BENCH_$SHA.json
//	benchjson -series -svg series.svg BENCH_1.json BENCH_2.json BENCH_3.json
//	benchjson -series -absolute -svg costs.svg BENCH_*.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Stat aggregates one metric over a benchmark's repeated runs.
type Stat struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Benchmark is one benchmark's aggregated record.
type Benchmark struct {
	Name       string `json:"name"`
	Runs       int    `json:"runs"`
	Iterations int64  `json:"iterations"` // summed over runs
	NsPerOp    *Stat  `json:"ns_per_op,omitempty"`
	BPerOp     *Stat  `json:"b_per_op,omitempty"`
	AllocsOp   *Stat  `json:"allocs_per_op,omitempty"`
}

// Document is the archived artifact.
type Document struct {
	Commit     string      `json:"commit,omitempty"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	commit := flag.String("commit", "", "commit SHA recorded in the document")
	baseline := flag.String("baseline", "", "trend mode: previous BENCH_*.json to diff against; the new document is the file argument (or stdin)")
	threshold := flag.Float64("threshold", 15, "trend mode: fail when a benchmark's ns/op (min over runs) regresses by more than this percent")
	bthreshold := flag.Float64("bthreshold", 15, "trend mode: fail when a benchmark's B/op (min over runs) regresses by more than this percent; allocs/op fails above the baseline's max over runs")
	series := flag.Bool("series", false, "series mode: chart the BENCH_*.json file arguments (oldest first) as a per-benchmark trajectory")
	svg := flag.String("svg", "", "series mode: also write an SVG line chart to this path")
	absolute := flag.Bool("absolute", false, "series mode: plot absolute ns/op on a log₁₀ scale instead of normalizing each benchmark to its first appearance")
	flag.Parse()

	if *series {
		if err := runSeries(flag.Args(), *svg, *absolute, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *baseline != "" {
		if err := runCompare(*baseline, flag.Arg(0), gates{ns: *threshold, b: *bthreshold}); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		// Convert mode reads stdin only; a stray file argument is almost
		// always a forgotten -baseline, and silently waiting on stdin (or
		// parsing the wrong input in a pipeline) would hide that.
		fmt.Fprintf(os.Stderr, "benchjson: unexpected argument %q (convert mode reads stdin; did you mean -baseline?)\n", flag.Arg(0))
		os.Exit(1)
	}

	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	doc.Commit = *commit
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// gates holds the trend thresholds: ns/op and B/op in percent (min over
// runs); allocs/op is gated against the baseline's max and needs no knob.
type gates struct {
	ns, b float64
}

// runCompare loads the two documents and fails on over-threshold
// regressions.
func runCompare(baselinePath, newPath string, g gates) error {
	old, err := readDoc(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	doc, err := readDoc(newPath)
	if err != nil {
		return fmt.Errorf("new document: %w", err)
	}
	report, regressions := compare(old, doc, g)
	for _, line := range report {
		fmt.Println(line)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d metric regression(s) vs %s (>%g%% ns/op, >%g%% B/op, allocs/op above baseline max): %s",
			len(regressions), labelOf(old), g.ns, g.b, strings.Join(regressions, ", "))
	}
	return nil
}

// readDoc loads a BENCH_*.json document; "" or "-" reads stdin.
func readDoc(path string) (*Document, error) {
	var r io.Reader = os.Stdin
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var doc Document
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", pathLabel(path), err)
	}
	return &doc, nil
}

func pathLabel(path string) string {
	if path == "" || path == "-" {
		return "stdin"
	}
	return path
}

func labelOf(d *Document) string {
	if d.Commit != "" {
		return d.Commit
	}
	return "baseline"
}

// compare diffs new against old benchmark by benchmark and returns the
// human-readable report plus the regressed metrics, all judged on min over
// runs (the noise-resistant series): ns/op and B/op against their percent
// thresholds, allocs/op against the baseline's max — exact for a
// deterministic benchmark, whose runs agree. Benchmarks or metrics present
// on only one side are informational.
func compare(old, doc *Document, g gates) (report, regressions []string) {
	prev := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		prev[b.Name] = b
	}
	report = append(report, fmt.Sprintf(
		"benchmark trend vs %s (min over runs; fail >%+.0f%% ns/op, >%+.0f%% B/op, allocs/op > baseline max):",
		labelOf(old), g.ns, g.b))
	seen := make(map[string]bool, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		seen[b.Name] = true
		base, ok := prev[b.Name]
		if !ok {
			report = append(report, fmt.Sprintf("  %-44s new (no baseline)", b.Name))
			continue
		}
		line := fmt.Sprintf("  %-44s", b.Name)
		ns, nsBad := gateMetric(base.NsPerOp, b.NsPerOp, "ns/op", g.ns, false)
		bOp, bBad := gateMetric(base.BPerOp, b.BPerOp, "B/op", g.b, false)
		al, alBad := gateMetric(base.AllocsOp, b.AllocsOp, "allocs/op", 0, true)
		report = append(report, line+ns+bOp+al)
		if nsBad {
			regressions = append(regressions, b.Name+" (ns/op)")
		}
		if bBad {
			regressions = append(regressions, b.Name+" (B/op)")
		}
		if alBad {
			regressions = append(regressions, b.Name+" (allocs/op)")
		}
	}
	for _, b := range old.Benchmarks {
		if !seen[b.Name] {
			report = append(report, fmt.Sprintf("  %-44s removed (was in baseline)", b.Name))
		}
	}
	return report, regressions
}

// gateMetric formats one metric's delta column and reports whether it
// regressed. With byMax set (allocs/op) the new min fails only above the
// baseline's max: a deterministic benchmark's runs agree (min = max), so
// any increase fails, while a benchmark that starts goroutines and varies
// by a few allocations between runs is judged against its own spread.
// Otherwise the threshold is a percent of the baseline min. A baseline min
// of 0 is a real measurement, not a missing one — zero-alloc benchmarks are
// exactly what the allocs gate protects — so a rise from it fails like any
// other (a percent of zero is undefined either way). Metrics missing on
// either side never fail (a benchmark gaining -benchmem columns, or an old
// artifact predating them, must not block a PR).
func gateMetric(base, cur *Stat, unit string, threshold float64, byMax bool) (col string, bad bool) {
	switch {
	case base == nil && cur == nil:
		return "", false
	case base == nil:
		return fmt.Sprintf("  %s: new %.0f", unit, cur.Min), false
	case cur == nil:
		return fmt.Sprintf("  %s: dropped (was %.0f)", unit, base.Min), false
	}
	verdict := "ok"
	if base.Min > 0 {
		delta := 100 * (cur.Min - base.Min) / base.Min
		if byMax && cur.Min > base.Max || !byMax && delta > threshold {
			verdict = "REGRESSION"
			bad = true
		}
		return fmt.Sprintf("  %s: %.0f → %.0f (%+.1f%%) %s", unit, base.Min, cur.Min, delta, verdict), bad
	}
	if cur.Min > 0 && (!byMax || cur.Min > base.Max) {
		verdict = "REGRESSION"
		bad = true
	}
	return fmt.Sprintf("  %s: 0 → %.0f %s", unit, cur.Min, verdict), bad
}

// sample is one parsed benchmark output line.
type sample struct {
	iterations int64
	metrics    map[string]float64 // unit → value
}

// parse consumes `go test -bench` output. Benchmark result lines look like
//
//	BenchmarkName-8   	 100	 12345 ns/op	 67 B/op	 8 allocs/op
//
// everything else (pkg headers, PASS/ok, log lines) is metadata or noise.
func parse(sc *bufio.Scanner) (*Document, error) {
	doc := &Document{}
	runs := map[string][]sample{}
	var order []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		// Strip the -GOMAXPROCS suffix so artifacts compare across runners.
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a log line that happens to start with "Benchmark"
		}
		s := sample{iterations: iters, metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value %q in line %q", fields[i], line)
			}
			s.metrics[fields[i+1]] = v
		}
		if _, seen := runs[name]; !seen {
			order = append(order, name)
		}
		runs[name] = append(runs[name], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	sort.Strings(order)
	for _, name := range order {
		b := Benchmark{Name: name, Runs: len(runs[name])}
		for _, s := range runs[name] {
			b.Iterations += s.iterations
		}
		b.NsPerOp = aggregate(runs[name], "ns/op")
		b.BPerOp = aggregate(runs[name], "B/op")
		b.AllocsOp = aggregate(runs[name], "allocs/op")
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	return doc, nil
}

// aggregate folds one unit's values across runs; nil when no run reported it.
func aggregate(samples []sample, unit string) *Stat {
	var st *Stat
	n := 0
	for _, s := range samples {
		v, ok := s.metrics[unit]
		if !ok {
			continue
		}
		if st == nil {
			st = &Stat{Mean: 0, Min: v, Max: v}
		}
		st.Mean += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		n++
	}
	if st != nil {
		st.Mean /= float64(n)
	}
	return st
}

// --- series mode ---------------------------------------------------------------

// seriesPoint is one benchmark's measurement at one history document.
type seriesPoint struct {
	doc    int // index into the document sequence — the x axis
	commit string
	ns     *Stat
	b      *Stat
	allocs *Stat
}

// runSeries loads an ordered BENCH_*.json history and renders the
// per-benchmark trajectory: a text table on w, and optionally an SVG line
// chart (ns/op min — normalized to each benchmark's first appearance, or
// absolute on a log scale).
func runSeries(paths []string, svgPath string, absolute bool, w io.Writer) error {
	if len(paths) < 1 {
		return fmt.Errorf("series mode needs at least one BENCH_*.json argument")
	}
	var commits []string
	series := map[string][]seriesPoint{} // benchmark → one point per document it appears in
	var order []string
	for di, path := range paths {
		doc, err := readDoc(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		label := doc.Commit
		if label == "" {
			label = path
		}
		label = shortLabel(label)
		commits = append(commits, label)
		for _, b := range doc.Benchmarks {
			if _, ok := series[b.Name]; !ok {
				order = append(order, b.Name)
			}
			series[b.Name] = append(series[b.Name], seriesPoint{doc: di, commit: label, ns: b.NsPerOp, b: b.BPerOp, allocs: b.AllocsOp})
		}
	}
	sort.Strings(order)

	fmt.Fprintf(w, "benchmark series over %d document(s) (min over runs):\n", len(paths))
	for _, name := range order {
		fmt.Fprintf(w, "%s\n", name)
		var prevNs float64
		for _, pt := range series[name] {
			line := fmt.Sprintf("  %-12s", pt.commit)
			if pt.ns != nil {
				line += fmt.Sprintf(" %14.0f ns/op", pt.ns.Min)
				if prevNs > 0 {
					line += fmt.Sprintf("  %+6.1f%%", 100*(pt.ns.Min-prevNs)/prevNs)
				} else {
					line += strings.Repeat(" ", 9)
				}
				prevNs = pt.ns.Min
			}
			if pt.b != nil {
				line += fmt.Sprintf("  %12.0f B/op", pt.b.Min)
			}
			if pt.allocs != nil {
				line += fmt.Sprintf("  %9.0f allocs/op", pt.allocs.Min)
			}
			fmt.Fprintln(w, line)
		}
	}

	if svgPath != "" {
		f, err := os.Create(svgPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := writeSeriesSVG(f, commits, order, series, absolute); err != nil {
			return err
		}
		fmt.Fprintf(w, "SVG chart written to %s\n", svgPath)
	}
	return nil
}

// shortLabel trims a full SHA down to the conventional 10 characters.
func shortLabel(s string) string {
	if len(s) > 10 {
		return s[:10]
	}
	return s
}

// svgPalette cycles per benchmark line.
var svgPalette = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
	"#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
}

// seriesScale maps a benchmark measurement onto the chart's y dimension.
// The normalized scale plots 100·ns/first-appearance — trends comparable
// across benchmarks of any cost; the absolute scale plots log₁₀(ns/op) with
// decade gridlines — costs comparable across benchmarks, readable even when
// the cheapest and dearest differ by orders of magnitude.
type seriesScale struct {
	absolute bool
	min, max float64 // plotted-value range (percent, or log₁₀ ns)
}

// value maps one ns/op measurement (with its benchmark's first appearance)
// onto the scale; ok is false for unplottable inputs.
func (sc seriesScale) value(ns, base float64) (v float64, ok bool) {
	if sc.absolute {
		if ns <= 0 {
			return 0, false
		}
		return math.Log10(ns), true
	}
	if base <= 0 {
		return 0, false
	}
	return 100 * ns / base, true
}

// ticks returns the gridline positions: thirds of the range when
// normalized, integer decades (clamped to at least the range ends) when
// absolute.
func (sc seriesScale) ticks() []float64 {
	if !sc.absolute {
		return []float64{sc.min, (sc.min + sc.max) / 2, sc.max}
	}
	var out []float64
	for d := math.Ceil(sc.min); d <= math.Floor(sc.max)+1e-9; d++ {
		out = append(out, d)
	}
	if len(out) == 0 {
		out = []float64{sc.min, sc.max}
	}
	return out
}

// label renders one tick's axis label. Absolute ticks are usually whole
// decades ("1e4 ns"), but a range too narrow to contain one falls back to
// its fractional endpoints, which must label their true value — rounding
// 10^3.9 up to "1e4 ns" would misstate the axis by 2.5×.
func (sc seriesScale) label(v float64) string {
	if sc.absolute {
		if v == math.Round(v) {
			return fmt.Sprintf("1e%.0f ns", v)
		}
		return fmt.Sprintf("%.0f ns", math.Pow(10, v))
	}
	return fmt.Sprintf("%.0f%%", v)
}

// title is the chart heading.
func (sc seriesScale) title() string {
	if sc.absolute {
		return "ns/op, log scale (min over runs)"
	}
	return "ns/op trend, normalized to first appearance = 100% (min over runs)"
}

// writeSeriesSVG renders the history as a dependency-free line chart: one
// polyline per benchmark over the chosen scale. The x axis is commit order,
// oldest left.
func writeSeriesSVG(w io.Writer, commits, order []string, series map[string][]seriesPoint, absolute bool) error {
	const (
		width, height           = 960, 480
		left, right, top, botto = 70, 250, 30, 50
	)
	plotW := float64(width - left - right)
	plotH := float64(height - top - botto)

	// Map every point onto the scale and find the global range.
	sc := seriesScale{absolute: absolute}
	norm := map[string][]float64{} // aligned with series[name]'s point order
	first := true
	for _, name := range order {
		var base float64
		for _, pt := range series[name] {
			if pt.ns == nil {
				norm[name] = append(norm[name], math.NaN())
				continue
			}
			if base == 0 {
				base = pt.ns.Min
			}
			v, ok := sc.value(pt.ns.Min, base)
			if !ok {
				norm[name] = append(norm[name], math.NaN())
				continue
			}
			norm[name] = append(norm[name], v)
			if first || v < sc.min {
				sc.min = v
			}
			if first || v > sc.max {
				sc.max = v
			}
			first = false
		}
	}
	if first {
		sc.min, sc.max = 0, 1 // nothing plottable; render an empty frame
	}
	if sc.max == sc.min {
		sc.max = sc.min + 1
	}
	x := func(i int) float64 {
		if len(commits) == 1 {
			return float64(left) + plotW/2
		}
		return float64(left) + plotW*float64(i)/float64(len(commits)-1)
	}
	y := func(v float64) float64 {
		return float64(top) + plotH*(1-(v-sc.min)/(sc.max-sc.min))
	}

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, height)
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(w, `<text x="%d" y="18" font-size="13">%s</text>`+"\n", left, sc.title())
	// Axes and horizontal guides.
	for _, v := range sc.ticks() {
		fmt.Fprintf(w, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n", left, y(v), width-right, y(v))
		fmt.Fprintf(w, `<text x="4" y="%.1f">%s</text>`+"\n", y(v)+4, sc.label(v))
	}
	// Commit ticks.
	for i, c := range commits {
		fmt.Fprintf(w, `<text x="%.1f" y="%d" transform="rotate(45 %.1f %d)">%s</text>`+"\n",
			x(i), height-botto+14, x(i), height-botto+14, c)
	}
	// One polyline + legend row per benchmark.
	for bi, name := range order {
		color := svgPalette[bi%len(svgPalette)]
		var pts []string
		for pi, pt := range series[name] {
			v := norm[name][pi]
			if math.IsNaN(v) {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x(pt.doc), y(v)))
		}
		if len(pts) > 0 {
			fmt.Fprintf(w, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n",
				strings.Join(pts, " "), color)
		}
		ly := top + 14*bi
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n", width-right+10, ly, color)
		fmt.Fprintf(w, `<text x="%d" y="%d">%s</text>`+"\n", width-right+24, ly+9, strings.TrimPrefix(name, "Benchmark"))
	}
	fmt.Fprintln(w, `</svg>`)
	return nil
}
