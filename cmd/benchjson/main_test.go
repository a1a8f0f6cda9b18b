package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: cyclesteal/internal/farm
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFarmBagShardedContended-8   	       3	   1716510 ns/op	 1922224 B/op	    9378 allocs/op
BenchmarkFarmBagShardedContended-8   	       3	   1800000 ns/op	 1900000 B/op	    9000 allocs/op
BenchmarkMCEngineSerial-8            	       2	 150000000 ns/op
Benchmarking is fun: this log line must be ignored
PASS
ok  	cyclesteal/internal/farm	2.974s
`

func TestParse(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader(sampleOutput)))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || !strings.Contains(doc.CPU, "Xeon") {
		t.Errorf("metadata: %+v", doc)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want 2", len(doc.Benchmarks))
	}
	sharded := doc.Benchmarks[0]
	if sharded.Name != "BenchmarkFarmBagShardedContended" {
		t.Fatalf("name with -8 suffix not stripped: %q", sharded.Name)
	}
	if sharded.Runs != 2 || sharded.Iterations != 6 {
		t.Errorf("runs/iterations: %d/%d", sharded.Runs, sharded.Iterations)
	}
	if sharded.NsPerOp == nil || sharded.NsPerOp.Min != 1716510 || sharded.NsPerOp.Max != 1800000 {
		t.Errorf("ns/op aggregate: %+v", sharded.NsPerOp)
	}
	if want := (1716510.0 + 1800000.0) / 2; sharded.NsPerOp.Mean != want {
		t.Errorf("ns/op mean %v, want %v", sharded.NsPerOp.Mean, want)
	}
	if sharded.AllocsOp == nil || sharded.AllocsOp.Min != 9000 {
		t.Errorf("allocs aggregate: %+v", sharded.AllocsOp)
	}
	serial := doc.Benchmarks[1]
	if serial.Name != "BenchmarkMCEngineSerial" || serial.BPerOp != nil {
		t.Errorf("no-benchmem run should omit B/op: %+v", serial)
	}
}

func TestParseEmpty(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader("PASS\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Errorf("benchmarks from empty input: %+v", doc.Benchmarks)
	}
}

// --- trend compare -------------------------------------------------------------

func bench(name string, minNs float64) Benchmark {
	return Benchmark{Name: name, Runs: 3, NsPerOp: &Stat{Mean: minNs * 1.1, Min: minNs, Max: minNs * 1.2}}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old := &Document{Commit: "aaa", Benchmarks: []Benchmark{
		bench("BenchmarkFast", 100),
		bench("BenchmarkSlow", 1000),
		bench("BenchmarkGone", 50),
	}}
	doc := &Document{Commit: "bbb", Benchmarks: []Benchmark{
		bench("BenchmarkFast", 110),  // +10%: inside a 15% threshold
		bench("BenchmarkSlow", 1300), // +30%: regression
		bench("BenchmarkNew", 10),    // no baseline: informational
	}}
	report, regressions := compare(old, doc, gates{ns: 15, b: 15})
	if len(regressions) != 1 || regressions[0] != "BenchmarkSlow (ns/op)" {
		t.Fatalf("regressions = %v, want [BenchmarkSlow (ns/op)]", regressions)
	}
	joined := strings.Join(report, "\n")
	for _, want := range []string{"REGRESSION", "new (no baseline)", "removed (was in baseline)", "BenchmarkFast"} {
		if !strings.Contains(joined, want) {
			t.Errorf("report missing %q:\n%s", want, joined)
		}
	}
}

func TestCompareImprovementAndEqualPass(t *testing.T) {
	old := &Document{Benchmarks: []Benchmark{bench("BenchmarkA", 100), bench("BenchmarkB", 200)}}
	doc := &Document{Benchmarks: []Benchmark{bench("BenchmarkA", 60), bench("BenchmarkB", 200)}}
	if _, regressions := compare(old, doc, gates{ns: 15, b: 15}); len(regressions) != 0 {
		t.Errorf("improvement flagged as regression: %v", regressions)
	}
}

func TestCompareThresholdBoundary(t *testing.T) {
	old := &Document{Benchmarks: []Benchmark{bench("BenchmarkA", 100)}}
	at := &Document{Benchmarks: []Benchmark{bench("BenchmarkA", 115)}}
	if _, regressions := compare(old, at, gates{ns: 15, b: 15}); len(regressions) != 0 {
		t.Errorf("exactly-at-threshold flagged: %v", regressions)
	}
	over := &Document{Benchmarks: []Benchmark{bench("BenchmarkA", 116)}}
	if _, regressions := compare(old, over, gates{ns: 15, b: 15}); len(regressions) != 1 {
		t.Errorf("over-threshold not flagged: %v", regressions)
	}
}

func TestCompareMissingNsPerOp(t *testing.T) {
	old := &Document{Benchmarks: []Benchmark{{Name: "BenchmarkA", Runs: 1}}}
	doc := &Document{Benchmarks: []Benchmark{bench("BenchmarkA", 10), {Name: "BenchmarkB", Runs: 1}}}
	report, regressions := compare(old, doc, gates{ns: 15, b: 15})
	if len(regressions) != 0 {
		t.Errorf("nil ns/op produced regressions: %v", regressions)
	}
	if len(report) < 3 {
		t.Errorf("report too short: %v", report)
	}
}

// benchMem builds a record with all three metric columns.
func benchMem(name string, ns, bPerOp, allocs float64) Benchmark {
	b := bench(name, ns)
	b.BPerOp = &Stat{Mean: bPerOp, Min: bPerOp, Max: bPerOp}
	b.AllocsOp = &Stat{Mean: allocs, Min: allocs, Max: allocs}
	return b
}

// The allocs/op gate is exact: a single extra allocation fails even when
// ns/op and B/op are comfortably inside their thresholds.
func TestCompareAllocsGateIsExact(t *testing.T) {
	old := &Document{Benchmarks: []Benchmark{benchMem("BenchmarkA", 100, 1000, 10)}}
	doc := &Document{Benchmarks: []Benchmark{benchMem("BenchmarkA", 101, 1001, 11)}}
	_, regressions := compare(old, doc, gates{ns: 15, b: 15})
	if len(regressions) != 1 || regressions[0] != "BenchmarkA (allocs/op)" {
		t.Fatalf("regressions = %v, want the exact allocs gate to fire", regressions)
	}
	// Equal allocations pass.
	doc = &Document{Benchmarks: []Benchmark{benchMem("BenchmarkA", 101, 1001, 10)}}
	if _, regressions := compare(old, doc, gates{ns: 15, b: 15}); len(regressions) != 0 {
		t.Errorf("equal allocs flagged: %v", regressions)
	}
	// Fewer allocations pass.
	doc = &Document{Benchmarks: []Benchmark{benchMem("BenchmarkA", 101, 1001, 4)}}
	if _, regressions := compare(old, doc, gates{ns: 15, b: 15}); len(regressions) != 0 {
		t.Errorf("alloc improvement flagged: %v", regressions)
	}
}

// A benchmark that starts goroutines may not repeat its allocation count
// (2841–2856 allocs/op over eight runs of one commit), so the allocs gate
// judges the new min against the baseline's max: a new min inside the
// baseline's own spread passes, one above it fails.
func TestCompareAllocsGateSpreadBaseline(t *testing.T) {
	spread := benchMem("BenchmarkA", 100, 1000, 2841)
	spread.AllocsOp.Max = 2856
	old := &Document{Benchmarks: []Benchmark{spread}}
	inside := &Document{Benchmarks: []Benchmark{benchMem("BenchmarkA", 100, 1000, 2850)}}
	if _, regressions := compare(old, inside, gates{ns: 15, b: 15}); len(regressions) != 0 {
		t.Errorf("new min inside the baseline spread flagged: %v", regressions)
	}
	above := &Document{Benchmarks: []Benchmark{benchMem("BenchmarkA", 100, 1000, 2857)}}
	_, regressions := compare(old, above, gates{ns: 15, b: 15})
	if len(regressions) != 1 || regressions[0] != "BenchmarkA (allocs/op)" {
		t.Errorf("regressions = %v, want the allocs gate to fire above the baseline max", regressions)
	}
}

func TestCompareBPerOpGate(t *testing.T) {
	old := &Document{Benchmarks: []Benchmark{benchMem("BenchmarkA", 100, 1000, 10)}}
	over := &Document{Benchmarks: []Benchmark{benchMem("BenchmarkA", 100, 1160, 10)}}
	_, regressions := compare(old, over, gates{ns: 15, b: 15})
	if len(regressions) != 1 || regressions[0] != "BenchmarkA (B/op)" {
		t.Fatalf("regressions = %v, want the B/op gate to fire at +16%%", regressions)
	}
	at := &Document{Benchmarks: []Benchmark{benchMem("BenchmarkA", 100, 1150, 10)}}
	if _, regressions := compare(old, at, gates{ns: 15, b: 15}); len(regressions) != 0 {
		t.Errorf("exactly-at-threshold B/op flagged: %v", regressions)
	}
}

// An old artifact without -benchmem columns must not fail newly measured
// ones, and vice versa — metric availability changes are informational.
func TestCompareMissingMemColumnsPass(t *testing.T) {
	old := &Document{Benchmarks: []Benchmark{bench("BenchmarkA", 100)}}
	doc := &Document{Benchmarks: []Benchmark{benchMem("BenchmarkA", 100, 1000, 10)}}
	if report, regressions := compare(old, doc, gates{ns: 15, b: 15}); len(regressions) != 0 {
		t.Errorf("new mem columns flagged: %v\n%v", regressions, report)
	}
	if _, regressions := compare(doc, old, gates{ns: 15, b: 15}); len(regressions) != 0 {
		t.Errorf("dropped mem columns flagged: %v", regressions)
	}
}

// --- series mode ---------------------------------------------------------------

func writeSeriesDoc(t *testing.T, dir, commit string, benchmarks []Benchmark) string {
	t.Helper()
	doc := Document{Commit: commit, Benchmarks: benchmarks}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_"+commit+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSeriesTableAndSVG(t *testing.T) {
	dir := t.TempDir()
	p1 := writeSeriesDoc(t, dir, "aaaaaaaaaaaa", []Benchmark{benchMem("BenchmarkFarmRun", 1000, 500, 20)})
	p2 := writeSeriesDoc(t, dir, "bbbbbbbbbbbb", []Benchmark{
		benchMem("BenchmarkFarmRun", 800, 400, 10),
		benchMem("BenchmarkNew", 50, 10, 1),
	})
	svgPath := filepath.Join(dir, "series.svg")
	var out bytes.Buffer
	if err := runSeries([]string{p1, p2}, svgPath, false, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"BenchmarkFarmRun", "aaaaaaaaaa", "bbbbbbbbbb", "-20.0%", "allocs/op"} {
		if !strings.Contains(text, want) {
			t.Errorf("series table missing %q:\n%s", want, text)
		}
	}
	svg, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "polyline", "FarmRun", "</svg>"} {
		if !strings.Contains(string(svg), want) {
			t.Errorf("svg missing %q", want)
		}
	}
}

func TestRunSeriesNoArgs(t *testing.T) {
	if err := runSeries(nil, "", false, io.Discard); err == nil {
		t.Error("series mode accepted zero documents")
	}
}

// A baseline min of 0 is a real measurement — the zero-alloc benchmarks are
// exactly what the allocs gate protects — so regressing away from 0 must
// fail, for the exact gate and the percent gates alike.
func TestCompareZeroBaselineStillGates(t *testing.T) {
	old := &Document{Benchmarks: []Benchmark{benchMem("BenchmarkA", 100, 0, 0)}}
	doc := &Document{Benchmarks: []Benchmark{benchMem("BenchmarkA", 100, 800, 5)}}
	_, regressions := compare(old, doc, gates{ns: 15, b: 15})
	if len(regressions) != 2 {
		t.Fatalf("regressions = %v, want both B/op and allocs/op to fire from a 0 baseline", regressions)
	}
	// Staying at zero passes.
	doc = &Document{Benchmarks: []Benchmark{benchMem("BenchmarkA", 100, 0, 0)}}
	if _, regressions := compare(old, doc, gates{ns: 15, b: 15}); len(regressions) != 0 {
		t.Errorf("zero-to-zero flagged: %v", regressions)
	}
}

// --- absolute (log-scale) series mode -------------------------------------------

func TestSeriesScaleAbsolute(t *testing.T) {
	sc := seriesScale{absolute: true, min: 3, max: 5}
	if v, ok := sc.value(1000, 999999); !ok || v != 3 {
		t.Fatalf("value(1000) = %v, %v; want log10 = 3 ignoring the base", v, ok)
	}
	if _, ok := sc.value(0, 1); ok {
		t.Fatal("non-positive ns/op must be unplottable")
	}
	if got, want := sc.ticks(), []float64{3, 4, 5}; len(got) != len(want) || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("ticks = %v, want integer decades %v", got, want)
	}
	if got := sc.label(4); got != "1e4 ns" {
		t.Fatalf("label(4) = %q", got)
	}
	// The normalized scale is unchanged by the flag's absence.
	n := seriesScale{min: 80, max: 120}
	if v, ok := n.value(800, 1000); !ok || v != 80 {
		t.Fatalf("normalized value = %v, %v", v, ok)
	}
	if got := n.label(100); got != "100%" {
		t.Fatalf("normalized label = %q", got)
	}
}

// TestRunSeriesAbsoluteRenderedScale pins the -absolute chart's geometry:
// benchmarks a decade apart must land equidistant on the y axis (the whole
// point of the log scale), with decade gridline labels present.
func TestRunSeriesAbsoluteRenderedScale(t *testing.T) {
	dir := t.TempDir()
	p1 := writeSeriesDoc(t, dir, "cccccccccccc", []Benchmark{
		bench("BenchmarkCheap", 1000),
		bench("BenchmarkMid", 10000),
		bench("BenchmarkDear", 100000),
	})
	svgPath := filepath.Join(dir, "abs.svg")
	var out bytes.Buffer
	if err := runSeries([]string{p1}, svgPath, true, &out); err != nil {
		t.Fatal(err)
	}
	svg, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(svg)
	for _, want := range []string{"log scale", "1e3 ns", "1e4 ns", "1e5 ns"} {
		if !strings.Contains(text, want) {
			t.Errorf("absolute svg missing %q", want)
		}
	}
	ys := polylineYs(t, text)
	if len(ys) != 3 {
		t.Fatalf("want 3 single-point polylines, got %v", ys)
	}
	// Polylines render in benchmark-name order: Cheap, Dear, Mid. Cheap
	// (1e3) sits at the bottom (max y), Dear (1e5) at the top, and Mid
	// (1e4) exactly halfway — equal decades, equal pixels.
	cheap, dear, mid := ys[0], ys[1], ys[2]
	if !(cheap > mid && mid > dear) {
		t.Fatalf("log ordering violated: cheap %g, mid %g, dear %g", cheap, mid, dear)
	}
	if gap := math.Abs((cheap - mid) - (mid - dear)); gap > 0.2 {
		t.Errorf("a decade is not a constant distance: %g vs %g pixels", cheap-mid, mid-dear)
	}
}

// polylineYs extracts the y coordinate of every single-point polyline.
func polylineYs(t *testing.T, svg string) []float64 {
	t.Helper()
	re := regexp.MustCompile(`<polyline points="[0-9.]+,([0-9.]+)"`)
	var ys []float64
	for _, m := range re.FindAllStringSubmatch(svg, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		ys = append(ys, v)
	}
	return ys
}

// A log range too narrow to contain a whole decade falls back to its
// fractional endpoints; those must be labeled with their true ns value,
// not a rounded decade.
func TestSeriesScaleAbsoluteFractionalTicks(t *testing.T) {
	sc := seriesScale{absolute: true, min: math.Log10(2000), max: math.Log10(8000)}
	ticks := sc.ticks()
	if len(ticks) != 2 || ticks[0] != sc.min || ticks[1] != sc.max {
		t.Fatalf("decade-free range ticks = %v, want the endpoints", ticks)
	}
	if got := sc.label(ticks[0]); got != "2000 ns" {
		t.Fatalf("label(min) = %q, want the true value", got)
	}
	if got := sc.label(ticks[1]); got != "8000 ns" {
		t.Fatalf("label(max) = %q, want the true value", got)
	}
}
