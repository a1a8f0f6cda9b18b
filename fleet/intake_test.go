package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"cyclesteal/internal/quant"
)

// e12Tasks is E12's job at setup cost 1: n task durations uniform on the
// grid over [c/2, 4c], drawn from a fixed seed.
func e12Tasks(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	tasks := make([]float64, n)
	for i := range tasks {
		tasks[i] = float64(50+rng.Intn(351)) / 100
	}
	return tasks
}

// E12Tasks lends e12Tasks to the package's external benchmarks.
var E12Tasks = e12Tasks

// intakeSplit is the smallest job dealtJob splits, in two.
const intakeSplit = 2 * minIntakeTasksPerWorker

// intakeDurations draws n durations at setup cost 1 whose hands differ in
// their smallest duration: most lie in [1, 5), and about one in 4,096 in
// [0, 1), down to a single tick.
func intakeDurations(n int) []float64 {
	rng := rand.New(rand.NewSource(int64(n)))
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 + 4*rng.Float64()
		if rng.Intn(4096) == 0 {
			out[i] = rng.Float64()
		}
	}
	return out
}

// A large job's intake splits across the run's workers, and the hands,
// their MinDurs and the total equal the serial intake's: just below, at
// and above the split, at a million tasks, over hand counts that do and do
// not divide the rows, and with more hands than tasks, so that one
// worker's hands are all empty. The serial intake is pinned to task.Deal
// by TestQuantizeDealtMatchesDeal.
func TestSplitIntakeMatchesSerial(t *testing.T) {
	g := quant.Grid{Setup: 1, TicksPerSetup: 100}
	serial := &Fleet{cfg: Config{Workers: 1}, g: g}
	for _, n := range []int{intakeSplit - 1, intakeSplit, intakeSplit + 37, 1000003} {
		durations := intakeDurations(n)
		shapes := []int{64, 63, 3}
		if n == intakeSplit {
			shapes = append(shapes, 2*n+5)
		}
		for _, groups := range shapes {
			want, wantWork, err := serial.dealtJob(durations, groups)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				f := &Fleet{cfg: Config{Workers: workers}, g: g}
				if w := f.intakeWorkers(n, groups); (w > 1) != (n >= intakeSplit) {
					t.Fatalf("n=%d over %d hands at %d workers: the intake runs on %d", n, groups, workers, w)
				}
				got, work, err := f.dealtJob(durations, groups)
				if err != nil {
					t.Fatal(err)
				}
				if work != wantWork {
					t.Errorf("n=%d over %d hands at %d workers: total %d, serial %d", n, groups, workers, work, wantWork)
				}
				if len(got.Dealt) != groups {
					t.Fatalf("n=%d over %d hands at %d workers: %d hands", n, groups, workers, len(got.Dealt))
				}
				for h, wh := range want.Dealt {
					gh := got.Dealt[h]
					if gh.MinDur != wh.MinDur || !slices.Equal(gh.Tasks, wh.Tasks) || cap(gh.Tasks) != len(wh.Tasks) {
						t.Fatalf("n=%d over %d hands at %d workers: hand %d (MinDur %d, %d tasks) differs from the serial hand (MinDur %d, %d tasks)",
							n, groups, workers, h, gh.MinDur, len(gh.Tasks), wh.MinDur, len(wh.Tasks))
					}
				}
			}
		}
	}
}

// A split intake fails with the serial intake's error: a refused duration
// in any worker's range, two refused durations where the later worker
// holds the earlier task, a total that overflows inside one worker's
// range, and one that overflows only once the workers' partial totals
// are added.
func TestSplitIntakeErrorParity(t *testing.T) {
	g := quant.Grid{Setup: 1, TicksPerSetup: 100}
	serial := &Fleet{cfg: Config{Workers: 1}, g: g}
	const n = intakeSplit + 37
	base := intakeDurations(n)
	// huge is 0.6·2^63 ticks: two of them overflow the total, one does not.
	huge := 0.6 * math.MaxInt64 / 100
	for _, groups := range []int{64, 63, 3} {
		rows := n / groups
		// at is the index of a task in row r of hand h.
		at := func(r, h int) int { return r*groups + h }
		for _, workers := range []int{2, 8} {
			f := &Fleet{cfg: Config{Workers: workers}, g: g}
			w := f.intakeWorkers(n, groups)
			if w < 2 {
				t.Fatalf("%d tasks over %d hands at %d workers: no split", n, groups, workers)
			}
			first := func(k int) int { return k * groups / w } // worker k's first hand
			type plant struct {
				name string
				at   []int
				d    []float64
			}
			var cases []plant
			for k := 0; k < w; k++ {
				i := at(rows/2, first(k))
				for _, bad := range []float64{math.NaN(), -1, math.Inf(1), 1e300} {
					cases = append(cases, plant{fmt.Sprintf("%g in worker %d's range", bad, k), []int{i}, []float64{bad}})
				}
			}
			last := first(w - 1)
			cases = append(cases,
				plant{"a late NaN in worker 0 and an early -1 in the last worker", []int{at(rows-1, 0), at(1, last)}, []float64{math.NaN(), -1}},
				plant{"two huge tasks in worker 0", []int{at(3, 0), at(rows-2, 0)}, []float64{huge, huge}},
				plant{"one huge task in worker 0 and one in the last worker", []int{at(rows-2, 0), at(3, last)}, []float64{huge, huge}},
			)
			for _, c := range cases {
				durations := append([]float64(nil), base...)
				for j, i := range c.at {
					durations[i] = c.d[j]
				}
				_, _, want := serial.dealtJob(durations, groups)
				_, _, err := f.dealtJob(durations, groups)
				if want == nil || err == nil || err.Error() != want.Error() {
					t.Errorf("%s, %d hands, %d workers: error %v, serial %v", c.name, groups, workers, err, want)
				}
			}
		}
	}
}

// BenchmarkFleetDealtJob prices a batch run's intake alone: dealtJob of a
// 1,000,000-task E12 job into 64 hands, serial (workers=1) and split over
// two workers (workers=2). Both allocate the same 16 MB of hands; the split
// adds its goroutine, its join and its partial totals.
//
// Before the clock starts, each sub-benchmark runs one intake (the first
// garbage collection starts its workers then), and starts and finishes
// 64·(GOMAXPROCS+1) goroutines, more than the Ps' own free lists keep, so
// the runtime's shared list holds finished goroutines. A timed split then
// reuses one instead of allocating it whenever its P's list is empty, and
// allocs/op reads the same from run to run.
func BenchmarkFleetDealtJob(b *testing.B) {
	durations := e12Tasks(1000000)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			f := &Fleet{cfg: Config{Workers: workers}, g: quant.Grid{Setup: 1, TicksPerSetup: 100}}
			if _, _, err := f.dealtJob(durations, 64); err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			for range 64 * (runtime.GOMAXPROCS(0) + 1) {
				wg.Add(1)
				go wg.Done()
			}
			wg.Wait()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := f.dealtJob(durations, 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
