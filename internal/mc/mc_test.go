package mc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cyclesteal/internal/stats"
)

// summariesEqual demands bit-identical floating-point fields.
func summariesEqual(a, b stats.Summary) bool {
	return a.N == b.N && a.Mean == b.Mean && a.Std == b.Std &&
		a.Min == b.Min && a.Max == b.Max && a.Median == b.Median &&
		a.SE == b.SE && a.CI95Lo == b.CI95Lo && a.CI95Hi == b.CI95Hi
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	fn := func(rng *rand.Rand) (float64, error) {
		// A workload whose value depends on the whole stream, so any seed
		// or ordering slip shows up immediately.
		v := 0.0
		for i := 0; i < 10; i++ {
			v += rng.NormFloat64()
		}
		return v, nil
	}
	base, err := Run(context.Background(), Config{Trials: 1000, Seed: 42, Workers: 1}, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64, 0} {
		got, err := Run(context.Background(), Config{Trials: 1000, Seed: 42, Workers: workers}, fn)
		if err != nil {
			t.Fatal(err)
		}
		if !summariesEqual(base, got) {
			t.Errorf("workers=%d: summary diverged\n  w1: %+v\n  got: %+v", workers, base, got)
		}
	}
}

func TestRunSeedStreamContract(t *testing.T) {
	// Trial i must see exactly rand.New(rand.NewSource(seed+i)).
	const seed, trials = 99, 257
	want := make([]float64, trials)
	for i := range want {
		want[i] = rand.New(rand.NewSource(seed + int64(i))).Float64()
	}
	sum, err := Run(context.Background(), Config{Trials: trials, Seed: seed, Workers: 8}, func(rng *rand.Rand) (float64, error) {
		return rng.Float64(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := stats.Summarize(want)
	if sum.N != trials {
		t.Fatalf("n=%d want %d", sum.N, trials)
	}
	if math.Abs(sum.Mean-ref.Mean) > 1e-12 || sum.Min != ref.Min || sum.Max != ref.Max {
		t.Errorf("summary does not match the promised per-trial streams:\n  got %+v\n  want %+v", sum, ref)
	}
}

// TestRunReseedsWorkerSource cycles each worker's trials through 0, 1, 300
// and 700 draws — none, short of, across and past the point where the lazy
// source builds its register — and checks every trial's draws against
// rand.NewSource(seed+i). A trial identifies its i by its first draw. Each
// drawing trial ends with a 3-byte Read, which leaves 4 bytes buffered: the
// next trial's Read must not see them.
func TestRunReseedsWorkerSource(t *testing.T) {
	const seed, trials = 7, 400
	bySeed := make(map[int64]int64, trials) // first draw → seed+i
	for i := int64(0); i < trials; i++ {
		bySeed[rand.New(rand.NewSource(seed+i)).Int63()] = seed + i
	}
	draws := []int{0, 1, 300, 700}
	for _, workers := range []int{1, 8} {
		var mu sync.Mutex
		checked, silent := make(map[int64]bool), 0
		newState := func() any { return new(int) } // the worker's trials so far
		_, err := RunState(context.Background(), Config{Trials: trials, Seed: seed, Workers: workers}, newState,
			func(rng *rand.Rand, state any) (float64, error) {
				n := state.(*int)
				k := draws[*n%len(draws)]
				*n++
				if k == 0 {
					mu.Lock()
					silent++
					mu.Unlock()
					return 0, nil
				}
				first := rng.Int63()
				s, ok := bySeed[first]
				if !ok {
					return 0, fmt.Errorf("first draw %d starts no trial's stream", first)
				}
				ref := rand.New(rand.NewSource(s))
				ref.Int63()
				for d := 1; d < k; d++ {
					if got, want := rng.Int63(), ref.Int63(); got != want {
						return 0, fmt.Errorf("seed %d: draw %d = %d, want %d", s, d, got, want)
					}
				}
				got, want := make([]byte, 3), make([]byte, 3)
				rng.Read(got)
				ref.Read(want)
				if !bytes.Equal(got, want) {
					return 0, fmt.Errorf("seed %d: Read after %d draws = %x, want %x", s, k, got, want)
				}
				mu.Lock()
				defer mu.Unlock()
				if checked[s] {
					return 0, fmt.Errorf("seed %d's stream drawn twice", s)
				}
				checked[s] = true
				return float64(k), nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(checked)+silent != trials || silent == 0 {
			t.Errorf("workers=%d: %d streams checked and %d trials drew nothing, want %d in all with some of each", workers, len(checked), silent, trials)
		}
	}
}

func TestRunPrefixStability(t *testing.T) {
	// Widening a study keeps the old trials: min over 100 trials can only
	// go down (never change) when trials grows to 300 with the same seed.
	fn := func(rng *rand.Rand) (float64, error) { return rng.ExpFloat64(), nil }
	small, err := Run(context.Background(), Config{Trials: 100, Seed: 5, Workers: 4}, fn)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(context.Background(), Config{Trials: 300, Seed: 5, Workers: 4}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if big.Min > small.Min {
		t.Errorf("prefix not stable: min rose from %v to %v when widening", small.Min, big.Min)
	}
	if big.Max < small.Max {
		t.Errorf("prefix not stable: max fell from %v to %v when widening", small.Max, big.Max)
	}
}

func TestRunVecMultiMetric(t *testing.T) {
	sums, err := RunVec(context.Background(), Config{Trials: 500, Seed: 3, Workers: 8}, 2, func(rng *rand.Rand) ([]float64, error) {
		x := rng.Float64()
		return []float64{x, 2 * x}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("want 2 summaries, got %d", len(sums))
	}
	if math.Abs(sums[1].Mean-2*sums[0].Mean) > 1e-12 {
		t.Errorf("metric coupling lost: %v vs 2×%v", sums[1].Mean, sums[0].Mean)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(context.Background(), Config{Trials: 0, Seed: 1}, func(*rand.Rand) (float64, error) { return 0, nil }); err == nil {
		t.Error("trials=0 accepted")
	}
	if _, err := RunVec(context.Background(), Config{Trials: 1, Seed: 1}, 0, func(*rand.Rand) ([]float64, error) { return nil, nil }); err == nil {
		t.Error("metrics=0 accepted")
	}
	boom := errors.New("boom")
	_, err := Run(context.Background(), Config{Trials: 100, Seed: 1, Workers: 8}, func(rng *rand.Rand) (float64, error) {
		if rng.Float64() < 0.5 {
			return 0, boom
		}
		return 1, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("trial error not propagated: %v", err)
	}
	// Deterministic first-error selection: the reported trial index must be
	// the same at every worker count.
	failAt := func(workers int) string {
		_, err := Run(context.Background(), Config{Trials: 200, Seed: 17, Workers: workers}, func(rng *rand.Rand) (float64, error) {
			if rng.Float64() < 0.10 {
				return 0, boom
			}
			return 1, nil
		})
		if err == nil {
			t.Fatal("expected failure")
		}
		return err.Error()
	}
	if a, b := failAt(1), failAt(8); a != b {
		t.Errorf("error not deterministic: %q vs %q", a, b)
	}
}

func TestRunVecLengthMismatch(t *testing.T) {
	_, err := RunVec(context.Background(), Config{Trials: 10, Seed: 1, Workers: 2}, 3, func(rng *rand.Rand) ([]float64, error) {
		return []float64{1}, nil
	})
	if err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestRunFewTrialsManyWorkers(t *testing.T) {
	sum, err := Run(context.Background(), Config{Trials: 3, Seed: 1, Workers: 64}, func(rng *rand.Rand) (float64, error) {
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 3 || sum.Mean != 1 {
		t.Errorf("got %+v", sum)
	}
}

func ExampleRun() {
	// Estimate E[max(Z,0)] for a standard normal Z with 10k deterministic
	// trials; the answer is 1/√(2π) ≈ 0.3989.
	sum, err := Run(context.Background(), Config{Trials: 10000, Seed: 1}, func(rng *rand.Rand) (float64, error) {
		return math.Max(rng.NormFloat64(), 0), nil
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("mean ≈ %.2f\n", sum.Mean)
	// Output: mean ≈ 0.40
}

func TestSplitWorkers(t *testing.T) {
	cases := []struct {
		budget, outerCap, outer, inner int
	}{
		{8, 64, 8, 1},  // trials dwarf the budget: all parallelism goes outer
		{8, 3, 3, 2},   // few trials: leftover budget multiplies inward
		{1, 64, 1, 1},  // serial stays serial at both levels
		{16, 1, 1, 16}, // one trial: everything goes inner
		{0, 4, -1, -1}, // budget 0 = GOMAXPROCS; just check bounds
	}
	for _, c := range cases {
		outer, inner := SplitWorkers(c.budget, c.outerCap)
		if outer < 1 || inner < 1 {
			t.Errorf("SplitWorkers(%d,%d) = (%d,%d): levels must be ≥ 1", c.budget, c.outerCap, outer, inner)
		}
		if c.outer > 0 && (outer != c.outer || inner != c.inner) {
			t.Errorf("SplitWorkers(%d,%d) = (%d,%d), want (%d,%d)", c.budget, c.outerCap, outer, inner, c.outer, c.inner)
		}
	}
	if outer, inner := SplitWorkers(5, 0); outer != 1 || inner != 5 {
		t.Errorf("outerCap 0: got (%d,%d), want (1,5)", outer, inner)
	}
}

func TestSplitConfig(t *testing.T) {
	// Few trials: the outer pool is bounded by the trial count, the rest of
	// the budget multiplies inward. Seed and Trials pass through untouched.
	cfg, inner := SplitConfig(Config{Trials: 3, Seed: 7, Workers: 8})
	if cfg.Workers != 3 || inner != 2 {
		t.Errorf("few trials: outer=%d inner=%d, want 3/2", cfg.Workers, inner)
	}
	if cfg.Trials != 3 || cfg.Seed != 7 {
		t.Errorf("trials/seed mangled: %+v", cfg)
	}
	// Many trials: the outer pool caps at the Shards partition — trial
	// parallelism beyond it cannot exist.
	cfg, inner = SplitConfig(Config{Trials: 10 * Shards, Workers: 2 * Shards})
	if cfg.Workers != Shards || inner != 2 {
		t.Errorf("many trials: outer=%d inner=%d, want %d/2", cfg.Workers, inner, Shards)
	}
}

// Summaries now expose sketch-backed tail quantiles; they must obey the
// seed-stream contract like every other field.
func TestRunTailQuantilesDeterministic(t *testing.T) {
	run := func(workers int) stats.Summary {
		sum, err := Run(context.Background(), Config{Trials: 3000, Seed: 11, Workers: workers}, func(rng *rand.Rand) (float64, error) {
			return rng.ExpFloat64(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b := run(1), run(8)
	if a.Median != b.Median || a.P90 != b.P90 || a.P99 != b.P99 {
		t.Errorf("tail quantiles depend on workers: %+v vs %+v", a, b)
	}
	if !(a.Median < a.P90 && a.P90 < a.P99 && a.P99 <= a.Max) {
		t.Errorf("tail ordering violated: med=%v p90=%v p99=%v max=%v", a.Median, a.P90, a.P99, a.Max)
	}
}

func TestProgressObserver(t *testing.T) {
	var mu sync.Mutex
	var snaps [][2]int
	cfg := Config{
		Trials: 25, Seed: 3, Workers: 4,
		ProgressInterval: time.Millisecond,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			snaps = append(snaps, [2]int{done, total})
		},
	}
	sum, err := Run(context.Background(), cfg, func(rng *rand.Rand) (float64, error) {
		time.Sleep(time.Millisecond)
		return rng.Float64(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 25 {
		t.Fatalf("summary N = %d, want 25", sum.N)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("observer emitted nothing")
	}
	last := snaps[len(snaps)-1]
	if last != [2]int{25, 25} {
		t.Errorf("final snapshot %v, want [25 25]", last)
	}
	prev := -1
	for _, s := range snaps {
		if s[1] != 25 {
			t.Errorf("snapshot total %d, want 25", s[1])
		}
		if s[0] < prev {
			t.Errorf("done count went backwards: %v", snaps)
			break
		}
		prev = s[0]
	}
}

func TestProgressObserverFinalSnapshotOnError(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	cfg := Config{
		Trials: 10, Seed: 1, Workers: 2,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
		},
	}
	_, err := Run(context.Background(), cfg, func(rng *rand.Rand) (float64, error) {
		return 0, errors.New("boom")
	})
	if err == nil {
		t.Fatal("trial error swallowed")
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Error("failed run emitted no final snapshot")
	}
}

// TestProgressObserverFinalSnapshotOnCancel pins the shutdown contract a
// resident service relies on: a cancelled study still emits one final
// snapshot — carrying however many trials completed — and never calls the
// observer again after Run returns.
func TestProgressObserverFinalSnapshotOnCancel(t *testing.T) {
	var mu sync.Mutex
	var snaps [][2]int
	returned := false
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Trials: 10000, Seed: 7, Workers: 4,
		ProgressInterval: time.Hour, // only the final snapshot can fire
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if returned {
				t.Error("observer called after Run returned")
			}
			snaps = append(snaps, [2]int{done, total})
		},
	}
	var once sync.Once
	_, err := Run(ctx, cfg, func(rng *rand.Rand) (float64, error) {
		once.Do(cancel) // cancel from inside the study: some trials are done
		return rng.Float64(), nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	returned = true
	if len(snaps) == 0 {
		t.Fatal("cancelled run emitted no final snapshot")
	}
	last := snaps[len(snaps)-1]
	if last[1] != 10000 {
		t.Errorf("final snapshot total %d, want 10000", last[1])
	}
	if last[0] < 1 || last[0] > 10000 {
		t.Errorf("final snapshot done %d outside [1, 10000]", last[0])
	}
}

// vecFn is the multi-metric workload the shard-subset tests replicate: the
// value depends on the whole rng stream so any seed or ordering slip shows.
func vecFn(rng *rand.Rand) ([]float64, error) {
	v := 0.0
	for i := 0; i < 8; i++ {
		v += rng.NormFloat64()
	}
	return []float64{v, v * v, float64(rng.Intn(100))}, nil
}

func TestShardTrials(t *testing.T) {
	for _, trials := range []int{1, 63, 64, 65, 1000, 1001} {
		total := 0
		for s := 0; s < Shards; s++ {
			n := ShardTrials(trials, s)
			want := 0
			for i := s; i < trials; i += Shards {
				want++
			}
			if n != want {
				t.Fatalf("ShardTrials(%d, %d) = %d, want %d", trials, s, n, want)
			}
			total += n
		}
		if total != trials {
			t.Fatalf("trials=%d: shard trial counts sum to %d", trials, total)
		}
	}
	if ShardTrials(100, -1) != 0 || ShardTrials(100, Shards) != 0 || ShardTrials(0, 0) != 0 {
		t.Fatal("out-of-range arguments must yield 0")
	}
}

// TestRunVecShardsPartitionedMerge is the distributed-replication contract:
// any partition of the shard space into subsets — run separately, merged in
// any arrival order — reproduces the single-process summaries bit for bit.
func TestRunVecShardsPartitionedMerge(t *testing.T) {
	cfg := Config{Trials: 777, Seed: 11, Workers: 4}
	want, err := RunVec(context.Background(), cfg, 3, vecFn)
	if err != nil {
		t.Fatal(err)
	}

	for _, parts := range []int{1, 3, 4, 64} {
		var collected []ShardAccums
		// Deal shards round-robin across parts subsets, then run the subsets
		// in reverse order so arrival order ≠ shard order.
		subsets := make([][]int, parts)
		for s := 0; s < Shards; s++ {
			subsets[s%parts] = append(subsets[s%parts], s)
		}
		for p := parts - 1; p >= 0; p-- {
			accs, err := RunVecShards(context.Background(), cfg, 3, nil,
				func(rng *rand.Rand, _ any) ([]float64, error) { return vecFn(rng) }, subsets[p])
			if err != nil {
				t.Fatal(err)
			}
			collected = append(collected, accs...)
		}
		got, err := MergeShards(3, collected)
		if err != nil {
			t.Fatal(err)
		}
		for m := range want {
			if !summariesEqual(want[m], got[m]) || want[m].P90 != got[m].P90 || want[m].P99 != got[m].P99 {
				t.Errorf("parts=%d metric %d: merged summary diverged\n want %+v\n  got %+v", parts, m, want[m], got[m])
			}
		}
	}
}

func TestRunVecShardsValidation(t *testing.T) {
	fn := func(rng *rand.Rand, _ any) ([]float64, error) { return []float64{1}, nil }
	cfg := Config{Trials: 10, Seed: 1}
	if _, err := RunVecShards(context.Background(), cfg, 1, nil, fn, nil); err == nil {
		t.Error("empty shard list accepted")
	}
	if _, err := RunVecShards(context.Background(), cfg, 1, nil, fn, []int{Shards}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := RunVecShards(context.Background(), cfg, 1, nil, fn, []int{3, 3}); err == nil {
		t.Error("duplicate shard accepted")
	}
}

func TestMergeShardsValidation(t *testing.T) {
	cfg := Config{Trials: 100, Seed: 5, Workers: 2}
	all := make([]int, Shards)
	for s := range all {
		all[s] = s
	}
	accs, err := RunVecShards(context.Background(), cfg, 1, nil,
		func(rng *rand.Rand, _ any) ([]float64, error) { return []float64{rng.Float64()}, nil }, all)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(1, accs[:Shards-1]); err == nil {
		t.Error("incomplete cover accepted")
	}
	dup := append(append([]ShardAccums(nil), accs[:Shards-1]...), accs[0])
	if _, err := MergeShards(1, dup); err == nil {
		t.Error("duplicated shard accepted")
	}
	if _, err := MergeShards(2, accs); err == nil {
		t.Error("metric-count mismatch accepted")
	}
	broken := append([]ShardAccums(nil), accs...)
	broken[7] = ShardAccums{Shard: 7, Accums: []*stats.Accumulator{nil}}
	if _, err := MergeShards(1, broken); err == nil {
		t.Error("nil accumulator accepted")
	}
	if _, err := MergeShards(1, accs); err != nil {
		t.Errorf("pristine cover rejected: %v", err)
	}
}

// TestRunVecShardsSubsetProgress pins the observer contract on subsets: the
// final snapshot reports exactly the subset's trial share.
func TestRunVecShardsSubsetProgress(t *testing.T) {
	var mu sync.Mutex
	var lastDone, lastTotal int
	cfg := Config{
		Trials: 500, Seed: 3, Workers: 2,
		Progress:         func(done, total int) { mu.Lock(); lastDone, lastTotal = done, total; mu.Unlock() },
		ProgressInterval: time.Hour, // only the final snapshot fires
	}
	subset := []int{0, 5, 63}
	want := 0
	for _, s := range subset {
		want += ShardTrials(cfg.Trials, s)
	}
	if _, err := RunVecShards(context.Background(), cfg, 1, nil,
		func(rng *rand.Rand, _ any) ([]float64, error) { return []float64{1}, nil }, subset); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if lastDone != want || lastTotal != want {
		t.Fatalf("final subset snapshot = (%d, %d), want (%d, %d)", lastDone, lastTotal, want, want)
	}
}

// TestRunVecShardsErrorSelection pins deterministic error reporting within a
// subset: the lowest-numbered failing trial of the subset wins.
func TestRunVecShardsErrorSelection(t *testing.T) {
	cfg := Config{Trials: 200, Seed: 1, Workers: 8}
	fail := func(rng *rand.Rand, _ any) ([]float64, error) {
		return nil, errors.New("boom")
	}
	_, err := RunVecShards(context.Background(), cfg, 1, nil, fail, []int{9, 2, 40})
	if err == nil || err.Error() != "mc: trial 2: boom" {
		t.Fatalf("got error %v, want mc: trial 2: boom", err)
	}
}
