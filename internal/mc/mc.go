// Package mc is the parallel Monte-Carlo replication engine behind every
// stochastic experiment: it executes a run closure once per trial across a
// bounded worker pool and streams the results into mergeable summary
// statistics (internal/stats.Accumulator), so memory stays proportional to a
// small fixed shard count rather than the trial count.
//
// # Seed-stream contract
//
// Trial i always draws exactly the stream of rand.New(rand.NewSource(seed+i)),
// where seed is Config.Seed — one independent deterministic stream per
// trial, never a shared source. Each worker goroutine draws those streams
// from one lazyrand.Source that it reseeds before every trial (lazyrand seeds
// in O(1); rand.NewSource fills a 5 KB register per stream), so the
// *rand.Rand a trial receives is valid only during its call. Two consequences
// the rest of the repo relies on:
//
//   - Reproducibility: a (seed, trials) pair names the exact same set of
//     trial executions forever, independent of scheduling. Changing Workers
//     changes only wall-clock time, never a single bit of the summaries.
//   - Extensibility: raising Trials re-runs the same prefix of trials and
//     appends new ones, so studies can be widened without invalidating
//     earlier numbers.
//
// Bit-identical summaries at any worker count are achieved by partitioning
// trials into a fixed number of shards (trial i belongs to shard i mod
// Shards, processed in increasing i within a shard) and merging the shard
// accumulators in shard order. Both the partition and the merge order are
// independent of Workers, and floating-point association is therefore fixed.
//
// The quantile fields of each summary (Median, P90, P99) come from per-shard
// bounded-error sketches (stats.Sketch) pooled by level-wise union, so they
// carry a guaranteed rank-error bound and — unlike the mean — do not even
// depend on the shard merge order.
//
// Trial closures that are themselves parallel (e.g. farm.RunDeterministic)
// compose with the engine through SplitWorkers: the budget splits into an
// outer trial pool and an inner per-trial pool, and because neither level's
// worker count can influence results, the combined two-level pool keeps the
// contract.
//
// Closures run concurrently: a closure may freely use its private *rand.Rand
// during the call, and anything it creates, but shared inputs (schedulers,
// solvers, a farm study's dealt job) must be treated as read-only. Closures
// that want reusable per-goroutine scratch (simulator buffers, queue
// storage) use the per-worker state hook (RunState/RunVecState): the
// engine builds one state value per worker goroutine and hands it to every
// trial that worker runs, so trials can reuse it without any
// synchronization.
//
// # Cancellation
//
// Every entry point takes a context. Cancellation is checked between trials;
// a cancelled run drains its worker pool and returns ctx.Err(). Because the
// shard partition is fixed, whatever summaries a cancelled run had
// accumulated are discarded rather than returned — a partial summary would
// silently depend on scheduling.
package mc

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cyclesteal/internal/lazyrand"
	"cyclesteal/internal/stats"
)

// Shards is the fixed partition width of the trial space. It bounds both
// usable parallelism and resident accumulator memory; 64 comfortably covers
// every machine the experiments target while keeping the per-metric memory
// footprint (64 accumulators × sketch) trivial.
const Shards = 64

// sketchCap is the per-level buffer capacity of each shard's quantile
// sketch (stats.Sketch). Shard sketches merge by level-wise union, so the
// pooled quantiles (Median/P90/P99 in the summaries) carry a guaranteed
// rank-error bound — the sum of the shards' bounds — and are independent of
// the merge order; memory stays O(Shards × sketch size).
const sketchCap = 64

// Config shapes one replication study.
type Config struct {
	Trials  int   // number of trials; must be ≥ 1
	Seed    int64 // base seed; trial i uses Seed+i
	Workers int   // worker pool bound; ≤ 0 means GOMAXPROCS (capped at Shards)
	// Progress, when non-nil, observes the study in flight: every
	// ProgressInterval of wall clock it receives the trials completed so far
	// and the total, plus one final snapshot when the run stops (whatever
	// the outcome). Snapshots are wall-clock driven, so their timing — not
	// their correctness — depends on scheduling; observing never affects
	// summaries. The callback must be fast and must not assume a goroutine.
	Progress func(done, total int)
	// ProgressInterval spaces Progress snapshots; ≤ 0 means
	// DefaultProgressInterval.
	ProgressInterval time.Duration
}

// DefaultProgressInterval spaces progress snapshots when the caller sets a
// Progress observer without an interval.
const DefaultProgressInterval = 200 * time.Millisecond

// observe starts the trials-completed observer, if configured, and returns
// the function that stops it and emits the final snapshot. total is the
// trial count of the run at hand (the whole study, or a shard subset's
// share). The observer reads only the shared completion counter, so it can
// never perturb trials.
func observe(cfg Config, total int, done *atomic.Int64) (stop func()) {
	if cfg.Progress == nil {
		return func() {}
	}
	interval := cfg.ProgressInterval
	if interval <= 0 {
		interval = DefaultProgressInterval
	}
	quit := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
				cfg.Progress(int(done.Load()), total)
			}
		}
	}()
	return func() {
		close(quit)
		<-finished // the observer has quit; no callback races the final one
		cfg.Progress(int(done.Load()), total)
	}
}

// RunFunc is a single-metric trial: it receives the trial's private rng and
// returns the observed value. The rng draws rand.New(rand.NewSource(seed+i))'s
// stream for trial i and is valid only during the call: the worker reseeds it
// for its next trial, so nothing the trial leaves behind may keep it.
type RunFunc func(rng *rand.Rand) (float64, error)

// VecFunc is a multi-metric trial: it returns one value per metric, in a
// fixed order of the caller's choosing. The returned slice must have exactly
// the length the caller declared to RunVec.
type VecFunc func(rng *rand.Rand) ([]float64, error)

// StateFunc is a single-metric trial with per-worker state: state is the
// value NewState built for the worker goroutine running the trial, owned by
// that goroutine for the duration of the call. Trials from several shards
// may share one state (a worker drains shard after shard), so state must be
// pure scratch, never shard-keyed. The rng is RunFunc's: trial i's stream,
// valid only during the call, so state must not keep it either.
type StateFunc func(rng *rand.Rand, state any) (float64, error)

// VecStateFunc is a multi-metric trial with per-worker state (see
// StateFunc for the sharing contract).
type VecStateFunc func(rng *rand.Rand, state any) ([]float64, error)

// NewState builds one worker goroutine's reusable trial state. It is
// invoked lazily, at most once per worker, before the worker's first trial;
// the value is then passed to every trial that worker runs (its shards are
// processed in increasing trial order within each shard). Because the state
// never leaves its goroutine it needs no synchronization — this is the hook
// that lets replication studies thread warm scratch through their trials:
// sim.Buffers for the allocation-free opportunity path, and a farm study's
// group-queue storage, which every trial refills and plays. State must
// never influence results (scratch only): the seed-stream contract pins
// the summaries regardless of how trials are grouped onto workers.
type NewState func() any

// Run replicates a single-metric trial and returns its summary.
func Run(ctx context.Context, cfg Config, fn RunFunc) (stats.Summary, error) {
	return RunState(ctx, cfg, nil, func(rng *rand.Rand, _ any) (float64, error) {
		return fn(rng)
	})
}

// RunState is Run with the per-worker state hook; newState may be nil.
func RunState(ctx context.Context, cfg Config, newState NewState, fn StateFunc) (stats.Summary, error) {
	sums, err := RunVecState(ctx, cfg, 1, newState, func(rng *rand.Rand, state any) ([]float64, error) {
		v, err := fn(rng, state)
		return []float64{v}, err
	})
	if err != nil {
		return stats.Summary{}, err
	}
	return sums[0], nil
}

// RunVec replicates a multi-metric trial and returns one summary per metric,
// in the closure's metric order. On failure the reported error is the one
// from the lowest-numbered failing trial — like the summaries, a pure
// function of (Seed, Trials), independent of Workers. Each shard stops at
// its own first error; the others run to completion (errors signal contract
// violations and are fatal, so the extra work on the failure path is not
// worth giving up deterministic reporting for). A cancelled context is the
// exception: every shard stops at its next trial boundary and the run
// returns ctx.Err().
func RunVec(ctx context.Context, cfg Config, metrics int, fn VecFunc) ([]stats.Summary, error) {
	return RunVecState(ctx, cfg, metrics, nil, func(rng *rand.Rand, _ any) ([]float64, error) {
		return fn(rng)
	})
}

// RunVecState is RunVec with the per-worker state hook; newState may be nil.
func RunVecState(ctx context.Context, cfg Config, metrics int, newState NewState, fn VecStateFunc) ([]stats.Summary, error) {
	all := make([]int, Shards)
	for s := range all {
		all[s] = s
	}
	shards, err := runShardSubset(ctx, cfg, metrics, newState, fn, all)
	if err != nil {
		return nil, err
	}
	return MergeShards(metrics, shards)
}

// ShardAccums is one shard's partial study: the per-metric accumulators
// built from exactly the trials i ≡ Shard (mod Shards), in increasing i.
// Because that set and order are pure functions of (Seed, Trials, Shard), a
// shard's accumulators are bit-identical wherever they are computed — the
// property the distributed replication layer ships across processes.
type ShardAccums struct {
	Shard  int
	Accums []*stats.Accumulator // one per metric, in the study's metric order
}

// ShardTrials returns how many of a study's trials land in one shard of the
// fixed partition (0 for out-of-range arguments).
func ShardTrials(trials, shard int) int {
	if shard < 0 || shard >= Shards || shard >= trials {
		return 0
	}
	return (trials-shard-1)/Shards + 1
}

// RunVecShards runs just the named shards of the study — the same trials,
// seeds, and accumulation order those shards get inside RunVecState — and
// returns their partial accumulators instead of merged summaries. A
// complete cover of [0, Shards) fed to MergeShards reproduces RunVecState
// bit for bit, no matter how the shards were grouped into subsets or where
// each subset ran. Shard IDs must be in range and free of duplicates (a
// duplicated shard would double-count its trials in any merge).
//
// Progress, when configured, observes the subset: done counts the subset's
// completed trials and total is the subset's trial share, so a coordinator
// can sum worker reports into study-level progress.
func RunVecShards(ctx context.Context, cfg Config, metrics int, newState NewState, fn VecStateFunc, shardIDs []int) ([]ShardAccums, error) {
	if len(shardIDs) == 0 {
		return nil, fmt.Errorf("mc: no shards requested")
	}
	var seen [Shards]bool
	for _, s := range shardIDs {
		if s < 0 || s >= Shards {
			return nil, fmt.Errorf("mc: shard %d out of range [0, %d)", s, Shards)
		}
		if seen[s] {
			return nil, fmt.Errorf("mc: shard %d requested twice; a duplicate would double-count its trials", s)
		}
		seen[s] = true
	}
	return runShardSubset(ctx, cfg, metrics, newState, fn, shardIDs)
}

// runShardSubset is the engine core: it executes the trials of the given
// shards (validated by the caller) on the worker pool and returns one
// partial accumulator set per shard, in the order requested.
func runShardSubset(ctx context.Context, cfg Config, metrics int, newState NewState, fn VecStateFunc, shardIDs []int) ([]ShardAccums, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("mc: trials must be ≥ 1, got %d", cfg.Trials)
	}
	if metrics < 1 {
		return nil, fmt.Errorf("mc: metrics must be ≥ 1, got %d", metrics)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(shardIDs) {
		workers = len(shardIDs)
	}

	total := 0
	for _, s := range shardIDs {
		total += ShardTrials(cfg.Trials, s)
	}

	type shardState struct {
		accs  []*stats.Accumulator
		err   error
		trial int // trial index of err, for deterministic first-error selection
	}
	shards := make([]shardState, len(shardIDs))

	var done atomic.Int64
	stopObserver := observe(cfg, total, &done)

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var state any
			stateBuilt := false
			var rng *rand.Rand
			for j := range jobs {
				s := shardIDs[j]
				st := &shards[j]
				st.accs = make([]*stats.Accumulator, metrics)
				for m := range st.accs {
					st.accs[m] = stats.NewAccumulator(sketchCap)
				}
				for i := s; i < cfg.Trials; i += Shards {
					if err := ctx.Err(); err != nil {
						st.err = err
						st.trial = i
						break
					}
					if newState != nil && !stateBuilt {
						// One state per worker goroutine, built lazily before
						// its first trial and reused across every shard the
						// goroutine drains — scratch ownership follows the
						// goroutine, which is what makes it race-free.
						state = newState()
						stateBuilt = true
					}
					if rng == nil {
						// Like the state, built at the worker's first trial:
						// workers left without trials allocate nothing.
						rng = lazyrand.New(0)
					}
					rng.Seed(cfg.Seed + int64(i)) // also drops Read's buffered bytes
					vals, err := fn(rng, state)
					if err == nil && len(vals) != metrics {
						err = fmt.Errorf("mc: trial %d returned %d metrics, want %d", i, len(vals), metrics)
					}
					if err != nil {
						st.err = fmt.Errorf("mc: trial %d: %w", i, err)
						st.trial = i
						break
					}
					for m, v := range vals {
						st.accs[m].Add(v)
					}
					done.Add(1)
				}
			}
		}()
	}
	for j := range shardIDs {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	stopObserver()

	// Cancellation trumps trial errors: which trials got far enough to fail
	// depends on scheduling once the context fires, so the only
	// deterministic report is the cancellation itself.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var first error
	firstTrial := -1
	for j := range shards {
		if shards[j].err != nil && (firstTrial < 0 || shards[j].trial < firstTrial) {
			first, firstTrial = shards[j].err, shards[j].trial
		}
	}
	if first != nil {
		return nil, first
	}

	out := make([]ShardAccums, len(shardIDs))
	for j, s := range shardIDs {
		out[j] = ShardAccums{Shard: s, Accums: shards[j].accs}
	}
	return out, nil
}

// MergeShards folds a complete cover of shard accumulators — every shard in
// [0, Shards) exactly once, in any order, from any mix of sources — into
// per-metric summaries. The merge always walks shard index order, so the
// result is independent of the order shards arrive in and bit-identical to
// the single-process RunVecState for the same study.
func MergeShards(metrics int, shards []ShardAccums) ([]stats.Summary, error) {
	if metrics < 1 {
		return nil, fmt.Errorf("mc: metrics must be ≥ 1, got %d", metrics)
	}
	if len(shards) != Shards {
		return nil, fmt.Errorf("mc: merge needs all %d shards, got %d", Shards, len(shards))
	}
	byShard := make([]*ShardAccums, Shards)
	for i := range shards {
		sh := &shards[i]
		if sh.Shard < 0 || sh.Shard >= Shards {
			return nil, fmt.Errorf("mc: shard %d out of range [0, %d)", sh.Shard, Shards)
		}
		if byShard[sh.Shard] != nil {
			return nil, fmt.Errorf("mc: shard %d present twice in the merge set", sh.Shard)
		}
		if len(sh.Accums) != metrics {
			return nil, fmt.Errorf("mc: shard %d carries %d metrics, want %d", sh.Shard, len(sh.Accums), metrics)
		}
		for m, acc := range sh.Accums {
			if acc == nil {
				return nil, fmt.Errorf("mc: shard %d metric %d is nil", sh.Shard, m)
			}
		}
		byShard[sh.Shard] = sh
	}

	merged := make([]*stats.Accumulator, metrics)
	for m := range merged {
		merged[m] = stats.NewAccumulator(sketchCap)
	}
	for s := 0; s < Shards; s++ {
		for m, acc := range byShard[s].Accums {
			merged[m].Merge(acc)
		}
	}
	out := make([]stats.Summary, metrics)
	for m := range out {
		out[m] = merged[m].Summary()
	}
	return out, nil
}

// SplitWorkers divides a worker budget between two levels of parallelism:
// an outer pool of at most outerCap concurrent tasks (e.g. trials) and an
// inner pool each task may spawn (e.g. stations within a trial). The outer
// level is saturated first — trial-level parallelism has no coordination
// cost — and whatever budget remains multiplies into the inner level, so
// outer × inner never exceeds max(budget, outerCap). budget ≤ 0 means
// GOMAXPROCS. Both returned values are ≥ 1.
//
// The split affects wall-clock time only: callers pair it with engines
// (RunVec outside, farm.RunDeterministic inside) whose results are
// independent of their worker counts, so the two-level pool inherits the
// seed-stream contract end to end.
func SplitWorkers(budget, outerCap int) (outer, inner int) {
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	if outerCap < 1 {
		outerCap = 1
	}
	outer = budget
	if outer > outerCap {
		outer = outerCap
	}
	inner = budget / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// SplitConfig prepares a replication config for a two-level engine: the
// returned config's Workers is the outer trial-pool budget (trial
// parallelism is bounded by both the trial count and the engine's Shards
// partition) and inner is the worker budget each trial's closure may spawn.
// This is the shared prologue of the farm's Replicate family — keeping the
// Shards-cap invariant in one place.
func SplitConfig(cfg Config) (outerCfg Config, inner int) {
	outerCap := cfg.Trials
	if outerCap > Shards {
		outerCap = Shards
	}
	outer, inner := SplitWorkers(cfg.Workers, outerCap)
	cfg.Workers = outer
	return cfg, inner
}
