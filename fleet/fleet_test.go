package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cyclesteal/internal/farm"
	"cyclesteal/internal/mc"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/station"
	"cyclesteal/internal/task"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no stations", Config{Setup: 5}},
		{"no setup", Config{Stations: 4}},
		{"negative setup", Config{Stations: 4, Setup: -1}},
		{"negative interrupts", Config{Stations: 4, Setup: 5, Interrupts: -1}},
		{"negative shards", Config{Stations: 4, Setup: 5, Shards: -1}},
		{"bad pool", Config{Stations: 4, Setup: 5, Pool: Pool(9)}},
		{"bad policy", Config{Stations: 4, Setup: 5, Policy: Policy{Name: "nope"}}},
		{"chunkless fixedchunk", Config{Stations: 4, Setup: 5, Policy: Policy{Name: "fixedchunk"}}},
		{"bad owner duration", Config{Stations: 4, Setup: 5, Owners: []Owner{Office{MeanIdle: -3}}}},
		{"bad owner interrupts", Config{Stations: 4, Setup: 5, Owners: []Owner{Office{Interrupts: -1}}}},
		{"nil owner", Config{Stations: 4, Setup: 5, Owners: []Owner{Office{}, nil}}},
		{"baseless malicious", Config{Stations: 4, Setup: 5, Owners: []Owner{Malicious{}}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.cfg)
		}
	}
	// Caller-unit values the tick grid cannot hold: each error names its
	// field.
	inf, nan := math.Inf(1), math.NaN()
	grid := []struct {
		field string
		cfg   Config
	}{
		{"setup cost", Config{Stations: 4, Setup: inf}},
		{"checkpoint interval", Config{Stations: 4, Setup: 5, Checkpoint: 1e300}},
		{"checkpoint save cost", Config{Stations: 4, Setup: 5, CheckpointSaveCost: 1e300}},
		{"checkpoint restart cost", Config{Stations: 4, Setup: 5, CheckpointRestartCost: 1e300}},
		{"steal latency", Config{Stations: 4, Setup: 5, Clusters: 2, StealLatency: 1e300}},
		{"office duration", Config{Stations: 4, Setup: 5, Owners: []Owner{Office{MeanIdle: nan}}}},
		{"office duration", Config{Stations: 4, Setup: 5, Owners: []Owner{Office{MeanIdle: inf}}}},
		{"laptop duration", Config{Stations: 4, Setup: 5, Owners: []Owner{Laptop{MeanIdle: 1e300}}}},
		{"fixed duration", Config{Stations: 4, Setup: 5, Owners: []Owner{Fixed{Lifespan: nan}}}},
		{"overnight duration", Config{Stations: 4, Setup: 5, Owners: []Owner{Overnight{Window: inf}}}},
		{"scripted offset 1", Config{Stations: 4, Setup: 5, Owners: []Owner{Scripted{Base: Office{}, Offsets: []float64{3, inf}}}}},
		{"scripted offset 0", Config{Stations: 4, Setup: 5, Owners: []Owner{Scripted{Base: Office{}, Offsets: []float64{1e300}}}}},
		{"fixedchunk Chunk", Config{Stations: 4, Setup: 5, Policy: Policy{Name: "fixedchunk", Chunk: inf}}},
		{"fixedchunk Chunk", Config{Stations: 4, Setup: 5, Policy: Policy{Name: "fixedchunk", Chunk: 1e300}}},
		{"stochastic probability", Config{Stations: 4, Setup: 5, Owners: []Owner{Stochastic{Base: Office{}, Prob: nan}}}},
	}
	for _, tc := range grid {
		_, err := New(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: New = %v, want an error naming the field", tc.field, err)
		}
	}
	if _, err := New(Config{Stations: 1, Setup: 0.5}); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
}

// Scaling every caller-unit input of a run by a power of two — the setup
// cost, the checkpoint interval, the steal latency and the task durations —
// scales every caller-unit output by exactly that factor and leaves every
// count equal: the grid counts time in setup costs.
func TestRunScaleSetupAndDurationsTogether(t *testing.T) {
	run := func(k float64) Result {
		f, err := New(Config{Stations: 8, Setup: 5 * k, Checkpoint: 40 * k, StealLatency: 3 * k, Clusters: 2, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		tasks := ExponentialTasks(600, 12, 3)
		for i := range tasks {
			tasks[i] *= k
		}
		res, err := f.Run(context.Background(), Job{Tasks: tasks})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	if base.Steals == 0 || base.Interrupts == 0 || base.TasksCompleted == 0 {
		t.Fatalf("degenerate base run: %d steals, %d interrupts, %d tasks completed", base.Steals, base.Interrupts, base.TasksCompleted)
	}
	for _, k := range []float64{0.25, 2, 1024} {
		checkScaled(t, reflect.ValueOf(base), reflect.ValueOf(run(k)), k, fmt.Sprintf("k=%g", k))
	}
}

// checkScaled fails unless every float64 in got is exactly k times the one
// in base, and every int is equal.
func checkScaled(t *testing.T, base, got reflect.Value, k float64, path string) {
	t.Helper()
	switch base.Kind() {
	case reflect.Struct:
		for i := 0; i < base.NumField(); i++ {
			checkScaled(t, base.Field(i), got.Field(i), k, path+"."+base.Type().Field(i).Name)
		}
	case reflect.Slice:
		if got.Len() != base.Len() {
			t.Fatalf("%s has %d entries, want %d", path, got.Len(), base.Len())
		}
		for i := 0; i < base.Len(); i++ {
			checkScaled(t, base.Index(i), got.Index(i), k, fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Float64:
		if got.Float() != k*base.Float() {
			t.Errorf("%s = %v, want exactly %g × %v", path, got.Float(), k, base.Float())
		}
	case reflect.Int:
		if got.Int() != base.Int() {
			t.Errorf("%s = %d, want %d", path, got.Int(), base.Int())
		}
	default:
		t.Fatalf("%s: unexpected kind %s", path, base.Kind())
	}
}

// TestDefaultOwnersMatchMixedFleet pins the facade's default fleet to the
// experiments' standard heterogeneous NOW: promoting the engines must not
// quietly change what "a 64-station fleet" means.
func TestDefaultOwnersMatchMixedFleet(t *testing.T) {
	f, err := New(Config{Stations: 7, Setup: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := station.MixedFleet(7, 100)
	if !reflect.DeepEqual(f.stations, want) {
		t.Fatalf("default fleet diverged from station.MixedFleet:\n got %+v\nwant %+v", f.stations, want)
	}
}

func TestOwnerAndPolicySelectors(t *testing.T) {
	for _, name := range []string{"office", "laptop", "overnight", "malicious-laptop"} {
		if _, err := OwnerByName(name); err != nil {
			t.Errorf("OwnerByName(%q): %v", name, err)
		}
	}
	if _, err := OwnerByName("mainframe"); err == nil {
		t.Error("OwnerByName accepted an unknown temperament")
	}
	for _, name := range []string{"", "equalized", "guideline", "nonadaptive", "single", "fixedchunk"} {
		if _, err := PolicyByName(name); err != nil {
			t.Errorf("PolicyByName(%q): %v", name, err)
		}
	}
	if _, err := PolicyByName("lru"); err == nil {
		t.Error("PolicyByName accepted an unknown policy")
	}
}

// facadeJob is the shared test workload, in caller units.
func facadeJob() Job { return Job{Tasks: ExponentialTasks(600, 12, 3)} }

// equivalentInternalJob quantizes facadeJob exactly as the facade does for
// Setup 5, TicksPerSetup 100.
func equivalentInternalJob(j Job) farm.Job {
	tasks := make([]task.Task, len(j.Tasks))
	for i, d := range j.Tasks {
		tk := quant.Tick(math.Round(d / 5 * 100))
		if tk < 1 {
			tk = 1
		}
		tasks[i] = task.Task{ID: i, Duration: tk}
	}
	return farm.Job{Tasks: tasks}
}

// A batch run's intake quantizes the job straight into its group queues:
// hand g of G holds exactly what task.Deal puts in hand g of the flat
// intake, sized to fit, with its smallest duration, and the totals agree.
// The flat intake itself puts task i at index i with ID i and Grid.Ticks'
// rounding. The grid here makes half-tick durations exact, so ties round
// as Grid.Ticks rounds them too. Hand counts run from one to more than the
// tasks.
func TestQuantizeDealtMatchesDeal(t *testing.T) {
	f := &Fleet{g: quant.Grid{Setup: 2, TicksPerSetup: 8}} // a tick is 1/4 unit
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 1000} {
		durations := make([]float64, n)
		for i := range durations {
			if i%3 == 0 {
				durations[i] = (float64(rng.Intn(40)) + 0.5) / 4 // k + ½ ticks
			} else {
				durations[i] = rng.ExpFloat64() * 3
			}
		}
		flat, total, err := quantizeFlat(f.g, durations)
		if err != nil {
			t.Fatal(err)
		}
		var sum quant.Tick
		for i, d := range durations {
			ticks, err := f.g.Ticks(d)
			if err != nil {
				t.Fatal(err)
			}
			if want := (task.Task{ID: i, Duration: ticks}); flat[i] != want {
				t.Fatalf("n=%d: flat task %d = %+v, want %+v", n, i, flat[i], want)
			}
			sum += flat[i].Duration
		}
		if total != sum {
			t.Fatalf("n=%d: flat total %d, tasks sum to %d", n, total, sum)
		}
		for _, groups := range []int{1, 3, 64, n + 5} {
			fj, work, err := f.dealtJob(durations, groups)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				if fj.Dealt != nil || fj.Tasks != nil || work != 0 {
					t.Fatalf("empty job dealt over %d groups: %+v, total %d", groups, fj, work)
				}
				continue
			}
			if work != total || fj.Tasks != nil || len(fj.Dealt) != groups {
				t.Fatalf("n=%d over %d groups: total %d (flat %d), %d plain tasks, %d hands", n, groups, work, total, len(fj.Tasks), len(fj.Dealt))
			}
			for g, want := range task.Deal(flat, groups) {
				h := fj.Dealt[g]
				if !reflect.DeepEqual(h.Tasks, want) {
					t.Fatalf("n=%d over %d groups: hand %d = %v, task.Deal gives %v", n, groups, g, h.Tasks, want)
				}
				if cap(h.Tasks) != len(h.Tasks) {
					t.Errorf("n=%d over %d groups: hand %d has cap %d for %d tasks", n, groups, g, cap(h.Tasks), len(h.Tasks))
				}
				var low quant.Tick
				for _, tk := range want {
					if low == 0 || tk.Duration < low {
						low = tk.Duration
					}
				}
				if h.MinDur != low {
					t.Errorf("n=%d over %d groups: hand %d MinDur %d, want %d", n, groups, g, h.MinDur, low)
				}
			}
		}
	}
}

// TestRunDeterministicBitIdentical pins the facade's deterministic engine
// to (a) itself across worker counts and (b) the equivalent raw
// internal/farm call: the public wrapper adds units conversion, nothing
// else.
func TestRunDeterministicBitIdentical(t *testing.T) {
	cfg := Config{Stations: 24, Setup: 5, Opportunities: 6, Shards: 4, Seed: 11}
	job := facadeJob()

	var results []Result
	for _, workers := range []int{1, 8} {
		c := cfg
		c.Workers = workers
		f, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.RunDeterministic(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("RunDeterministic differs between Workers 1 and 8")
	}

	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := farm.Farm{
		Stations:                station.MixedFleet(24, 100),
		OpportunitiesPerStation: 6,
		Shards:                  4,
	}.RunDeterministic(context.Background(), equivalentInternalJob(job), f.factory, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := results[0].TasksCompleted, raw.TasksCompleted; got != want {
		t.Fatalf("facade TasksCompleted %d, internal %d", got, want)
	}
	if got, want := results[0].Steals, raw.Steals; got != want {
		t.Fatalf("facade Steals %d, internal %d", got, want)
	}
	if got, want := results[0].Work, float64(raw.FluidWork)/100*5; got != want {
		t.Fatalf("facade Work %g, internal %g", got, want)
	}
	for i, rep := range raw.Stations {
		if got, want := results[0].Stations[i].TaskWork, float64(rep.TaskWork)/100*5; got != want {
			t.Fatalf("station %d TaskWork: facade %g, internal %g", i, got, want)
		}
	}
}

// TestPrivateRunBitIdentical pins the Private pool's Run to itself across
// worker counts, to RunDeterministic, and by value to the survey pin of the
// same Config and Job.
func TestPrivateRunBitIdentical(t *testing.T) {
	pin := surveyPins()[0]
	var results []Result
	for _, workers := range []int{1, 8} {
		c := pin.cfg
		c.Workers = workers
		f, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(context.Background(), pin.job)
		if err != nil {
			t.Fatal(err)
		}
		det, err := f.RunDeterministic(context.Background(), pin.job)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, det) {
			t.Fatalf("workers %d: Private Run and RunDeterministic diverge", workers)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("Private Run differs between Workers 1 and 8")
	}
	if got := digest(t, results[0]); got != pin.runSHA {
		t.Fatalf("Private Run digest %s, pinned %s", got, pin.runSHA)
	}
}

// TestPrivateReplicateHonorsCheckpoint pins the Private survey path to the
// run it replicates: a one-trial Replicate equals Run of the same Config at
// the trial's seed, under every checkpoint setting and for the empty-job
// survey too. Replicate's trial 0 plays the farm seed the mc stream for
// Config.Seed draws first.
func TestPrivateReplicateHonorsCheckpoint(t *testing.T) {
	ctx := context.Background()
	base := Config{Stations: 12, Setup: 1, Opportunities: 6, Pool: Private, Seed: 3,
		Owners: []Owner{Office{MeanIdle: 40, Interrupts: 3}}}
	trialSeed := rand.New(rand.NewSource(base.Seed)).Int63()
	policies := []struct {
		name string
		set  func(*Config)
	}{
		{"draconian", func(*Config) {}},
		{"fixed", func(c *Config) { c.Checkpoint = 3 }},
		{"adaptive", func(c *Config) { c.CheckpointAdaptive = true }},
		{"split costs", func(c *Config) { c.Checkpoint = 3; c.CheckpointSaveCost = 0.5; c.CheckpointRestartCost = 2 }},
	}
	for _, job := range []Job{{Tasks: FixedTasks(600, 2)}, {}} {
		var draconian float64
		for _, pol := range policies {
			cfg := base
			pol.set(&cfg)
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := f.Replicate(ctx, job, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = trialSeed
			g, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := g.Run(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			var killed float64
			for _, s := range res.Stations {
				killed += s.Killed
			}
			tasks := len(job.Tasks)
			for _, m := range []struct {
				name     string
				rep, run float64
			}{
				{"Work", rep.Work.Mean, res.Work},
				{"Killed", rep.Killed.Mean, killed},
				{"TaskWork", rep.TaskWork.Mean, res.TaskWork},
				{"Interrupts", rep.Interrupts.Mean, float64(res.Interrupts)},
			} {
				if m.rep != m.run {
					t.Errorf("%s, %d tasks: Replicate %s %g, Run %g", pol.name, tasks, m.name, m.rep, m.run)
				}
			}
			if pol.name == "draconian" {
				draconian = res.Work
			} else if res.Work == draconian {
				t.Errorf("%s, %d tasks: Run work %g equals the draconian run's; the pin would be vacuous", pol.name, tasks, res.Work)
			}
		}
	}
}

// TestReplicateBitIdentical pins Replicate to itself across worker counts
// and to the raw internal/farm replication.
func TestReplicateBitIdentical(t *testing.T) {
	cfg := Config{Stations: 16, Setup: 5, Opportunities: 4, Shards: 4, Seed: 21}
	job := facadeJob()

	var reps []Replication
	for _, workers := range []int{1, 8} {
		c := cfg
		c.Workers = workers
		f, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.Replicate(context.Background(), job, 10)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Fatal("Replicate differs between Workers 1 and 8")
	}

	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := farm.Farm{
		Stations:                station.MixedFleet(16, 100),
		OpportunitiesPerStation: 4,
		Shards:                  4,
	}.Replicate(context.Background(), equivalentInternalJob(job), f.factory, mc.Config{Trials: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reps[0].TasksCompleted.Mean, sums[farm.MetricTasksCompleted].Mean; got != want {
		t.Fatalf("facade tasks mean %g, internal %g", got, want)
	}
	if got, want := reps[0].Work.P99, sums[farm.MetricFluidWork].P99/100*5; got != want {
		t.Fatalf("facade work P99 %g, internal %g", got, want)
	}
	if got, want := reps[0].Completion.Median, sums[farm.MetricCompletionFrac].Median; got != want {
		t.Fatalf("facade completion median %g, internal %g", got, want)
	}
	if reps[0].Trials != 10 || reps[0].Completion.N != 10 {
		t.Fatalf("trial counts: %d, %d", reps[0].Trials, reps[0].Completion.N)
	}
	if reps[0].Lifespan.N != 10 || reps[0].Utilization.N != 10 || reps[0].TaskWork.N != 10 {
		t.Fatal("shared-job replication missing survey metrics")
	}
	// Private replication fills every metric too.
	pc := cfg
	pc.Pool = Private
	pf, err := New(pc)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := pf.Replicate(context.Background(), job, 5)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Utilization.N != 5 || prep.Lifespan.N != 5 {
		t.Fatalf("private replication missing survey metrics: %+v", prep.Utilization)
	}
	if prep.Completion.N != 5 || prep.Steals.N != 5 || prep.Steals.Max != 0 {
		t.Fatalf("private replication: completion %+v, steals %+v; want 5 trials, never a steal", prep.Completion, prep.Steals)
	}
	if prep.Utilization.Mean <= 0 || prep.Utilization.Mean > 1 {
		t.Fatalf("utilization mean %g out of range", prep.Utilization.Mean)
	}
}

// leakCheck snapshots the goroutine count and returns a func asserting the
// run's workers have drained (a bounded retry absorbs runtime bookkeeping
// goroutines winding down).
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// cancellation drives fn with a context cancelled mid-run and asserts the
// error is ctx.Err(), the return is prompt, and no goroutines leak.
func cancellation(t *testing.T, fn func(ctx context.Context) error) {
	t.Helper()
	check := leakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	start := time.Now()
	err := fn(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (after %v)", err, elapsed)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation not prompt: run returned after %v", elapsed)
	}
	check()
}

// bigConfig is a 1000-station fleet whose job cannot finish in the few
// milliseconds before the test cancels it.
func bigConfig(pool Pool) Config {
	return Config{Stations: 1000, Setup: 5, Opportunities: 50, Pool: pool, Seed: 5}
}

func bigJob() Job { return Job{Tasks: FixedTasks(1000000, 10)} }

func TestRunCancellation(t *testing.T) {
	f, err := New(bigConfig(Sharded))
	if err != nil {
		t.Fatal(err)
	}
	cancellation(t, func(ctx context.Context) error {
		_, err := f.Run(ctx, bigJob())
		return err
	})
}

func TestRunDeterministicCancellation(t *testing.T) {
	f, err := New(bigConfig(Sharded))
	if err != nil {
		t.Fatal(err)
	}
	cancellation(t, func(ctx context.Context) error {
		_, err := f.RunDeterministic(ctx, bigJob())
		return err
	})
}

func TestPrivateRunCancellation(t *testing.T) {
	f, err := New(bigConfig(Private))
	if err != nil {
		t.Fatal(err)
	}
	cancellation(t, func(ctx context.Context) error {
		_, err := f.Run(ctx, bigJob())
		return err
	})
}

func TestReplicateCancellation(t *testing.T) {
	f, err := New(bigConfig(Sharded))
	if err != nil {
		t.Fatal(err)
	}
	cancellation(t, func(ctx context.Context) error {
		_, err := f.Replicate(ctx, bigJob(), 1000)
		return err
	})
}

// TestProgressDeterministic asserts the round-barrier observer: snapshots
// are monotone, conserve the task count, and end exactly at the final
// accounting.
func TestProgressDeterministic(t *testing.T) {
	var snaps []Progress
	cfg := Config{
		Stations: 16, Setup: 5, Opportunities: 8, Shards: 4, Seed: 2,
		Progress: func(p Progress) { snaps = append(snaps, p) },
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := facadeJob()
	res, err := f.RunDeterministic(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	prev := -1
	for i, s := range snaps {
		if s.Completed+s.Remaining != len(job.Tasks) {
			t.Fatalf("snapshot %d does not conserve tasks: %+v", i, s)
		}
		if s.Completed < prev {
			t.Fatalf("snapshot %d regressed: %+v", i, s)
		}
		prev = s.Completed
	}
	last := snaps[len(snaps)-1]
	if last.Completed != res.TasksCompleted || last.Remaining != res.TasksLeft || last.Steals != res.Steals {
		t.Fatalf("final snapshot %+v does not match result (%d done, %d left, %d steals)",
			last, res.TasksCompleted, res.TasksLeft, res.Steals)
	}
}

// TestProgressLive asserts the wall-clock observer fires (at least the
// final snapshot) and agrees with the live result.
func TestProgressLive(t *testing.T) {
	var snaps []Progress
	cfg := Config{
		Stations: 8, Setup: 5, Opportunities: 4, Seed: 2,
		Progress:         func(p Progress) { snaps = append(snaps, p) },
		ProgressInterval: time.Millisecond,
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := facadeJob()
	res, err := f.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	last := snaps[len(snaps)-1]
	if last.Completed != res.TasksCompleted {
		t.Fatalf("final snapshot %+v vs result %d completed", last, res.TasksCompleted)
	}
}

// TestEmptyJobIsFluidSurvey pins the Job.Tasks doc: an empty job banks
// fluid work on every pool layout (the shared pools' exhaustible ledger
// must not end the run before the first opportunity), deterministically.
func TestEmptyJobIsFluidSurvey(t *testing.T) {
	for _, pool := range []Pool{Sharded, Shared, Private} {
		var results []Result
		for _, workers := range []int{1, 8} {
			f, err := New(Config{Stations: 8, Setup: 5, Opportunities: 4, Pool: pool, Seed: 6, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(context.Background(), Job{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Work <= 0 || res.Lifespan <= 0 {
				t.Fatalf("%v pool: empty job banked no fluid work: %+v", pool, res)
			}
			det, err := f.RunDeterministic(context.Background(), Job{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, det) {
				t.Fatalf("%v pool: empty-job Run and RunDeterministic diverge", pool)
			}
			results = append(results, res)
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Fatalf("%v pool: empty-job run differs between Workers 1 and 8", pool)
		}
		f, err := New(Config{Stations: 8, Setup: 5, Opportunities: 4, Pool: pool, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.Replicate(context.Background(), Job{}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Work.N != 3 || rep.Work.Mean <= 0 {
			t.Fatalf("%v pool: empty-job replication banked nothing: %+v", pool, rep.Work)
		}
	}
}
