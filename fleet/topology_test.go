package fleet

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"cyclesteal/internal/farm"
	"cyclesteal/internal/quant"
)

func TestTopologyValidation(t *testing.T) {
	base := Config{Stations: 64, Setup: 5}
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the error
	}{
		{"negative clusters", func(c *Config) { c.Clusters = -1 }, "clusters must be ≥ 0"},
		{"negative latency", func(c *Config) { c.Clusters = 2; c.StealLatency = -3 }, "steal latency must be ≥ 0"},
		{"NaN latency", func(c *Config) { c.Clusters = 2; c.StealLatency = math.NaN() }, "steal latency must be ≥ 0"},
		{"Inf latency", func(c *Config) { c.Clusters = 2; c.StealLatency = math.Inf(1) }, "steal latency must be ≥ 0"},
		{"latency without clusters", func(c *Config) { c.StealLatency = 4 }, "needs ≥ 2 clusters"},
		{"latency on one cluster", func(c *Config) { c.Clusters = 1; c.StealLatency = 4 }, "needs ≥ 2 clusters"},
		{"clusters on shared pool", func(c *Config) { c.Clusters = 2; c.Pool = Shared }, "require the sharded pool"},
		{"clusters on private pool", func(c *Config) { c.Clusters = 2; c.Pool = Private }, "require the sharded pool"},
		{"more clusters than stations", func(c *Config) { c.Clusters = 65 }, "Clusters ≤ Stations"},
		{"uneven partition", func(c *Config) { c.Clusters = 5 }, "valid cluster counts: 1, 2, 4, 8, 16, 32, 64"},
		{"uneven partition of explicit shards", func(c *Config) { c.Shards = 6; c.Clusters = 4 }, "valid cluster counts: 1, 2, 3, 6"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	for _, ok := range []Config{
		{Stations: 64, Setup: 5, Clusters: 4, StealLatency: 2},
		{Stations: 64, Setup: 5, Clusters: 1},
		{Stations: 10, Setup: 5, Clusters: 10}, // auto shards clamp to fleet
	} {
		if _, err := New(ok); err != nil {
			t.Errorf("valid topology config rejected: %+v: %v", ok, err)
		}
	}
}

// The zero-value topology is today's flat fleet, bit for bit: a Config with
// Clusters 0 or 1 and no latency produces exactly the pre-topology output.
func TestTopologyZeroValuePinnedToFlat(t *testing.T) {
	job := facadeJob()
	run := func(clusters int) Result {
		f, err := New(Config{Stations: 24, Setup: 5, Opportunities: 6, Shards: 4, Seed: 11, Clusters: clusters})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.RunDeterministic(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flat := run(0)
	if got := run(1); !reflect.DeepEqual(got, flat) {
		t.Error("Clusters: 1 diverged from the flat fleet")
	}
}

// Topology runs on the deterministic engine are bit-identical at any worker
// count, and the facade adds units conversion over the raw internal call —
// nothing else.
func TestTopologyRunDeterministicBitIdentical(t *testing.T) {
	cfg := Config{Stations: 24, Setup: 5, Opportunities: 12, Shards: 4, Seed: 11,
		Clusters: 2, StealLatency: 2}
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
		t.Error("topology RunDeterministic diverged between Workers 1 and 8")
	}

	// Pin against the raw internal engine: StealLatency 2 units at Setup 5,
	// TicksPerSetup 100 is 40 ticks.
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fm := farm.Farm{
		Stations:                f.stations,
		OpportunitiesPerStation: 12,
		Shards:                  4,
		Topology:                farm.Topology{Clusters: 2, CrossLatency: 40},
	}
	raw, err := fm.RunDeterministic(context.Background(), equivalentInternalJob(job), f.factory, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].TasksCompleted != raw.TasksCompleted ||
		results[0].TasksLeft != raw.TasksLeft ||
		results[0].Steals != raw.Steals ||
		results[0].InFlight != raw.InFlight {
		t.Errorf("facade %+v diverged from raw farm result %+v", results[0], raw)
	}
}

// Topology Run where no station ever goes dry (stations == shards,
// oversupplied deterministic owners): no steals, and the whole Result is
// bit-identical at Workers 1 vs 8.
func TestTopologyLiveRunBitIdenticalWithoutSteals(t *testing.T) {
	job := Job{Tasks: FixedTasks(40000, 1)}
	run := func(workers int) Result {
		f, err := New(Config{Stations: 8, Setup: 5, Opportunities: 4, Shards: 8, Seed: 3,
			Clusters: 4, StealLatency: 2, Workers: workers,
			Owners: []Owner{Fixed{Lifespan: 60}}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	if want.Steals != 0 {
		t.Fatalf("oversupplied fleet still stole %d times", want.Steals)
	}
	got := run(8)
	if !reflect.DeepEqual(got, want) {
		t.Error("no-steal topology Run diverged between Workers 1 and 8")
	}
}

// Live topology Run with real cross-cluster traffic: the accounting
// invariants hold at any worker count and nothing strands in flight when
// lifespan is ample.
func TestTopologyLiveRunConserves(t *testing.T) {
	job := Job{Tasks: ExponentialTasks(400, 8, 5)}
	for _, workers := range []int{1, 8} {
		f, err := New(Config{Stations: 16, Setup: 5, Opportunities: 30, Shards: 4, Seed: 9,
			Clusters: 2, StealLatency: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if res.TasksCompleted+res.TasksLeft != len(job.Tasks) {
			t.Errorf("workers=%d: %d + %d ≠ %d", workers, res.TasksCompleted, res.TasksLeft, len(job.Tasks))
		}
		if res.InFlight > res.TasksLeft {
			t.Errorf("workers=%d: InFlight %d > TasksLeft %d", workers, res.InFlight, res.TasksLeft)
		}
	}
}

// Replicate surfaces the in-flight metric and stays bit-identical at any
// worker budget for topology fleets.
func TestTopologyReplicateBitIdentical(t *testing.T) {
	job := facadeJob()
	run := func(workers int) Replication {
		f, err := New(Config{Stations: 24, Setup: 5, Opportunities: 8, Shards: 4, Seed: 17,
			Clusters: 2, StealLatency: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.Replicate(context.Background(), job, 4)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := run(1)
	if got := run(8); !reflect.DeepEqual(got, want) {
		t.Error("topology Replicate diverged between Workers 1 and 8")
	}
	if want.Steals.N != 4 || want.InFlight.N != 4 {
		t.Errorf("steals/in-flight summaries not measured: N = %d/%d", want.Steals.N, want.InFlight.N)
	}
}

// The quantized latency keeps zero exactly zero and rounds any positive
// latency up to at least one tick.
func TestStealLatencyQuantization(t *testing.T) {
	mk := func(lat float64) *Fleet {
		f, err := New(Config{Stations: 8, Setup: 5, Clusters: 2, StealLatency: lat})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if got := mk(0).farm(nil).Topology.CrossLatency; got != 0 {
		t.Errorf("zero latency quantized to %d ticks", got)
	}
	if got := mk(0.0001).farm(nil).Topology.CrossLatency; got != 1 {
		t.Errorf("tiny latency quantized to %d ticks, want 1", got)
	}
	if got := mk(2).farm(nil).Topology.CrossLatency; got != quant.Tick(40) {
		t.Errorf("latency 2 units quantized to %d ticks, want 40", got)
	}
}
