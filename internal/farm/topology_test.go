package farm

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"cyclesteal/internal/quant"
	"cyclesteal/internal/station"
	"cyclesteal/internal/task"
)

func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		name   string
		topo   Topology
		shards int
		want   string // substring of the error; "" = valid
	}{
		{"zero value", Topology{}, 64, ""},
		{"explicit flat", Topology{Clusters: 1}, 64, ""},
		{"even split", Topology{Clusters: 4, CrossLatency: 8}, 64, ""},
		{"clusters equal shards", Topology{Clusters: 8}, 8, ""},
		{"negative clusters", Topology{Clusters: -1}, 64, "Clusters must be ≥ 0"},
		{"negative latency", Topology{Clusters: 2, CrossLatency: -5}, 64, "CrossLatency must be ≥ 0"},
		{"more clusters than shards", Topology{Clusters: 9}, 8, "leaves some empty"},
		{"uneven split", Topology{Clusters: 5}, 64, "valid cluster counts: 1, 2, 4, 8, 16, 32, 64"},
		{"latency without clusters", Topology{CrossLatency: 4}, 64, "needs ≥ 2 clusters"},
		{"latency on one cluster", Topology{Clusters: 1, CrossLatency: 4}, 64, "needs ≥ 2 clusters"},
	}
	for _, c := range cases {
		err := c.topo.Validate(c.shards)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestResolveShards(t *testing.T) {
	cases := []struct{ shards, stations, want int }{
		{0, 1000, DefaultShards}, // auto
		{0, 10, 10},              // auto clamps to fleet
		{8, 4, 4},                // explicit clamps to fleet
		{8, 100, 8},              // explicit
		{1, 100, 1},              // shared baseline
		{-3, 100, 1},             // floor
	}
	for _, c := range cases {
		if got := ResolveShards(c.shards, c.stations); got != c.want {
			t.Errorf("ResolveShards(%d, %d) = %d, want %d", c.shards, c.stations, got, c.want)
		}
	}
}

// The zero-value and explicit single-cluster topologies are the flat engine,
// bit for bit.
func TestTopologyZeroValuePinnedToFlat(t *testing.T) {
	tasks := uniform(1200, 5, 60, 3)
	base := testFarm(24, station.Office{MeanIdle: 2500, MaxP: 2})
	base.Shards = 8
	want, err := base.RunDeterministic(context.Background(), deal(base, tasks), equalizedFactory, 99, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []Topology{{}, {Clusters: 1}} {
		f := base
		f.Topology = topo
		got, err := f.RunDeterministic(context.Background(), deal(f, tasks), equalizedFactory, 99, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Topology %+v diverged from the flat engine", topo)
		}
	}
}

// RunDeterministic with an active topology is bit-identical at any worker
// count — the engine's core contract extended to the priced steal path.
func TestTopologyRunDeterministicWorkerInvariance(t *testing.T) {
	tasks := uniform(800, 1, 4, 3)
	for _, topo := range []Topology{
		{Clusters: 2, CrossLatency: 0},
		{Clusters: 4, CrossLatency: 6},
	} {
		f := testFarm(16, station.Overnight{Window: 8})
		for i := range f.Stations {
			f.Stations[i].Setup = 1
		}
		f.Shards = 8
		f.OpportunitiesPerStation = 30
		f.Topology = topo
		want, err := f.RunDeterministic(context.Background(), deal(f, tasks), equalizedFactory, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.RunDeterministic(context.Background(), deal(f, tasks), equalizedFactory, 7, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("topology %+v: workers 1 vs 8 diverged", topo)
		}
		if got.TasksCompleted+got.TasksLeft != len(tasks) {
			t.Errorf("topology %+v: %d + %d ≠ %d", topo, got.TasksCompleted, got.TasksLeft, len(tasks))
		}
		if got.InFlight > got.TasksLeft {
			t.Errorf("topology %+v: InFlight %d > TasksLeft %d", topo, got.InFlight, got.TasksLeft)
		}
	}
}

// A topology where no station ever goes dry (stations == shards,
// oversupplied homes) never steals, and stays bit-identical at any worker
// count.
func TestTopologyRunNoStealBitIdentical(t *testing.T) {
	tasks := task.Fixed(50000, 5)
	run := func(workers int) Result {
		f := testFarm(8, station.Overnight{Window: 1000})
		f.Shards = 8
		f.Topology = Topology{Clusters: 4, CrossLatency: 5}
		res, err := f.RunDeterministic(context.Background(), deal(f, tasks), equalizedFactory, 11, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	got := run(8)
	if want.Steals != 0 {
		t.Fatalf("oversupplied homes still stole %d times", want.Steals)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("no-steal topology run diverged between workers 1 and 8")
	}
}

// Priced cross-cluster steals: the accounting invariants hold at every
// worker count, the job still completes with ample lifespan, and nothing
// stays stranded in flight.
func TestTopologyRunConservesAndCompletes(t *testing.T) {
	tasks := uniform(600, 5, 40, 2)
	for _, workers := range []int{1, 8} {
		f := testFarm(8, station.Overnight{Window: 20000})
		f.Shards = 4
		f.OpportunitiesPerStation = 20
		f.Topology = Topology{Clusters: 2, CrossLatency: 2}
		res, err := f.RunDeterministic(context.Background(), deal(f, tasks), equalizedFactory, 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.TasksCompleted+res.TasksLeft != len(tasks) {
			t.Errorf("workers=%d: %d + %d ≠ %d", workers, res.TasksCompleted, res.TasksLeft, len(tasks))
		}
		if res.TasksLeft != 0 || res.InFlight != 0 {
			t.Errorf("workers=%d: %d left / %d in flight with ample lifespan", workers, res.TasksLeft, res.InFlight)
		}
	}
}

// The engine rejects an invalid topology up front.
func TestTopologyEngineValidation(t *testing.T) {
	f := testFarm(16, station.Overnight{Window: 100})
	f.Shards = 8
	f.Topology = Topology{Clusters: 5}
	if _, err := f.RunDeterministic(context.Background(), deal(f, task.Fixed(10, 5)), equalizedFactory, 1, 1); err == nil || !strings.Contains(err.Error(), "clusters") {
		t.Errorf("RunDeterministic accepted 5 clusters over 8 shards: %v", err)
	}
}

// The qualitative 1805.00857 effect at farm level: with a cluster-aligned
// supply/demand skew, pricing the crossing can only slow the fleet down —
// completed work at CrossLatency 32 is no higher than at 0, and the priced
// run actually exercises the flight ledger.
func TestTopologyCrossLatencyCostsThroughput(t *testing.T) {
	// Cluster 0 (groups 0,1 ⇒ stations i%4 ∈ {0,1}) is strong, cluster 1
	// weak: the strong half drains its own queues, then must steal across.
	run := func(latency quant.Tick) Result {
		stations := make([]station.Workstation, 16)
		for i := range stations {
			owner := station.OwnerModel(station.Overnight{Window: 8})
			if i%4 >= 2 {
				owner = station.Overnight{Window: 3}
			}
			stations[i] = station.Workstation{ID: i, Owner: owner, Setup: 1}
		}
		f := Farm{
			Stations:                stations,
			OpportunitiesPerStation: 40,
			Shards:                  4,
			Topology:                Topology{Clusters: 2, CrossLatency: latency},
		}
		res, err := f.RunDeterministic(context.Background(), deal(f, task.Fixed(400, 2)), equalizedFactory, 21, 4)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run(0)
	priced := run(32)
	if free.Steals == 0 || priced.Steals == 0 {
		t.Fatalf("skewed fleet never stole (free %d, priced %d); the scenario is broken", free.Steals, priced.Steals)
	}
	if priced.TaskWork > free.TaskWork {
		t.Errorf("latency 32 completed more work (%d) than latency 0 (%d)", priced.TaskWork, free.TaskWork)
	}
	if priced.TasksCompleted+priced.TasksLeft != 400 {
		t.Errorf("priced run leaks tasks: %d + %d ≠ 400", priced.TasksCompleted, priced.TasksLeft)
	}
}
