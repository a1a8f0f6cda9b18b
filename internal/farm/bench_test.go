package farm

// BenchmarkFarm* quantify the round engine's fleet-scaling path: a two-tier
// RunDeterministic with priced crossings, the two-level Replicate engine,
// and a job's arrival in the Core. CI runs each once per PR as a
// compile-and-execute smoke and records ns/op per commit in the
// BENCH_<sha>.json artifact.

import (
	"context"
	"testing"

	"cyclesteal/internal/mc"
	"cyclesteal/internal/station"
	"cyclesteal/internal/task"
)

func benchFleet(n int) Farm {
	stations := make([]station.Workstation, n)
	for i := range stations {
		stations[i] = station.Workstation{ID: i, Owner: station.Office{MeanIdle: 2000, MaxP: 2}, Setup: 10}
	}
	return Farm{Stations: stations, OpportunitiesPerStation: 8}
}

// BenchmarkFarmTopologyDeterministic runs the round engine on a two-tier
// fleet with a cluster-aligned supply skew and a priced crossing — the E14
// configuration — covering the cluster rebalance and the flight ledger under
// the allocs/op gate. Seeds derive from the iteration index, so steal and
// parcel counts (and therefore allocations) are identical run to run.
func BenchmarkFarmTopologyDeterministic(b *testing.B) {
	stations := make([]station.Workstation, 64)
	for i := range stations {
		owner := station.OwnerModel(station.Overnight{Window: 8})
		if i%8 >= 4 {
			owner = station.Overnight{Window: 3}
		}
		stations[i] = station.Workstation{ID: i, Owner: owner, Setup: 1}
	}
	f := Farm{
		Stations:                stations,
		OpportunitiesPerStation: 20,
		Shards:                  8,
		Topology:                Topology{Clusters: 4, CrossLatency: 8},
	}
	job := Job{Tasks: task.Fixed(2000, 2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.RunDeterministic(context.Background(), job, equalizedFactory, int64(i), 4)
		if err != nil {
			b.Fatal(err)
		}
		if res.Steals == 0 {
			b.Fatal("topology fleet never stole")
		}
	}
}

// BenchmarkFarmReplicateTwoLevel measures the deterministic two-level
// replication engine on a 256-station fleet — the Replicate configuration
// E12 runs at fleet scale.
func BenchmarkFarmReplicateTwoLevel(b *testing.B) {
	f := benchFleet(256)
	f.OpportunitiesPerStation = 4
	job := Job{Tasks: task.Exponential(4000, 20, 3)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums, err := f.Replicate(context.Background(), job, equalizedFactory, mc.Config{Trials: 4, Seed: 1, Workers: 0})
		if err != nil {
			b.Fatal(err)
		}
		if sums[MetricTasksCompleted].Mean <= 0 {
			b.Fatal("no work done")
		}
	}
}

// BenchmarkFarmCoreAddTasks prices a job's arrival in the round engine:
// dealing 100,000 tasks round-robin into a fresh 64-group Core's queues —
// what every activated service job pays once.
func BenchmarkFarmCoreAddTasks(b *testing.B) {
	tasks := task.Uniform(100000, 5, 50, 1)
	f := benchFleet(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		core := f.NewCore(equalizedFactory, 1, 64, 0, false)
		b.StartTimer()
		core.AddTasks(tasks)
		if core.Pending() != len(tasks) {
			b.Fatalf("core holds %d of %d tasks", core.Pending(), len(tasks))
		}
	}
}
