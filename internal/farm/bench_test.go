package farm

// BenchmarkFarm* quantify the fleet-scaling path: the contended task-bag hot
// path (single mutex vs lock-striped shards), the end-to-end live Run on
// both pools, and the two-level Replicate engine. CI runs each once per PR
// as a compile-and-execute smoke and records ns/op per commit in the
// BENCH_<sha>.json artifact.
//
// The sharded bag wins on two axes: fewer collisions on 64 stripes than on
// one mutex (visible on multi-core runners), and Take scanning a shard-sized
// pending list instead of the whole job (visible even single-threaded, since
// Bag.Take is O(pending)).

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"cyclesteal/internal/mc"
	"cyclesteal/internal/station"
	"cyclesteal/internal/task"
)

// benchDrain hammers a pool from many station goroutines until it is empty,
// returning one batch in eight — the kill/reschedule pattern of the
// simulator's contended path.
func benchDrain(b *testing.B, mk func([]task.Task) TaskPool) {
	tasks := task.Uniform(10000, 5, 50, 1)
	const stations = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := mk(tasks)
		var wg sync.WaitGroup
		for s := 0; s < stations; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				src := pool.Station(s)
				rng := rand.New(rand.NewSource(int64(s)))
				for {
					got := src.Take(200)
					if len(got) == 0 {
						return
					}
					if rng.Intn(8) == 0 {
						src.Return(got)
					}
				}
			}(s)
		}
		wg.Wait()
	}
}

// BenchmarkFarmBagSharedContended is the single-mutex baseline.
func BenchmarkFarmBagSharedContended(b *testing.B) {
	benchDrain(b, func(ts []task.Task) TaskPool { return NewSharedBag(ts) })
}

// BenchmarkFarmBagShardedContended is the lock-striped bag on the same load.
func BenchmarkFarmBagShardedContended(b *testing.B) {
	benchDrain(b, func(ts []task.Task) TaskPool { return NewShardedBag(ts, DefaultShards) })
}

func benchFleet(n int) Farm {
	stations := make([]station.Workstation, n)
	for i := range stations {
		stations[i] = station.Workstation{ID: i, Owner: station.Office{MeanIdle: 2000, MaxP: 2}, Setup: 10}
	}
	return Farm{Stations: stations, OpportunitiesPerStation: 8}
}

func benchRunPool(b *testing.B, shards int) {
	f := benchFleet(64)
	f.Shards = shards
	job := Job{Tasks: task.Uniform(20000, 5, 50, 1)}
	factory := equalizedFactory
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.Run(context.Background(), job, factory, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.TasksCompleted == 0 {
			b.Fatal("no work done")
		}
	}
}

// BenchmarkFarmRunSharedBag is the live engine funnelled through one mutex.
func BenchmarkFarmRunSharedBag(b *testing.B) { benchRunPool(b, 1) }

// BenchmarkFarmRunShardedBag is the live engine on the auto-sharded pool.
func BenchmarkFarmRunShardedBag(b *testing.B) { benchRunPool(b, 0) }

// benchSteal measures the idle-phase steal path at fleet scale: one rich
// shard at the far end of the cyclic order, every other shard dry, so each
// Take must locate the lone victim — the shape of a draining fleet-sized
// job. The linear scan pays O(shards) mirror loads per Take; the hinted bag
// (last-victim cache + richest-shard index) lands on the victim in O(1).
func benchSteal(b *testing.B, shards int, linear bool) {
	bag := NewShardedBag(nil, shards)
	bag.linearScan = linear
	rich := bag.Station(shards - 1)
	rich.Return(task.Fixed(64, 1))
	thief := bag.Station(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := thief.Take(1)
		if got == nil {
			b.Fatal("steal came up empty")
		}
		rich.Return(got)
	}
}

// BenchmarkFarmStealLinear* is the pre-hint cyclic scan baseline.
func BenchmarkFarmStealLinear1k(b *testing.B) { benchSteal(b, 1024, true) }

// BenchmarkFarmStealHinted* is the production path with steal-target hints.
func BenchmarkFarmStealHinted1k(b *testing.B) { benchSteal(b, 1024, false) }

func BenchmarkFarmStealLinear10k(b *testing.B) { benchSteal(b, 10240, true) }

func BenchmarkFarmStealHinted10k(b *testing.B) { benchSteal(b, 10240, false) }

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

// BenchmarkFarmTopologyCrossSteal is the priced cross-cluster steal cycle on
// the live bag: depart a parcel, advance the steal clock to maturity, drain
// the delivery, and put the tasks back on the remote cluster — the per-steal
// cost of the two-tier pool.
func BenchmarkFarmTopologyCrossSteal(b *testing.B) {
	bag := NewShardedBagTopology(nil, 8, 2, 10)
	remote := bag.Station(4) // home shard 4: the far cluster
	remote.Return(task.Fixed(4, 1))
	thief := bag.Station(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := thief.Take(4); got != nil {
			b.Fatal("priced steal delivered without flying")
		}
		bag.Advance(10) // the parcel matures and lands at the thief's home
		got := thief.Take(4)
		if len(got) == 0 {
			b.Fatal("delivered tasks not taken")
		}
		remote.Return(got)
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
// what every Study trial and every activated service job pays once.
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
