package fleet_test

import (
	"bytes"
	"context"
	"testing"

	"cyclesteal/fleet"
)

// BenchmarkFleetTopologyDeterministic prices the whole facade path for a
// clustered fleet: config validation, unit quantization, the deterministic
// round engine with latency-priced cross-cluster steals, and result
// conversion. Seeds vary per iteration so the engine cannot memoize a trial,
// but every seed is deterministic, keeping allocs/op stable for the exact
// alloc gate.
func BenchmarkFleetTopologyDeterministic(b *testing.B) {
	job := fleet.Job{Tasks: fleet.FixedTasks(2000, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fleet.New(fleet.Config{
			Stations: 64,
			Setup:    1,
			Owners: []fleet.Owner{
				fleet.Fixed{Lifespan: 8}, fleet.Fixed{Lifespan: 8},
				fleet.Fixed{Lifespan: 3}, fleet.Fixed{Lifespan: 3},
			},
			Policy:        fleet.Policy{Name: "single"},
			Opportunities: 10,
			Shards:        8,
			Clusters:      4,
			StealLatency:  8,
			Workers:       4,
			Seed:          int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := f.RunDeterministic(context.Background(), job)
		if err != nil {
			b.Fatal(err)
		}
		if res.Steals == 0 {
			b.Fatal("benchmark fleet never stole; not exercising the topology path")
		}
	}
}

// BenchmarkFleetServiceDrain prices the resident-service loop on the
// batch-equivalent path: one standing fleet, jobs from two tenants drained
// to completion, no churn. The delta against the deterministic batch
// benchmark is the cost of the service layer itself (admission, job
// attribution, the event log). Seeds vary per iteration so nothing
// memoizes, but every seed is deterministic, keeping allocs/op stable for
// the exact alloc gate.
func BenchmarkFleetServiceDrain(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := fleet.NewService(fleet.ServiceConfig{
			Fleet: fleet.Config{Stations: 64, Setup: 5, Shards: 8, Workers: 4, Seed: int64(i)},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Submit("ana", fleet.Job{Tasks: fleet.FixedTasks(1500, 10)}); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Submit("bo", fleet.Job{Tasks: fleet.FixedTasks(1500, 12)}); err != nil {
			b.Fatal(err)
		}
		res, err := s.Drain(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.Fleet.TasksCompleted != 3000 {
			b.Fatalf("service completed %d of 3000 tasks", res.Fleet.TasksCompleted)
		}
	}
}

// BenchmarkFleetServiceChurn prices the service with everything on: station
// churn rebalancing queues mid-flight, per-period checkpointing in the sim,
// and the event log recording every roster change.
func BenchmarkFleetServiceChurn(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := fleet.NewService(fleet.ServiceConfig{
			Fleet: fleet.Config{Stations: 64, Setup: 5, Shards: 8, Workers: 4, Checkpoint: 12, Seed: int64(i)},
			Churn: fleet.ChurnConfig{LeaveProb: 0.02, JoinProb: 0.05, MinStations: 16, Seed: int64(i) + 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Submit("ana", fleet.Job{Tasks: fleet.FixedTasks(3000, 10)}); err != nil {
			b.Fatal(err)
		}
		res, err := s.Drain(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.Fleet.TasksCompleted != 3000 {
			b.Fatalf("service completed %d of 3000 tasks", res.Fleet.TasksCompleted)
		}
	}
}

// BenchmarkFleetServiceWAL prices durability: the Drain benchmark's
// workload with every event written through the JSONL write-ahead log and
// flushed at each round barrier (an in-memory sink, so the figure is the
// encoding cost, not the disk). The delta against BenchmarkFleetServiceDrain
// is what crash recoverability costs per run.
func BenchmarkFleetServiceWAL(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wal bytes.Buffer
		s, err := fleet.NewService(fleet.ServiceConfig{
			Fleet: fleet.Config{Stations: 64, Setup: 5, Shards: 8, Workers: 4, Seed: int64(i)},
			WAL:   &wal,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Submit("ana", fleet.Job{Tasks: fleet.FixedTasks(1500, 10)}); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Submit("bo", fleet.Job{Tasks: fleet.FixedTasks(1500, 12)}); err != nil {
			b.Fatal(err)
		}
		res, err := s.Drain(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.Fleet.TasksCompleted != 3000 {
			b.Fatalf("service completed %d of 3000 tasks", res.Fleet.TasksCompleted)
		}
		if wal.Len() == 0 {
			b.Fatal("write-ahead log stayed empty")
		}
	}
}

// BenchmarkFleetRunJob prices a batch run's intake: fleet.Run of a
// 100,000-task E12 job on 1,000 stations of E12's mixed fleet (Office,
// Laptop, Overnight owners), one opportunity each, so converting the job
// and dealing it into the group queues weigh as much as the one round
// played. The quantized job is 1.6 MB, so a change that copies it once
// more fails the gate's B/op threshold. Workers 1 keeps allocs/op
// independent of the host's CPU count; seeds vary per iteration so
// nothing memoizes.
func BenchmarkFleetRunJob(b *testing.B) {
	const stations, tasks = 1000, 100000
	job := fleet.Job{Tasks: fleet.E12Tasks(tasks)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fleet.New(fleet.Config{Stations: stations, Setup: 1, Opportunities: 1, Workers: 1, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		res, err := f.Run(context.Background(), job)
		if err != nil {
			b.Fatal(err)
		}
		if res.TasksCompleted == 0 || res.TasksCompleted+res.TasksLeft != tasks {
			b.Fatalf("run completed %d and left %d of %d tasks", res.TasksCompleted, res.TasksLeft, tasks)
		}
	}
}

// BenchmarkFleetReplicateGuideline prices a replication study under the
// adaptive guideline, the policy every other farm and fleet benchmark
// leaves out: E12's mixed fleet (Office, Laptop, Overnight owners) at bench
// size, 200 stations with 20 tasks each uniform on the grid over [c/2, 4c],
// 4 opportunities per station, 8 trials. Workers 1 keeps allocs/op
// deterministic for the exact alloc gate; seeds vary per iteration so
// nothing memoizes.
func BenchmarkFleetReplicateGuideline(b *testing.B) {
	const stations, tasksPer = 200, 20
	job := fleet.Job{Tasks: fleet.E12Tasks(stations * tasksPer)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fleet.New(fleet.Config{
			Stations:      stations,
			Setup:         1,
			Opportunities: 4,
			Policy:        fleet.Policy{Name: "guideline"},
			Workers:       1,
			Seed:          int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := f.Replicate(context.Background(), job, 8)
		if err != nil {
			b.Fatal(err)
		}
		if rep.TasksCompleted.Mean == 0 {
			b.Fatal("replication completed no tasks")
		}
	}
}
