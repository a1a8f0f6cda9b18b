package fleet_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"reflect"

	"cyclesteal/fleet"
	"cyclesteal/trace"
)

// Farm one shared data-parallel job across a small NOW and read the
// job-level accounting. RunDeterministic makes the output a pure function
// of the configuration — bit-identical at any Workers setting.
func Example() {
	f, err := fleet.New(fleet.Config{
		Stations:      16, // owners lending idle time
		Setup:         5,  // seconds per work hand-off
		Opportunities: 10, // contracts each station works through
		Seed:          1,
	})
	if err != nil {
		log.Fatal(err)
	}
	job := fleet.Job{Tasks: fleet.FixedTasks(20000, 12)} // 20k twelve-second tasks
	res, err := f.RunDeterministic(context.Background(), job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed %d of %d tasks (%.1f%%)\n",
		res.TasksCompleted, res.TasksCompleted+res.TasksLeft, 100*res.CompletionFraction())
	// Output:
	// completed 13834 of 20000 tasks (69.2%)
}

// Replicate a fleet study: the same job replayed over many deterministic
// trials, each metric summarized with bounded-error tail quantiles.
func ExampleFleet_Replicate() {
	f, err := fleet.New(fleet.Config{
		Stations:      32,
		Setup:         5,
		Opportunities: 8,
		Seed:          7,
	})
	if err != nil {
		log.Fatal(err)
	}
	job := fleet.Job{Tasks: fleet.ExponentialTasks(5000, 10, 42)}
	rep, err := f.Replicate(context.Background(), job, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d trials: median %.0f tasks completed, p99 imbalance %.2f\n",
		rep.Trials, rep.TasksCompleted.Median, rep.Imbalance.P99)
	// Output:
	// 20 trials: median 5000 tasks completed, p99 imbalance 1.96
}

// Survey a fleet of custom owner temperaments under worst-case interrupts:
// every station plays all its opportunities against a private slice of the
// job.
func ExampleConfig_owners() {
	f, err := fleet.New(fleet.Config{
		Stations: 9,
		Setup:    5,
		Owners: []fleet.Owner{
			fleet.Office{MeanIdle: 1800, Interrupts: 3},
			fleet.Malicious{Base: fleet.Laptop{MeanIdle: 600}},
		},
		Policy:        fleet.Policy{Name: "nonadaptive"},
		Opportunities: 12,
		Pool:          fleet.Private,
		Seed:          3,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := f.Run(context.Background(), fleet.Job{Tasks: fleet.FixedTasks(900, 25)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("utilization %.0f%%, %d interrupts\n", 100*res.Utilization(), res.Interrupts)
	// Output:
	// utilization 90%, 152 interrupts
}

// Split a fleet into two clusters — a NOW of NOWs — and price the crossing:
// stations steal freely inside their own cluster, but a steal across
// clusters keeps the tasks in flight for StealLatency time units,
// unavailable to both sides. With a strong cluster working next to a weak
// one, the strong half must reach across to stay busy, and the latency it
// pays shows up directly as lost completion — the Gast–Khatiri–Trystram
// effect the flat fleet cannot express.
func ExampleConfig_clusters() {
	run := func(latency float64) fleet.Result {
		f, err := fleet.New(fleet.Config{
			Stations: 16,
			Setup:    1,
			// The owner cycle aligns with the shard clusters: stations
			// i%4 ∈ {0,1} form the strong cluster, {2,3} the weak one.
			Owners: []fleet.Owner{
				fleet.Fixed{Lifespan: 8}, fleet.Fixed{Lifespan: 8},
				fleet.Fixed{Lifespan: 3}, fleet.Fixed{Lifespan: 3},
			},
			Policy:        fleet.Policy{Name: "single"},
			Opportunities: 8,
			Shards:        4,
			Clusters:      2,
			StealLatency:  latency,
			Seed:          21,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := f.RunDeterministic(context.Background(), fleet.Job{Tasks: fleet.FixedTasks(400, 1)})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	free, priced := run(0), run(32)
	fmt.Printf("free crossing:   %d of 400 tasks, %d steals\n", free.TasksCompleted, free.Steals)
	fmt.Printf("32-unit latency: %d of 400 tasks, %d steals, %d still in flight\n",
		priced.TasksCompleted, priced.Steals, priced.InFlight)
	// Output:
	// free crossing:   400 of 400 tasks, 8 steals
	// 32-unit latency: 321 of 400 tasks, 3 steals, 51 still in flight
}

// Record one run's interrupt history, then replay it under a different
// policy — "what would this schedule have banked against the interruptions
// that actually happened". The recorded trace.Trace round-trips through the
// documented CSV/JSONL encodings, so a live cluster's usage log can be fed
// back the same way.
func ExampleReplay() {
	rec := trace.NewRecorder()
	f, err := fleet.New(fleet.Config{
		Stations:      6,
		Setup:         5,
		Opportunities: 10,
		Seed:          7,
		Record:        rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	orig, err := f.Run(context.Background(), fleet.Job{})
	if err != nil {
		log.Fatal(err)
	}
	tr := rec.Trace()

	// Same interrupt history, single-period schedule instead of equalized.
	rf, err := fleet.New(fleet.Config{
		Stations:      tr.Stations(),
		Setup:         5,
		Opportunities: tr.MaxOpportunities(),
		Owners:        []fleet.Owner{fleet.Replay{Trace: tr}},
		Policy:        fleet.Policy{Name: "single"},
		TicksPerSetup: tr.TicksPerSetup,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := rf.Run(context.Background(), fleet.Job{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded: utilization %.1f%% over %d interrupts\n", 100*orig.Utilization(), orig.Interrupts)
	fmt.Printf("replayed under single: utilization %.1f%% over %d interrupts\n", 100*res.Utilization(), res.Interrupts)
	// Output:
	// recorded: utilization 91.8% over 38 interrupts
	// replayed under single: utilization 80.4% over 38 interrupts
}

// Run the fleet as a resident service instead of a batch: jobs from two
// tenants stream into one standing fleet, stations churn in and out
// mid-flight (a leaving station's queued tasks migrate back to the pool),
// and every period checkpoints partial work so a kill no longer erases the
// whole task. The whole run lands in an event log that ReplayService
// replays bit-identically at any Workers setting.
func ExampleService() {
	s, err := fleet.NewService(fleet.ServiceConfig{
		Fleet: fleet.Config{
			Stations:   12,
			Setup:      5,
			Checkpoint: 15, // save progress every 15 seconds of task work
			Seed:       11,
		},
		Churn: fleet.ChurnConfig{LeaveProb: 0.05, JoinProb: 0.30, MinStations: 6},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := s.Submit("ana", fleet.Job{Tasks: fleet.ExponentialTasks(300, 12, 3)}); err != nil {
		log.Fatal(err)
	}
	if _, err := s.Submit("bo", fleet.Job{Tasks: fleet.FixedTasks(200, 20)}); err != nil {
		log.Fatal(err)
	}
	res, err := s.Drain(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, j := range res.Jobs {
		fmt.Printf("%s: %d/%d tasks in rounds %d..%d\n",
			j.Tenant, j.TasksCompleted, j.Tasks, j.SubmittedRound, j.FinishedRound)
	}
	fmt.Printf("%d rounds, %d joins, %d departures\n", res.Rounds, res.Joined, res.Departed)

	// The recorded events replay to the identical result.
	rep, err := fleet.ReplayService(context.Background(), fleet.ServiceConfig{
		Fleet: fleet.Config{Stations: 12, Setup: 5, Checkpoint: 15, Seed: 11},
	}, res.Events)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replay matches: %v\n", reflect.DeepEqual(rep, res))
	// Output:
	// ana: 300/300 tasks in rounds 0..5
	// bo: 200/200 tasks in rounds 0..1
	// 6 rounds, 1 joins, 3 departures
	// replay matches: true
}

// Survive a scheduler crash: the service writes every event to a JSONL
// write-ahead log, a fault plan kills the scheduler mid-run, and
// RecoverService rebuilds the session from the log — replaying the logged
// rounds and then finishing the job exactly as the dead session would have.
func ExampleRecoverService() {
	cfg := func(killRound int, wal *bytes.Buffer) fleet.ServiceConfig {
		sc := fleet.ServiceConfig{
			Fleet: fleet.Config{
				Stations: 12,
				Setup:    5,
				Shards:   4,
				Seed:     11,
				Faults: fleet.FaultPlan{
					// A rack outage at round 1 — stations 3, 7 and 11 form a
					// whole steal group, so its queued work is lost, not
					// drained — then the scheduler itself dies at killRound
					// (0 = never).
					Crashes: []fleet.StationCrash{
						{Round: 1, Station: 3}, {Round: 1, Station: 7}, {Round: 1, Station: 11},
					},
					KillRound: killRound,
				},
			},
		}
		if wal != nil {
			sc.WAL = wal
		}
		return sc
	}
	submit := func(s *fleet.Service) {
		if _, err := s.Submit("ana", fleet.Job{Tasks: fleet.FixedTasks(6000, 12)}); err != nil {
			log.Fatal(err)
		}
	}

	// The doomed session: logs to wal, dies at round 3.
	var wal bytes.Buffer
	doomed, err := fleet.NewService(cfg(3, &wal))
	if err != nil {
		log.Fatal(err)
	}
	submit(doomed)
	if _, err := doomed.Drain(context.Background()); errors.Is(err, fleet.ErrSchedulerKilled) {
		fmt.Printf("scheduler killed; %d bytes of log survive\n", wal.Len())
	}

	// Recovery: same configuration with the kill lifted, plus the log.
	s, err := fleet.RecoverService(cfg(0, nil), bytes.NewReader(wal.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Drain(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	j := res.Jobs[0]
	fmt.Printf("recovered: %s finished %d/%d tasks (%d lost to the crash) in %d rounds\n",
		j.Tenant, j.TasksCompleted, j.Tasks, j.TasksLost, res.Rounds)
	// Output:
	// scheduler killed; 24327 bytes of log survive
	// recovered: ana finished 4721/6000 tasks (1279 lost to the crash) in 7 rounds
}
