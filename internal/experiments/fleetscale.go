package experiments

import (
	"context"
	"fmt"
	"time"

	"cyclesteal/internal/farm"
	"cyclesteal/internal/mc"
	"cyclesteal/internal/model"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/station"
	"cyclesteal/internal/stats"
	"cyclesteal/internal/tab"
	"cyclesteal/internal/task"
)

// FleetScale is experiment E12: the fleet-scaling study behind the paper's
// network-of-workstations framing. One shared data-parallel job — sized
// proportionally to the fleet — is farmed across mixed owner profiles at
// fleet sizes from tens to thousands of stations, under the adaptive
// equalized policy. Three questions per fleet size:
//
//   - Does job completion hold up as the fleet (and job) grow? It should:
//     the workload and the capacity scale together, so drift would indicate
//     a coordination artifact (bag contention, steal starvation).
//   - How does load balance behave? Imbalance rises with fleet size because
//     the owner mix's tails get more extreme draws, and the p99 of
//     kill-destroyed lifespan (per trial, from the bounded-error quantile
//     sketch) tracks the tail risk operators would page on.
//   - What does a trial cost in engine wall-clock? The per-trial ms column
//     is the engine-scaling view: it grows ~linearly in stations on a fixed
//     worker budget, and shrinks with cores via the two-level pool.
//
// Each fleet size replicates on Farm.Replicate's two-level deterministic
// engine, so every number in the table (wall-clock excepted) is bit-identical
// at any cfg.Workers.
func FleetScale(cfg Config, fleets []int, opportunitiesPer, tasksPerStation, trials int) (*tab.Table, error) {
	cfg = cfg.normalize()
	c := cfg.C
	if trials < 1 {
		return nil, fmt.Errorf("experiments: E12 needs trials ≥ 1, got %d", trials)
	}
	if len(fleets) == 0 {
		return nil, fmt.Errorf("experiments: E12 needs at least one fleet size")
	}
	factory := func(ws station.Workstation, ct station.Contract) (model.EpisodeScheduler, error) {
		return sched.NewAdaptiveEqualized(ws.Setup)
	}

	t := tab.New(
		fmt.Sprintf("E12: fleet-scale farm (mixed owners, %d tasks/station uniform in [c/2, 4c], %d opportunities/station, %d trials, c = %d ticks)",
			tasksPerStation, opportunitiesPer, trials, c),
		"stations", "tasks done", "completion %", "±95%", "imbalance", "p99 killed/c", "steals", "ms/trial",
	)
	for i, n := range fleets {
		if n < 1 {
			return nil, fmt.Errorf("experiments: E12 fleet size %d", n)
		}
		// Uniform durations bounded away from zero keep Bag.Take's first-fit
		// hunt short (its min-duration cutoff) on queues tens of thousands
		// deep; heterogeneity comes from the 8× duration spread.
		fleet := station.MixedFleet(n, c)
		job := farm.Job{Tasks: task.Uniform(n*tasksPerStation, c/2, 4*c, cfg.Seed+int64(n))}
		f := farm.Farm{Stations: fleet, OpportunitiesPerStation: opportunitiesPer}
		start := time.Now()
		// Disjoint seed-stream ranges per fleet size (mc prefix stability).
		sums, err := f.Replicate(context.Background(), job, factory, mc.Config{
			Trials:  trials,
			Seed:    cfg.Seed + int64(i)<<32,
			Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000 / float64(trials)
		completion := sums[farm.MetricCompletionFrac]
		t.Row(n,
			sums[farm.MetricTasksCompleted].Mean,
			100*completion.Mean,
			100*stats.TCritical95(completion.N-1)*completion.SE,
			sums[farm.MetricImbalance].Mean,
			inCf(sums[farm.MetricKilledTicks].P99, c),
			sums[farm.MetricSteals].Mean,
			ms,
		)
	}
	t.Note("job scales with the fleet (%d tasks/station), so completion %% is comparable across rows", tasksPerStation)
	t.Note("p99 killed/c = 99th percentile over trials of lifespan destroyed by kills, from the bounded-error quantile sketch (internal/stats.Sketch)")
	t.Note("steals = mean cross-queue migrations per trial at round barriers; ms/trial = engine wall-clock, the only column allowed to vary with -workers")
	return t, nil
}
