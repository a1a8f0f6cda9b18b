package experiments

import (
	"context"
	"fmt"

	"cyclesteal/internal/farm"
	"cyclesteal/internal/mc"
	"cyclesteal/internal/model"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/station"
	"cyclesteal/internal/stats"
	"cyclesteal/internal/tab"
	"cyclesteal/internal/task"
)

// FarmStudy is experiment E11 (an extension beyond the paper's single-
// workstation analysis): one shared data-parallel job farmed across a NOW,
// comparing period-sizing policies by job completion, lifespan destroyed by
// kills, and load balance. It closes the loop on the paper's title — the
// per-opportunity guarantees of §3–5 compose into fleet-level throughput.
//
// Each policy is replicated trials times on the internal/mc engine (one
// whole farmed job per trial, over independent owner randomness), so the
// reported numbers are means with confidence intervals rather than one
// draw, and are bit-identical for a fixed cfg.Seed at any cfg.Workers.
func FarmStudy(cfg Config, stations, opportunitiesPer int, jobTasks int, trials int) (*tab.Table, error) {
	cfg = cfg.normalize()
	c := cfg.C
	if trials < 1 {
		return nil, fmt.Errorf("experiments: E11 needs trials ≥ 1, got %d", trials)
	}

	fleet := station.MixedFleet(stations, c)
	job := farm.Job{Tasks: task.Exponential(jobTasks, float64(2*c), cfg.Seed)}

	policies := []struct {
		name    string
		factory station.SchedulerFactory
	}{
		{"single-period", func(ws station.Workstation, ct station.Contract) (model.EpisodeScheduler, error) {
			return sched.SinglePeriod{}, nil
		}},
		{"fixed-chunk 25c", func(ws station.Workstation, ct station.Contract) (model.EpisodeScheduler, error) {
			return sched.FixedChunk{T: 25 * ws.Setup}, nil
		}},
		{"non-adaptive §3.1", func(ws station.Workstation, ct station.Contract) (model.EpisodeScheduler, error) {
			return sched.NewNonAdaptive(ct.U, ct.P, ws.Setup)
		}},
		{"adaptive equalized", func(ws station.Workstation, ct station.Contract) (model.EpisodeScheduler, error) {
			return sched.NewAdaptiveEqualized(ws.Setup)
		}},
	}

	t := tab.New(
		fmt.Sprintf("E11: shared job across a NOW (%d stations, %d tasks ≈ %s·c of work, c = %d ticks, %d trials)",
			stations, jobTasks, tab.FormatFloat(inC(job.TotalWork(), c)), c, trials),
		"policy", "tasks done", "completion %", "±95%", "killed/c", "interrupts", "imbalance",
	)
	for i, p := range policies {
		f := farm.Farm{Stations: fleet, OpportunitiesPerStation: opportunitiesPer}
		// Disjoint seed-stream ranges per policy. The stride is independent
		// of the trial count so widening trials extends each policy's
		// existing stream instead of rebasing it (mc prefix stability).
		sums, err := f.Replicate(context.Background(), job, p.factory, mc.Config{
			Trials:  trials,
			Seed:    cfg.Seed + int64(i)<<32,
			Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		completion := sums[farm.MetricCompletionFrac]
		t.Row(p.name,
			sums[farm.MetricTasksCompleted].Mean,
			100*completion.Mean,
			100*stats.TCritical95(completion.N-1)*completion.SE,
			inCf(sums[farm.MetricKilledTicks].Mean, c),
			sums[farm.MetricInterrupts].Mean,
			sums[farm.MetricImbalance].Mean,
		)
	}
	t.Note("killed/c = borrowed lifespan destroyed by draconian interrupts, in setup-cost units; all cells are means over %d replications", trials)
	t.Note("against stochastic owners the period-sized policies tie within ~1%% while the single period forfeits whole visits;")
	t.Note("the adaptive schedule's distinguishing edge is its worst-case floor (E4/E5), bought at no expected-throughput cost (E8)")
	return t, nil
}
