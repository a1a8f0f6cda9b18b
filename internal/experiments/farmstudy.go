package experiments

import (
	"context"
	"fmt"
	"math"

	"cyclesteal/fleet"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/stats"
	"cyclesteal/internal/tab"
)

// FarmStudy is experiment E11 (an extension beyond the paper's single-
// workstation analysis): one shared data-parallel job farmed across a NOW,
// comparing period-sizing policies by job completion, lifespan destroyed by
// kills, and load balance. It closes the loop on the paper's title — the
// per-opportunity guarantees of §3–5 compose into fleet-level throughput.
//
// The fleet is the facade's default owner mix (offices, laptops and
// overnight lab machines), on a grid of one tick per caller unit. Each
// policy is one fleet.Replicate of trials trials (one whole farmed job per
// trial, over independent owner randomness), so the reported numbers are
// means with confidence intervals rather than one draw, and are
// bit-identical for a fixed cfg.Seed at any cfg.Workers.
func FarmStudy(cfg Config, stations, opportunitiesPer int, jobTasks int, trials int) (*tab.Table, error) {
	cfg = cfg.normalize()
	c := cfg.C
	if trials < 1 {
		return nil, fmt.Errorf("experiments: E11 needs trials ≥ 1, got %d", trials)
	}

	// Exponential durations of mean 2c, cut to whole ticks of at least 1.
	durations := fleet.ExponentialTasks(jobTasks, float64(2*c), cfg.Seed)
	var total float64
	for i, d := range durations {
		durations[i] = max(1, math.Trunc(d))
		total += durations[i]
	}
	job := fleet.Job{Tasks: durations}

	policies := []struct {
		name   string
		policy fleet.Policy
	}{
		{"single-period", fleet.Policy{Name: "single"}},
		{"fixed-chunk 25c", fleet.Policy{Name: "fixedchunk", Chunk: float64(25 * c)}},
		{"non-adaptive §3.1", fleet.Policy{Name: "nonadaptive"}},
		{"adaptive equalized", fleet.Policy{Name: "equalized"}},
	}

	t := tab.New(
		fmt.Sprintf("E11: shared job across a NOW (%d stations, %d tasks ≈ %s·c of work, c = %d ticks, %d trials)",
			stations, jobTasks, tab.FormatFloat(inCf(total, c)), c, trials),
		"policy", "tasks done", "completion %", "±95%", "killed/c", "interrupts", "imbalance",
	)
	for i, p := range policies {
		fc := tickFleet(cfg, c, stations, opportunitiesPer)
		fc.Policy = p.policy
		// Disjoint seed-stream ranges per policy. The stride is independent
		// of the trial count so widening trials extends each policy's
		// existing stream instead of rebasing it (mc prefix stability).
		fc.Seed = cfg.Seed + int64(i)<<32
		rep, err := replicate(fc, job, trials)
		if err != nil {
			return nil, err
		}
		t.Row(p.name,
			rep.TasksCompleted.Mean,
			100*rep.Completion.Mean,
			100*stats.TCritical95(rep.Completion.N-1)*rep.Completion.SE,
			inCf(rep.Killed.Mean, c),
			rep.Interrupts.Mean,
			rep.Imbalance.Mean,
		)
	}
	t.Note("killed/c = borrowed lifespan destroyed by draconian interrupts, in setup-cost units; all cells are means over %d replications", trials)
	t.Note("against stochastic owners the period-sized policies tie within ~1%% while the single period forfeits whole visits;")
	t.Note("the adaptive schedule's distinguishing edge is its worst-case floor (E4/E5), bought at no expected-throughput cost (E8)")
	return t, nil
}

// tickFleet is the fleet the farm studies (E11, E12, E14) replicate:
// stations of setup cost c ticks on a grid of Setup c and TicksPerSetup c,
// so one caller unit is one tick, with the facade's default owner mix and
// policy until the study names its own.
func tickFleet(cfg Config, c quant.Tick, stations, opportunitiesPer int) fleet.Config {
	return fleet.Config{
		Stations:      stations,
		Setup:         float64(c),
		TicksPerSetup: int(c),
		Opportunities: opportunitiesPer,
		Seed:          cfg.Seed,
		Workers:       cfg.Workers,
	}
}

// replicate builds the fleet and replicates the job on it.
func replicate(fc fleet.Config, job fleet.Job, trials int) (fleet.Replication, error) {
	f, err := fleet.New(fc)
	if err != nil {
		return fleet.Replication{}, err
	}
	return f.Replicate(context.Background(), job, trials)
}
