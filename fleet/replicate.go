package fleet

import (
	"context"

	"cyclesteal/internal/stats"
)

// Summary describes one metric's distribution across a replication study.
// Quantiles come from the engine's bounded-error KLL-style sketch, so
// Median/P90/P99 carry a guaranteed rank-error bound and are independent of
// how trials were merged.
type Summary struct {
	N              int
	Mean           float64
	Std            float64 // sample standard deviation (n−1)
	SE             float64 // standard error of the mean
	Min, Max       float64
	Median         float64
	P90, P99       float64 // upper-tail quantiles (tail-risk views)
	CI95Lo, CI95Hi float64 // Student-t 95% interval for the mean (t(N−1)·SE)
}

// summary converts an engine summary, scaling every value field by k (the
// units-per-tick factor for tick-denominated metrics, 1 for counts and
// fractions).
func summary(s stats.Summary, k float64) Summary {
	return Summary{
		N:      s.N,
		Mean:   k * s.Mean,
		Std:    k * s.Std,
		SE:     k * s.SE,
		Min:    k * s.Min,
		Max:    k * s.Max,
		Median: k * s.Median,
		P90:    k * s.P90,
		P99:    k * s.P99,
		CI95Lo: k * s.CI95Lo,
		CI95Hi: k * s.CI95Hi,
	}
}

// Replication summarizes a replicated study, one Summary per metric, in
// caller time units where the metric is time-denominated. Every pool fills
// every metric (a Private pool never steals, so its Steals reads 0).
type Replication struct {
	Trials int
	// TasksCompleted counts tasks completed fleet-wide per trial.
	TasksCompleted Summary
	// Completion is completed task work over the job total, in [0, 1].
	Completion Summary
	// TaskWork is completed task duration fleet-wide, caller units.
	TaskWork Summary
	// Work is fluid work banked fleet-wide, caller units.
	Work Summary
	// Lifespan is borrowed time offered fleet-wide, caller units.
	Lifespan Summary
	// Utilization is Work/Lifespan, in [0, 1].
	Utilization Summary
	// Killed is borrowed time destroyed by draconian kills, caller units.
	Killed Summary
	// Interrupts counts owner interrupts fleet-wide per trial.
	Interrupts Summary
	// Imbalance is max/mean per-station completed task work.
	Imbalance Summary
	// Steals counts cross-queue task migrations per trial.
	Steals Summary
	// InFlight counts tasks still crossing between clusters at trial end
	// (Clusters ≥ 2 with StealLatency > 0 only).
	InFlight Summary
	// StationLifespan, filled when Config.StationSummaries is set,
	// summarizes each station's offered lifespan across trials (caller
	// units, indexed like the fleet's stations) — the across-trials
	// availability distribution per owner.
	StationLifespan []Summary
}

// Replicate replays the fleet trials times on the Monte-Carlo replication
// engine and summarizes each metric across trials. Trial i derives its
// fleet seed from the deterministic stream for Seed+i; the worker budget
// splits between trial-level and in-trial parallelism automatically, and
// the summaries are bit-identical at any Workers setting. Every trial is
// one Run of the job on the round engine. Cancelling ctx stops every worker
// at its next trial boundary and returns ctx.Err().
func (f *Fleet) Replicate(ctx context.Context, job Job, trials int) (Replication, error) {
	st, err := f.Study(job, trials)
	if err != nil {
		return Replication{}, err
	}
	var progress func(done, total int)
	if cb := f.cfg.Progress; cb != nil {
		// Trials-completed progress: the study-level signal Run's task-level
		// snapshots cannot give (trial-local snapshots are not study
		// progress, so per-trial observers stay off).
		progress = func(done, total int) {
			cb(Progress{Completed: done, Remaining: total - done})
		}
	}
	// Replicate IS the sharded study run over all shards: the single-process
	// and distributed paths share every line — engine core, shard cut, state
	// round trip, merge, assembly — so they cannot drift apart.
	results, err := st.RunShards(ctx, st.AllShards(), progress)
	if err != nil {
		return Replication{}, err
	}
	return st.Merge(results)
}
