package fleet

import (
	"context"

	"cyclesteal/internal/farm"
	"cyclesteal/internal/quant"
)

// StationReport describes one station's contribution, in caller time units.
type StationReport struct {
	Station        int
	Opportunities  int     // owner contracts actually played
	Lifespan       float64 // borrowed time offered across those contracts
	Work           float64 // fluid work banked: Σ (period − setup) over completed periods
	TaskWork       float64 // total duration of completed tasks
	TasksCompleted int
	Interrupts     int
	Idle           float64 // borrowed time never scheduled
	Killed         float64 // borrowed time destroyed by draconian kills
}

// Result aggregates one fleet run, in caller time units.
type Result struct {
	Stations       []StationReport
	TasksCompleted int
	TasksLeft      int     // job tasks never completed
	TaskWork       float64 // completed task duration fleet-wide
	JobWork        float64 // the job's total task duration (as quantized)
	Work           float64 // fluid work banked fleet-wide
	Lifespan       float64 // borrowed time offered fleet-wide
	Interrupts     int
	Steals         int // cross-queue task migrations (Sharded runs)
	// InFlight counts tasks still crossing between clusters when the run
	// ended (Clusters ≥ 2 with StealLatency > 0 only); they never completed
	// and are included in TasksLeft.
	InFlight int
	// TasksLost counts tasks destroyed by injected faults (Config.Faults) —
	// queued work on fully crashed steal groups and parcels lost in
	// transit. Disjoint from TasksCompleted and TasksLeft; the three always
	// sum to the job's task count.
	TasksLost int
}

// Utilization is banked fluid work over offered lifespan — the fleet-survey
// figure of merit.
func (r Result) Utilization() float64 {
	if r.Lifespan == 0 {
		return 0
	}
	return r.Work / r.Lifespan
}

// CompletionFraction is completed task work over the job's total (1 for an
// empty job) — the shared-job figure of merit.
func (r Result) CompletionFraction() float64 {
	if r.JobWork == 0 {
		return 1
	}
	return r.TaskWork / r.JobWork
}

// Imbalance is max/mean per-station completed task work (1 = perfect
// balance); stations that completed nothing count toward the mean.
func (r Result) Imbalance() float64 {
	if len(r.Stations) == 0 {
		return 1
	}
	var sum, max float64
	for _, s := range r.Stations {
		sum += s.TaskWork
		if s.TaskWork > max {
			max = s.TaskWork
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(r.Stations)))
}

// Run farms the job across the fleet on the round engine: stations play
// in synchronized rounds, one opportunity each per round, drawing from the
// configured pool — stations grouped into Shards queues that rebalance by
// stealing only at round barriers, or, with a Private pool or an empty
// Job, one queue per station and every opportunity played. The result is a
// pure function of (Config, Job): Workers changes wall-clock time only.
// Cancelling ctx stops every station at its next opportunity boundary and
// returns ctx.Err().
//
// Each duration is converted once, straight into the queue and slot the
// round-robin deal gives it, and the queues take those hands as storage:
// the run holds no flat copy of the job.
func (f *Fleet) Run(ctx context.Context, job Job) (Result, error) {
	fm := f.batch(f.stations, len(job.Tasks))
	fj, work, err := f.dealtJob(job.Tasks, fm.Groups())
	if err != nil {
		return Result{}, err
	}
	stations, recorded, err := f.runStations()
	if err != nil {
		return Result{}, err
	}
	fm.Stations = stations
	res, err := fm.RunDeterministic(ctx, fj, f.factory, f.cfg.Seed, f.cfg.Workers)
	if err != nil {
		return Result{}, err
	}
	recorded()
	return f.result(res, work), nil
}

// RunDeterministic is Run, kept by name for callers that ask for the
// reproducible engine explicitly: every run is bit-identical at any
// Workers setting.
func (f *Fleet) RunDeterministic(ctx context.Context, job Job) (Result, error) {
	return f.Run(ctx, job)
}

// result converts the engine's tick-grid accounting to caller units.
// totalWork is the job's total quantized task time — for a batch run the
// Job's, for a resident service everything ever submitted.
func (f *Fleet) result(res farm.Result, totalWork quant.Tick) Result {
	out := Result{
		Stations:       make([]StationReport, len(res.Stations)),
		TasksCompleted: res.TasksCompleted,
		TasksLeft:      res.TasksLeft,
		TaskWork:       f.g.Units(res.TaskWork),
		JobWork:        f.g.Units(totalWork),
		Work:           f.g.Units(res.FluidWork),
		Interrupts:     res.Interrupts,
		Steals:         res.Steals,
		InFlight:       res.InFlight,
		TasksLost:      res.TasksLost,
	}
	for i, rep := range res.Stations {
		out.Stations[i] = StationReport{
			Station:        rep.Station,
			Opportunities:  rep.Opportunities,
			Lifespan:       f.g.Units(rep.LifespanTicks),
			Work:           f.g.Units(rep.FluidWork),
			TaskWork:       f.g.Units(rep.TaskWork),
			TasksCompleted: rep.TasksCompleted,
			Interrupts:     rep.Interrupts,
			Idle:           f.g.Units(rep.IdleTicks),
			Killed:         f.g.Units(rep.KilledTicks),
		}
		out.Lifespan += out.Stations[i].Lifespan
	}
	return out
}
