// Package farm implements the setting of the paper's title: *data-parallel*
// cycle-stealing in a *network* of workstations. One job — a bag of
// indivisible tasks — is farmed out across every opportunity the fleet's
// owners offer: stations draw work from the job's task queues as their
// periods open, and killed periods return their in-flight tasks for
// rescheduling.
//
// This is the layer a downstream user runs, and the only station-driving
// loop in the repo: internal/station models who offers time and when they
// interrupt; internal/sched decides period sizing on each opportunity; this
// package binds them to a workload and reports job-level outcomes
// (completion fraction, work distribution across stations, lost-to-kills
// accounting). Every run — the batch RunDeterministic, ReplicateShards'
// trials, and the fleet package's resident service — plays on the one
// round engine, Core. Outside tests, the fleet package is its only
// importer: every experiment and command reaches the engine through
// fleet's front door.
//
// # Layouts
//
// A shared job is dealt round-robin across Shards station groups, each
// owning one queue; groups that run dry steal at round barriers (see
// RunDeterministic and Topology). The Private layout is the fleet survey:
// every station owns its own queue, nothing is ever stolen, and stations
// play out every opportunity whether or not their queues drain.
//
// # Determinism contract
//
// RunDeterministic executes the fleet in synchronized rounds — within a
// round each queue is touched by exactly one sequential station group, and
// queues rebalance by stealing only at round barriers, in station-group
// order. Every station draws contracts from its own rng stream derived from
// (seed, station ID) via station.RNG, so the entire result is a pure
// function of (fleet, job, factory, seed, Shards, Private): any inner
// worker count produces bit-identical results. ReplicateShards stacks that
// inside internal/mc's seed-stream contract — trial-level parallelism
// outside, station-group parallelism inside, split by mc.SplitWorkers — so
// fleet summaries stay bit-identical at any worker budget while fleets
// scale to thousands of stations.
package farm

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"cyclesteal/internal/fault"
	"cyclesteal/internal/mc"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/station"
	"cyclesteal/internal/task"
)

// Job is one data-parallel computation to farm across the fleet, dealt over
// the run's Groups() queues.
type Job struct {
	// Dealt holds one hand per group: hand g holds the tasks
	// task.Deal(tasks, Groups()) puts in hand g, with their smallest
	// duration. nil is the empty job. RunDeterministic takes each hand as
	// its queue's storage, with no copy, so a job is consumed by the one run
	// it is passed to. ReplicateShards takes it as a read-only template:
	// each trial copies its hands into storage the trial's mc worker keeps,
	// and no trial writes to the template.
	Dealt []task.Hand
}

// TotalWork returns the total task time of the job's hands.
func (j Job) TotalWork() quant.Tick {
	var work quant.Tick
	for _, h := range j.Dealt {
		work += task.Durations(h.Tasks)
	}
	return work
}

// StationReport describes one station's contribution to the job.
type StationReport struct {
	Station        int
	Opportunities  int
	LifespanTicks  quant.Tick // Σ U over contracts actually played
	FluidWork      quant.Tick // Σ (t ⊖ c) over completed periods
	TasksCompleted int
	TaskWork       quant.Tick
	Interrupts     int
	IdleTicks      quant.Tick
	KilledTicks    quant.Tick
}

// Result aggregates a farmed job.
type Result struct {
	Stations       []StationReport
	TasksCompleted int
	TaskWork       quant.Tick
	TasksLeft      int
	FluidWork      quant.Tick
	Interrupts     int
	// Steals counts cross-queue task movements: round-barrier migrations,
	// and a departed station's queue dealt back to the fleet. Cross-cluster
	// departures count when they depart.
	Steals int
	// InFlight counts tasks still crossing between clusters when the run
	// ended (a Topology with CrossLatency > 0 only). They never completed,
	// so they are included in TasksLeft.
	InFlight int
	// TasksLost counts tasks destroyed by injected faults (0 without a
	// Faults plan): queues that died with a crashed host and steal parcels
	// lost in transit. Lost tasks are neither completed nor left —
	// TasksCompleted + TasksLeft + TasksLost is the job's task count.
	TasksLost int
}

// CompletionFraction is completed task work over the job's total work
// (Job.TotalWork); an empty job reads 1.
func (r Result) CompletionFraction(total quant.Tick) float64 {
	if total == 0 {
		return 1
	}
	return float64(r.TaskWork) / float64(total)
}

// Imbalance returns max/mean of per-station completed task work (1 = perfect
// balance); stations that completed nothing are included in the mean.
func (r Result) Imbalance() float64 {
	if len(r.Stations) == 0 {
		return 1
	}
	var sum, max quant.Tick
	for _, s := range r.Stations {
		sum += s.TaskWork
		if s.TaskWork > max {
			max = s.TaskWork
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(r.Stations))
	return float64(max) / mean
}

// Farm binds a fleet to a job.
type Farm struct {
	Stations []station.Workstation
	// OpportunitiesPerStation is how many owner contracts each station works
	// through (a shared job may finish earlier; stations then stop
	// borrowing).
	OpportunitiesPerStation int
	// Shards fixes the station-group partition of a shared job: 0 = auto
	// (min(DefaultShards, len(Stations)) groups), 1 = one queue every
	// station plays against, n = exactly n groups (clamped to the fleet
	// size). Station i plays in group i mod groups, and each group owns one
	// queue, so the count is part of the determinism key.
	Shards int
	// Topology groups the shards into clusters and prices cross-cluster
	// steals (see Topology). The zero value is the flat fleet, bit-identical
	// to a Farm without the field. Must satisfy
	// Topology.Validate(ResolveShards(Shards, len(Stations))); it joins
	// Shards in the determinism key.
	Topology Topology
	// Private selects the fleet-survey layout: one group — and one queue —
	// per station, the job dealt round-robin across them, queues never
	// rebalanced, and every opportunity played even once the queues drain.
	// Shards and Topology do not apply.
	Private bool
	// Checkpoint, when ≥ 1, softens the draconian contract with intra-period
	// checkpointing at the given tick interval: a kill loses only the work
	// since the last completed save instead of the whole period (see
	// sim.Config.Checkpoint for the exact accounting). 0 — the zero value —
	// is the paper's pure draconian contract, bit-identical to a Farm without
	// the field.
	Checkpoint quant.Tick
	// CheckpointSaveCost, when ≥ 1, prices each intra-period checkpoint save
	// separately from the setup cost — the Young/Daly save overhead δ. 0
	// prices saves at the station's setup cost, bit-identical to the
	// behavior before the costs were split (see sim.Config.CheckpointSave).
	CheckpointSaveCost quant.Tick
	// CheckpointRestartCost, when ≥ 1, prices resuming from a saved
	// checkpoint: after a kill that banked saves, the next period reached
	// pays this on top of its setup (see sim.Config.CheckpointRestart). 0
	// makes restarts free, the pre-split behavior.
	CheckpointRestartCost quant.Tick
	// CheckpointAdaptive, when set, overrides Checkpoint per opportunity with
	// Young's rule from the P2P volunteer-computing analysis
	// (arXiv:0711.3949): interval k = round(√(2·s·U/(p+1))), the optimum that
	// balances save overhead s (CheckpointSaveCost, defaulting to the setup
	// cost c) against expected loss per kill. A pure function of the
	// contract, so the determinism contracts are untouched.
	CheckpointAdaptive bool
	// Faults, when active, injects the deterministic fault plan into
	// RunDeterministic: scheduled and sampled station crashes at round tops
	// (Crash semantics: an orphaned group's queue dies with its host, where
	// a graceful Leave drains it back), and cross-cluster parcel loss with
	// round-priced timeout, capped exponential retry backoff, and
	// degradation to intra-cluster scanning when the retry budget is spent.
	// In the Private layout a crashed station's own queue dies with it. A
	// batch run rejects a KillRound (there is no log to recover a batch run
	// from; that axis belongs to the resident service). The zero value
	// injects nothing, bit-identical to a Farm without the field.
	Faults fault.Plan
	// Progress, when non-nil, observes a run at every round barrier, where
	// the counts are exact and the callback sequence is itself a pure
	// function of the determinism key. The last snapshot reports where the
	// run ended, including when it plays no round, is cancelled or fails,
	// so a shutdown still observes how far the job got. The callback runs
	// on the round loop, so it must not block for long; observing never
	// affects results.
	Progress func(Progress)
}

// Progress is one observation of a farmed job in flight.
type Progress struct {
	// Completed counts tasks whose completing opportunity has ended, so no
	// kill can undo it.
	Completed int
	// Remaining counts tasks not yet completed: queued tasks plus parcels in
	// flight between clusters. Completed + Remaining + Lost is the job's
	// task count.
	Remaining int
	// Steals counts cross-queue task migrations so far (0 with one group or
	// the Private layout).
	Steals int
	// Lost counts tasks destroyed by injected faults so far (0 without a
	// fault plan): crashed hosts' queues and parcels lost in transit.
	Lost int
}

// shardCount resolves the Shards field against the fleet size.
func (f Farm) shardCount() int {
	return ResolveShards(f.Shards, len(f.Stations))
}

// Groups is the number of station groups, and queues, a run plays: one
// per station in the Private layout, else the resolved shard count. A job
// dealt for the run has this many hands.
func (f Farm) Groups() int {
	if f.Private {
		return len(f.Stations)
	}
	return f.shardCount()
}

// scaledLatency converts the topology's fleet-tick CrossLatency into
// steal-clock units (station-ticks): n stations play concurrently, so one
// fleet-tick of wall time is ≈ n station-ticks of played lifespan.
func (f Farm) scaledLatency() int64 {
	return int64(f.Topology.CrossLatency) * int64(len(f.Stations))
}

// assemble folds station reports into the job-level result.
func (f Farm) assemble(reports []StationReport, left, steals, inflight, lost int) Result {
	res := Result{Stations: reports, TasksLeft: left, Steals: steals, InFlight: inflight, TasksLost: lost}
	for _, r := range reports {
		res.TasksCompleted += r.TasksCompleted
		res.TaskWork += r.TaskWork
		res.FluidWork += r.FluidWork
		res.Interrupts += r.Interrupts
	}
	return res
}

// playOpportunity samples one owner contract and simulates it against the
// station's task source — the Core's inner step. The factory builds the
// scheduler the station plays for that contract; bufs is the group's
// simulator scratch.
func (f Farm) playOpportunity(rep *StationReport, ws station.Workstation, rng *rand.Rand, factory station.SchedulerFactory, src sim.TaskSource, bufs *sim.Buffers) error {
	contract := ws.Owner.Sample(rng)
	if contract.U < 1 {
		return nil
	}
	s, err := factory(ws, contract)
	if err != nil {
		return fmt.Errorf("farm: station %d: %w", ws.ID, err)
	}
	adv := ws.Owner.Interrupter(rng, contract)
	ck := f.Checkpoint
	if f.CheckpointAdaptive {
		save := f.CheckpointSaveCost
		if save < 1 {
			save = ws.Setup
		}
		ck = adaptiveCheckpoint(save, contract)
	}
	r, err := sim.Run(s, adv, sim.Opportunity{U: contract.U, P: contract.P, C: ws.Setup}, sim.Config{
		Bag:               src,
		Buffers:           bufs,
		Checkpoint:        ck,
		CheckpointSave:    f.CheckpointSaveCost,
		CheckpointRestart: f.CheckpointRestartCost,
	})
	if err != nil {
		return fmt.Errorf("farm: station %d: %w", ws.ID, err)
	}
	rep.Opportunities++
	rep.LifespanTicks += contract.U
	rep.FluidWork += r.Work
	rep.TasksCompleted += r.TasksCompleted
	rep.TaskWork += r.TaskWork
	rep.Interrupts += r.Interrupts
	rep.IdleTicks += r.IdleTicks
	rep.KilledTicks += r.KilledTicks
	return nil
}

// adaptiveCheckpoint is Young's rule specialized to the contract: with save
// cost s (CheckpointSaveCost when split, otherwise the setup cost — a
// checkpoint then writes the same state a setup restores), lifespan U and
// kill risk rising in p, the loss-minimizing interval is
// √(2·s·(mean time between failures)) ≈ √(2·s·U/(p+1)). Cheaper saves pull
// the interval down (checkpoint more often); the restart cost does not
// enter — Young's first-order optimum prices the save overhead against the
// expected loss, and restart is paid per kill regardless of the interval.
// Clamped to ≥ 1 so an adaptive run always checkpoints — the caller asked
// for bounded loss.
func adaptiveCheckpoint(s quant.Tick, contract station.Contract) quant.Tick {
	k := quant.Tick(math.Round(math.Sqrt(2 * float64(s) * float64(contract.U) / (float64(contract.P) + 1))))
	if k < 1 {
		k = 1
	}
	return k
}

// RunDeterministic farms the job with fully reproducible semantics at any
// worker count — the batch run, and the engine ReplicateShards runs inside
// the mc trial pool.
//
// Stations are partitioned into groups (station i in group i mod groups),
// each group owning one local task queue dealt round-robin from the job:
// shardCount() groups for a shared job, one per station in the Private
// layout. Execution proceeds in synchronized rounds, one opportunity
// per station per round: within a round, groups run concurrently but each
// group plays its stations *sequentially* against its own queue, so no queue
// is ever touched by two goroutines; at the round barrier, empty queues
// steal half the tasks of the first non-empty victim in deterministic cyclic
// group order — under a Topology, first within their own cluster, then (only
// when the cluster arrived collectively dry) across clusters, where a
// CrossLatency > 0 steal departs into a flight ledger and lands at the first
// barrier whose steal clock (Σ lifespans played) has reached its maturity.
// Stations stop borrowing when a barrier finds the whole job done (in-flight
// tasks count as not done); nothing is mid-opportunity when that check
// runs. Killed-period tasks return to the front of the running group's own
// queue. The Private layout never steals and never stops early: every
// station plays all its opportunities against its own queue.
//
// Every mutation is therefore ordered by (round, group, station index) — a
// pure function of (fleet, job, factory, seed, Shards, Private). Faults
// inject at round tops (see Farm.Faults). workers ≤ 0 lets each round pick
// (see Core.PlayRound); like mc.Config.Workers it changes wall-clock time
// only, never a bit of the result. Cancelling ctx stops every group at its
// next station boundary and returns ctx.Err(); a Progress observer fires at
// each round barrier, where the counts are exact and the callback sequence
// is itself a pure function of the same key.
//
// The job must have one hand per group, or none. It enters without a
// copy: each group's queue takes its hand as storage, so the run consumes
// the job.
func (f Farm) RunDeterministic(ctx context.Context, job Job, factory station.SchedulerFactory, seed int64, workers int) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(f.Stations)
	if n == 0 {
		return Result{}, fmt.Errorf("farm: empty fleet")
	}
	rounds := f.OpportunitiesPerStation
	if rounds < 1 {
		rounds = 1
	}
	if err := f.checkHands(job); err != nil {
		return Result{}, err
	}
	groups := f.Groups()
	if f.Private {
		f.Topology = Topology{} // no queue is ever stolen from
	} else if err := f.Topology.Validate(groups); err != nil {
		return Result{}, err
	}
	if f.Faults.Active() {
		if err := f.Faults.Validate(); err != nil {
			return Result{}, err
		}
		if f.Faults.KillRound > 0 {
			return Result{}, fmt.Errorf("farm: a batch run cannot recover a scheduler kill (no write-ahead log); KillRound belongs to the resident service")
		}
	}

	// A batch run is a thin shell over the event-driven Core: join the
	// whole fleet up front, take the job's hands, play bounded rounds. No
	// churn, no completion tracking. In the Private layout station i plays
	// hand i.
	core := f.NewCore(factory, seed, groups, n, false)
	for _, ws := range f.Stations {
		core.Join(ws)
	}
	core.AddDealt(job.Dealt)
	if f.Faults.Active() {
		// The plan's own seed wins; a zero-seed plan derives its draw stream
		// from the run seed, so replication stays replayable per trial.
		core.SetFaults(f.Faults.NewInjector(seed ^ FaultSeedSalt))
	}

	emitted := false // a round barrier has reported progress
	for round := 0; round < rounds; round++ {
		if !f.Private && core.Pending() == 0 {
			break // every task completed; no point borrowing more time
		}
		core.ApplyFaults(round, nil)
		if core.Live() == 0 {
			break // the whole fleet crashed; nobody left to play
		}
		if err := core.PlayRound(ctx, workers); err != nil {
			if f.Progress != nil {
				// The final-snapshot promise holds on failure too: stations
				// stop at opportunity boundaries (killed takes already
				// returned), so the counts are exact and a shutting-down
				// caller still observes how far the job got.
				f.Progress(core.Snapshot())
			}
			return Result{}, err
		}
		// Round-barrier progress: nothing is mid-opportunity here, so the
		// unscheduled count (queued + in flight) is exactly the
		// not-yet-completed count and the snapshot sequence is a pure
		// function of the determinism key.
		if f.Progress != nil {
			f.Progress(core.Snapshot())
			emitted = true
		}
	}

	if f.Progress != nil && !emitted {
		// Runs that never reach a round barrier (an empty shared job, or a
		// fleet that crashed before the first round) still promise one
		// final snapshot; every other run's last barrier already reported
		// this exact state.
		f.Progress(core.Snapshot())
	}
	return core.Result(), nil
}

// FaultSeedSalt derives a run's default fault-draw stream from its seed when
// the plan does not carry its own: distinct from the station streams (keyed
// by (seed, ID)) and the service's churn stream, so arming an inert plan
// never perturbs a single existing draw.
const FaultSeedSalt = 0x6661756c74 // "fault"

// Replication metric indexes: the order of a replication trial's metric
// vector, and of the summaries its merged shards give.
const (
	MetricTasksCompleted = iota // tasks completed fleet-wide
	MetricCompletionFrac        // completed task work / job total, in [0, 1]
	MetricFluidWork             // Σ (t ⊖ c) over completed periods, ticks
	MetricKilledTicks           // lifespan destroyed by draconian kills, ticks
	MetricInterrupts            // interrupts fleet-wide
	MetricImbalance             // max/mean per-station completed task work
	MetricSteals                // cross-queue task migrations per trial
	MetricTasksInFlight         // tasks still crossing clusters at trial end
	MetricTasksLost             // tasks destroyed by injected faults per trial
	MetricLifespan              // lifespan offered fleet-wide, ticks
	MetricTaskWork              // completed task duration fleet-wide, ticks
	MetricUtilization           // fluid work / lifespan, in [0, 1] (0 for no lifespan)
	NumMetrics
)

// checkHands refuses a dealt job that does not have one hand per group.
func (f Farm) checkHands(job Job) error {
	if groups := f.Groups(); job.Dealt != nil && len(job.Dealt) != groups {
		return fmt.Errorf("farm: job dealt over %d hands, but the run plays %d groups", len(job.Dealt), groups)
	}
	return nil
}

// trialVec builds the one replication trial closure every farm study
// executes, so the distributed and single-process paths cannot drift
// apart. stationCols widens the metric vector with one played-lifespan
// column per station.
//
// It also returns the mc state hook that gives each worker one set of
// group hands, sized to the job once: a trial refills them (see refill) and
// plays them as its queues, so no trial allocates or scatters its queues.
// An empty job keeps no hands: each trial plays it as it is.
func (f Farm) trialVec(ctx context.Context, job Job, factory station.SchedulerFactory, inner int, stationCols bool) (mc.NewState, mc.VecStateFunc) {
	trial := f
	trial.Progress = nil // per-trial round barriers are not job progress
	cols := f.ReplicateColumns(stationCols)
	total := job.TotalWork() // a property of the job: summed once, not per trial
	var newState mc.NewState
	if job.Dealt != nil {
		newState = func() any { return job.hands() }
	}
	return newState, func(rng *rand.Rand, state any) ([]float64, error) {
		run := job
		if hands, ok := state.([]task.Hand); ok {
			run = job.refill(hands)
		}
		res, err := trial.RunDeterministic(ctx, run, factory, rng.Int63(), inner)
		if err != nil {
			return nil, err
		}
		out := make([]float64, cols)
		fillMetrics(out, res, total)
		if stationCols {
			for i, s := range res.Stations {
				out[NumMetrics+i] = float64(s.LifespanTicks)
			}
		}
		return out, nil
	}
}

// hands allocates the group hands one replication worker keeps for the
// job: empty, each with room for exactly its dealt hand. The hands share
// one backing array, and each is capped at its own room, so a queue that
// outgrows its hand during a trial moves to new storage instead of writing
// into its neighbour's.
func (j Job) hands() []task.Hand {
	size := 0
	for _, h := range j.Dealt {
		size += len(h.Tasks)
	}
	storage := make([]task.Task, size)
	hands := make([]task.Hand, len(j.Dealt))
	for g, h := range j.Dealt {
		n := len(h.Tasks)
		hands[g].Tasks, storage = storage[:0:n], storage[n:]
	}
	return hands
}

// refill loads one trial's job into a worker's hands: a copy of each dealt
// hand (the template is only read). Each hand restarts from its own
// storage, whatever the previous trial's queue did with it.
func (j Job) refill(hands []task.Hand) Job {
	for g, h := range j.Dealt {
		hands[g] = task.Hand{Tasks: append(hands[g].Tasks[:0], h.Tasks...), MinDur: h.MinDur}
	}
	return Job{Dealt: hands}
}

// ReplicateColumns is the metric-vector width of a replication trial: the
// Metric* columns, plus one per-station lifespan column each when
// stationCols is set.
func (f Farm) ReplicateColumns(stationCols bool) int {
	if stationCols {
		return NumMetrics + len(f.Stations)
	}
	return NumMetrics
}

// ReplicateShards replays the farmed job over the named mc shards of a
// cfg.Trials-trial study and returns their partial accumulators, one
// summary column per Metric* constant (with stationCols, widened by one
// played-lifespan column per station). A complete cover merged by
// mc.MergeShards gives the study's summaries, bit for bit wherever each
// subset ran. The worker budget (cfg.Workers; 0 = GOMAXPROCS) is split by
// mc.SplitConfig into a two-level pool: trial-level parallelism outside
// (saturated first — it needs no coordination) and station-group
// parallelism inside each trial via RunDeterministic, so a
// thousand-station fleet exploits the machine even at low trial counts.
// Trial i derives its farm seed from the engine's deterministic stream for
// cfg.Seed+i, and neither level's worker count changes a bit. The job is a
// read-only template, refused without a hand per group.
func (f Farm) ReplicateShards(ctx context.Context, job Job, factory station.SchedulerFactory, cfg mc.Config, stationCols bool, shardIDs []int) ([]mc.ShardAccums, error) {
	if err := f.checkHands(job); err != nil {
		return nil, err
	}
	cfg, inner := mc.SplitConfig(cfg)
	newState, fn := f.trialVec(ctx, job, factory, inner, stationCols)
	return mc.RunVecShards(ctx, cfg, f.ReplicateColumns(stationCols), newState, fn, shardIDs)
}

// fillMetrics writes one trial's metric vector into out[:NumMetrics],
// indexed by the Metric* constants; total is the job's total work.
func fillMetrics(out []float64, res Result, total quant.Tick) {
	var killed, lifespan quant.Tick
	for _, s := range res.Stations {
		killed += s.KilledTicks
		lifespan += s.LifespanTicks
	}
	out[MetricTasksCompleted] = float64(res.TasksCompleted)
	out[MetricCompletionFrac] = res.CompletionFraction(total)
	out[MetricFluidWork] = float64(res.FluidWork)
	out[MetricKilledTicks] = float64(killed)
	out[MetricInterrupts] = float64(res.Interrupts)
	out[MetricImbalance] = res.Imbalance()
	out[MetricSteals] = float64(res.Steals)
	out[MetricTasksInFlight] = float64(res.InFlight)
	out[MetricTasksLost] = float64(res.TasksLost)
	out[MetricLifespan] = float64(lifespan)
	out[MetricTaskWork] = float64(res.TaskWork)
	if lifespan > 0 {
		out[MetricUtilization] = float64(res.FluidWork) / float64(lifespan)
	}
}
