// Package fleet is the public front door to the library's network-of-
// workstations engines: one data-parallel job farmed across a whole NOW
// (the setting of the paper's title), or a fleet survey where every station
// plays out its own opportunities. It wraps the internal farm/station
// machinery the way the root cyclesteal.Engine wraps the single-opportunity
// simulator: callers speak continuous time units and name owner
// temperaments and scheduling policies; internally everything quantizes
// onto an exact integer tick grid.
//
// # Quick start
//
//	f, err := fleet.New(fleet.Config{
//		Stations:      64,   // owners lend idle time under the draconian contract
//		Setup:         5,    // seconds per work hand-off
//		Opportunities: 20,   // owner contracts each station works through
//		Seed:          1,
//	})
//	if err != nil { ... }
//	res, err := f.Run(ctx, fleet.Job{Tasks: fleet.FixedTasks(10000, 12)})
//	if err != nil { ... }
//	fmt.Println(res.CompletionFraction(), res.Steals)
//
// # Pools
//
// Config.Pool picks how stations share the job. Sharded (the default) is
// the fleet-scale pool: stations grouped into Shards station groups, the
// job dealt round-robin across the groups' queues, and groups that run dry
// stealing at round barriers in deterministic order — use it for one
// shared job on a big fleet. Shared is the one-group baseline: every
// station plays against a single queue. Private gives every station its
// own slice of the job and nothing is shared — the fleet-survey semantics:
// stations play out every opportunity whether or not their tasks drain,
// and utilization is the figure of merit. An empty Job runs as a survey on
// every pool.
//
// # Determinism contract
//
// Every run plays on one round engine: stations advance in synchronized
// rounds, one opportunity each, every queue touched by one goroutine per
// round, and station contract streams derive from (Seed, station ID). Run
// and RunDeterministic — the same call — are therefore a pure function of
// the Config and Job, bit-identical at any Workers setting. Replicate
// stacks Run inside the Monte-Carlo engine's seed-stream contract: trial i
// always draws from stream Seed+i, so summaries are bit-identical at any
// Workers and raising the trial count extends a study without rebasing it.
//
// # Cancellation and observability
//
// Every run takes a context.Context; cancellation stops each station at
// its next opportunity boundary (Replicate: each worker at its next trial)
// and the run returns ctx.Err(). Config.Progress observes long runs: a
// snapshot at every round barrier, where the counts are exact
// (Replicate: trials-completed snapshots).
//
// # Open owner model
//
// Owners are an interface, not an enum. The named temperaments (office,
// laptop, overnight, fixed — see Owners and OwnerByName) cover the paper's
// settings; beyond them, CustomOwner injects any availability process in
// caller units, and the adversarial wrappers (Benign, Scripted, Stochastic,
// Poisson, Malicious, SampledWorst, Minimax) replace any base owner's
// interrupt behavior — Minimax being the exact best-response adversary from
// the game value tables, the guaranteed-output floor. Set Config.Record to
// a trace.NewRecorder and any successful run publishes the cyclesteal/trace
// history that reproduces it; Replay plays such a trace back through any
// policy, bit-identically at any Workers setting. See ExampleReplay.
//
// # Resident service
//
// Service is the long-lived face of the same engines: NewService stands up
// a resident fleet that accepts a stream of jobs from multiple tenants
// (Submit), multiplexes them fairly, and keeps working while stations join
// and leave mid-flight (ChurnConfig, JoinStation, LeaveStation — a leaving
// station's queued tasks drain back to the pool). Config.Checkpoint
// softens the draconian contract with periodic intra-period saves, and
// CheckpointAdaptive picks the interval per contract by Young's rule.
// Every submission, join, leave and policy change lands in
// ServiceResult.Events, and ReplayService replays the log bit-identically
// at any Workers setting; a zero-churn, zero-checkpoint service run is
// pinned bit-identical to batch RunDeterministic. See ExampleService.
package fleet

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"cyclesteal/internal/farm"
	"cyclesteal/internal/fault"
	"cyclesteal/internal/lazyrand"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/station"
	"cyclesteal/internal/task"
	"cyclesteal/trace"
)

// Pool selects the task-pool layout stations draw the job from.
type Pool int

const (
	// Sharded is the fleet-scale shared-job pool: per-group queues with
	// deterministic work stealing at round barriers. The default.
	Sharded Pool = iota
	// Shared is the one-queue baseline — simple, and fine for a dozen
	// stations.
	Shared
	// Private gives each station its own queue (the job dealt round-robin
	// across stations) and shares nothing: the fleet-survey semantics, with
	// every opportunity played out.
	Private
)

// String implements fmt.Stringer.
func (p Pool) String() string {
	switch p {
	case Sharded:
		return "sharded"
	case Shared:
		return "shared"
	case Private:
		return "private"
	default:
		return fmt.Sprintf("Pool(%d)", int(p))
	}
}

// Progress is one observation of a run in flight, delivered to
// Config.Progress.
type Progress struct {
	// Completed counts tasks whose completing opportunity has ended, so no
	// kill can undo it.
	Completed int
	// Remaining counts tasks not yet completed, in-flight work included.
	// Completed + Remaining + Lost is the job's task count.
	Remaining int
	// Steals counts cross-queue task migrations so far (0 for Shared and
	// Private pools).
	Steals int
	// Lost counts tasks destroyed by injected faults so far (0 without a
	// fault plan).
	Lost int
}

// Config describes a fleet in the caller's continuous time units.
type Config struct {
	// Stations is the fleet size. Required ≥ 1.
	Stations int
	// Setup is the per-period communication setup cost c — the price of
	// every work hand-off — in the caller's time units. Required > 0. It
	// also anchors the tick grid: one setup cost is TicksPerSetup ticks.
	Setup float64
	// Interrupts is the default per-contract interrupt allowance for owner
	// temperaments that take one (an Office owner may return this many
	// times per lent stretch). 0 means the standard allowance of 2. An
	// owner's own Interrupts field overrides it.
	Interrupts int
	// Owners assigns station temperaments: station i gets
	// Owners[i mod len(Owners)]. Empty means the standard heterogeneous
	// mix the experiments use — Office, Laptop, Overnight, round-robin.
	Owners []Owner
	// Policy is the period-sizing policy every station schedules with; the
	// zero value is the adaptive equalization schedule (Theorem 4.3), the
	// policy most callers want.
	Policy Policy
	// Opportunities is how many owner contracts each station works through
	// (the job may finish earlier; stations then stop borrowing). 0 means 1.
	Opportunities int
	// Pool picks the task-pool layout (see the Pool constants).
	Pool Pool
	// Shards is the Sharded pool's station-group count: 0 means auto (64,
	// clamped to the fleet size). Ignored by Shared and Private pools.
	Shards int
	// Clusters groups the Sharded pool's shards into a two-tier topology —
	// a NOW of NOWs. Steals inside a cluster stay free; a station reaches
	// across clusters only when its own cluster is collectively dry, and
	// with StealLatency > 0 the crossing puts the stolen tasks in flight,
	// unavailable to both sides, until that much fleet time has passed.
	// 0 and 1 both mean today's flat fleet, bit-identical to a Config
	// without the field. Requires the Sharded pool, Clusters ≤ Stations,
	// and a cluster count that partitions the resolved shard count evenly
	// (New lists the valid counts otherwise — never a silent adjustment).
	Clusters int
	// StealLatency is the cross-cluster transfer time in the caller's time
	// units (quantized to ≥ 1 tick when positive). 0 means cross steals are
	// free like local ones; > 0 requires Clusters ≥ 2.
	StealLatency float64
	// Workers bounds run parallelism; 0 means GOMAXPROCS (a run then gives
	// each worker at least 32 stations). A large job's intake also runs on
	// the workers, each converting and dealing at least 65,536 tasks. Never
	// affects results or errors — only wall-clock time.
	Workers int
	// Seed derives every station's deterministic contract stream (and, in
	// Replicate, the per-trial seed streams).
	Seed int64
	// TicksPerSetup is the grid resolution: integer ticks per setup cost.
	// 0 means 100, which keeps quantization error far below the paper's
	// low-order terms.
	TicksPerSetup int
	// Checkpoint, when > 0, softens the draconian contract with intra-period
	// checkpointing: stations save their state every Checkpoint time units
	// inside a period (each save costs one setup), so an owner's kill loses
	// only the work since the last completed save instead of the whole
	// period. 0 — the zero value — is the paper's pure draconian contract,
	// bit-identical to a Config without the field.
	Checkpoint float64
	// CheckpointAdaptive, when set, ignores Checkpoint and picks the save
	// interval per opportunity by Young's rule from the P2P
	// volunteer-computing analysis (arXiv:0711.3949): √(2·s·U/(p+1)) ticks
	// with s the save cost (CheckpointSaveCost, defaulting to the setup
	// cost), the optimum balancing save overhead against expected loss per
	// kill. A pure function of each contract, so every determinism contract
	// holds.
	CheckpointAdaptive bool
	// CheckpointSaveCost is the time one checkpoint save costs, in caller
	// units. 0 — the zero value — keeps the pre-split behaviour: each save
	// costs one setup. Young/Daly sweeps set it independently of Setup.
	CheckpointSaveCost float64
	// CheckpointRestartCost is the extra time a station pays, on top of the
	// ordinary setup, the first time it restarts from a saved checkpoint
	// after a kill. 0 means restarting is free beyond the setup itself —
	// the pre-split behaviour.
	CheckpointRestartCost float64
	// Faults is the run's fault-injection plan: seeded station crashes,
	// cross-cluster parcel loss, and a scheduler kill round. The zero value
	// injects nothing and is bit-identical to a Config without the field.
	// Run takes active plans on every pool, as does the resident Service;
	// Replicate rejects them. See FaultPlan for the knobs.
	Faults FaultPlan
	// StationSummaries, when set, makes Replicate also summarize each
	// station's offered lifespan across trials in
	// Replication.StationLifespan — the per-station availability
	// distribution operators capacity-plan against.
	StationSummaries bool
	// Progress, when non-nil, observes runs in flight: Run emits a snapshot
	// at every round barrier — a deterministic sequence — and a final one
	// when the last station finishes. Replicate emits wall-clock snapshots
	// of trials completed instead: Completed counts finished trials,
	// Remaining the trials still to run, Steals is 0. The callback must be
	// fast and must not assume a goroutine.
	Progress func(Progress)
	// ProgressInterval spaces Replicate's snapshots; 0 means 200ms.
	ProgressInterval time.Duration
	// Record, when non-nil, captures each run's availability trace: every
	// contract the owners offer and every return they place, published to
	// the recorder when the run completes (failed or cancelled runs publish
	// nothing). Replaying the trace (Replay owners, same Config otherwise)
	// reproduces the run bit-identically. A recorder holds one run's trace;
	// give concurrent runs their own recorders. Replicate rejects a
	// recording fleet.
	Record *trace.Recorder
}

// StationCrash schedules one deterministic station crash: at the top of
// round Round (before the round plays), station Station fails hard.
type StationCrash struct {
	Round   int
	Station int
}

// FaultPlan describes the faults injected into a run or a resident service
// session. Everything is seeded and replayable: the same plan over the
// same Config produces bit-identical outcomes at any Workers setting.
//
// A crash is harsher than a Service leave: a leaving station drains its
// queued tasks back to the fleet, a crashed one loses them. Queued work
// survives a crash only while some station of the same steal group is
// still alive to inherit the queue — a Private-pool station's queue is its
// own, so it always dies with it; in-flight parcels addressed to a fully
// crashed group are destroyed on arrival. Lost tasks are counted, never
// resurrected — only checkpointed fluid progress (Config.Checkpoint)
// bounds what an individual kill destroys.
type FaultPlan struct {
	// Seed derives the fault sampling streams. 0 means derive from
	// Config.Seed, so distinct fleet seeds get distinct fault streams.
	Seed int64
	// CrashProb is the per-station, per-round probability of a crash.
	// Must be in [0, 1); 0 disables random crashes.
	CrashProb float64
	// Crashes are deterministic scheduled crashes, applied before random
	// ones each round. Entries naming dead or out-of-range stations are
	// ignored.
	Crashes []StationCrash
	// LossProb is the probability that a cross-cluster parcel is lost in
	// transit. Must be in [0, 1); requires Clusters ≥ 2 and
	// StealLatency > 0 (free crossings cannot be lost). The requesting
	// station detects the loss when the parcel's priced deadline passes,
	// retries under capped exponential backoff, and after StealRetries
	// consecutive losses degrades to intra-cluster stealing for good.
	LossProb float64
	// StealRetries caps consecutive cross-steal losses before a station
	// group degrades to intra-cluster scanning. 0 means the default (3);
	// negative means degrade on the first loss.
	StealRetries int
	// KillRound, when > 0, kills the scheduler at the top of that round:
	// a resident Service stops mid-session with ErrSchedulerKilled, its
	// durable event log (ServiceConfig.WAL) ending exactly there, ready
	// for RecoverService. Batch runs reject KillRound — killing a batch
	// scheduler is just cancelling the run.
	KillRound int
}

// Active reports whether the plan injects anything.
func (p FaultPlan) Active() bool { return p.internal().Active() }

// internal converts the public plan to the engine's representation.
func (p FaultPlan) internal() fault.Plan {
	in := fault.Plan{
		Seed:         p.Seed,
		CrashProb:    p.CrashProb,
		LossProb:     p.LossProb,
		StealRetries: p.StealRetries,
		KillRound:    p.KillRound,
	}
	for _, c := range p.Crashes {
		in.Crashes = append(in.Crashes, fault.Crash{Round: c.Round, Station: c.Station})
	}
	return in
}

// Job is one data-parallel computation to farm across the fleet.
type Job struct {
	// Tasks are the indivisible task durations in the caller's time units.
	// Empty is valid: stations then bank fluid work only.
	Tasks []float64
}

// FixedTasks builds n task durations of d time units each.
func FixedTasks(n int, d float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// ExponentialTasks builds n exponentially distributed task durations with
// the given mean — the standard heterogeneous workload of the experiments.
func ExponentialTasks(n int, mean float64, seed int64) []float64 {
	rng := lazyrand.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.ExpFloat64() * mean
	}
	return out
}

// finite reports whether f is neither NaN nor ±Inf.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// quantizeFlat is task.Quantize into one hand: the job as one task list,
// task i at index i — the form a service keeps until it deals the job, and
// JobTicks gives. A job already on the grid — a study spec's or a logged
// submit's ticks — is dealt by dealTicks instead.
func quantizeFlat(g quant.Grid, durations []float64) ([]task.Task, quant.Tick, error) {
	hand := []task.Hand{{Tasks: make([]task.Task, len(durations))}}
	work, err := task.Quantize(hand, durations, g)
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: %w", err)
	}
	return hand[0].Tasks, work, nil
}

// checkpointTicks validates a caller-unit checkpoint interval and puts it
// on the grid, 0 staying 0 (no fixed interval).
func checkpointTicks(g quant.Grid, interval float64) (quant.Tick, error) {
	t, err := g.Ticks(interval)
	if err != nil {
		return 0, fmt.Errorf("fleet: checkpoint interval %w", err)
	}
	if interval == 0 {
		return 0, nil
	}
	return t, nil
}

// Fleet binds a Config to the tick grid and drives the internal engines.
// Build one with New; a Fleet is immutable and safe for concurrent runs
// (stateful owners — trace Replay — get fresh per-run models, and a
// recording fleet fresh per-run capture state, so even those share safely;
// only the one Recorder is last-run-wins across concurrent recorded runs).
type Fleet struct {
	cfg      Config
	g        quant.Grid
	owners   []Owner // resolved temperament cycle (never empty)
	stateful bool    // some owner carries per-run state; rebuild models per run
	stations []station.Workstation
	factory  station.SchedulerFactory
}

// New validates the configuration and builds a Fleet.
func New(cfg Config) (*Fleet, error) {
	if cfg.Stations < 1 {
		return nil, fmt.Errorf("fleet: need ≥ 1 station, got %d", cfg.Stations)
	}
	if !(cfg.Setup > 0) || !finite(cfg.Setup) {
		return nil, fmt.Errorf("fleet: setup cost must be > 0 and finite, got %g", cfg.Setup)
	}
	if cfg.TicksPerSetup < 0 {
		return nil, fmt.Errorf("fleet: ticks per setup must be ≥ 0, got %d", cfg.TicksPerSetup)
	}
	g := quant.Grid{Setup: cfg.Setup, TicksPerSetup: quant.DefaultTicksPerSetup}
	if cfg.TicksPerSetup > 0 {
		g.TicksPerSetup = quant.Tick(cfg.TicksPerSetup)
	}
	if cfg.Interrupts < 0 {
		return nil, fmt.Errorf("fleet: interrupt allowance must be ≥ 0, got %d", cfg.Interrupts)
	}
	if cfg.Opportunities < 0 {
		return nil, fmt.Errorf("fleet: opportunities must be ≥ 0, got %d", cfg.Opportunities)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("fleet: shards must be ≥ 0, got %d", cfg.Shards)
	}
	if cfg.Clusters < 0 {
		return nil, fmt.Errorf("fleet: clusters must be ≥ 0, got %d", cfg.Clusters)
	}
	if _, err := g.Ticks(cfg.StealLatency); err != nil {
		return nil, fmt.Errorf("fleet: steal latency %w", err)
	}
	if _, err := checkpointTicks(g, cfg.Checkpoint); err != nil {
		return nil, err
	}
	if _, err := g.Ticks(cfg.CheckpointSaveCost); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint save cost %w", err)
	}
	if _, err := g.Ticks(cfg.CheckpointRestartCost); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint restart cost %w", err)
	}
	if cfg.StealLatency > 0 && cfg.Clusters < 2 {
		return nil, fmt.Errorf("fleet: steal latency %g needs ≥ 2 clusters to cross, got %d", cfg.StealLatency, cfg.Clusters)
	}
	if cfg.Clusters > 1 {
		if cfg.Pool != Sharded {
			return nil, fmt.Errorf("fleet: clusters require the sharded pool, got %s", cfg.Pool)
		}
		if cfg.Clusters > cfg.Stations {
			return nil, fmt.Errorf("fleet: %d clusters over %d stations leaves some empty; need Clusters ≤ Stations", cfg.Clusters, cfg.Stations)
		}
		shards := farm.ResolveShards(cfg.Shards, cfg.Stations)
		if shards%cfg.Clusters != 0 {
			return nil, fmt.Errorf("fleet: %d clusters cannot partition %d shards evenly; valid cluster counts: %s",
				cfg.Clusters, shards, farm.DivisorList(shards))
		}
	}
	if err := cfg.Faults.internal().Validate(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if cfg.Faults.LossProb > 0 && (cfg.Clusters < 2 || !(cfg.StealLatency > 0)) {
		return nil, fmt.Errorf("fleet: parcel loss needs ≥ 2 clusters and StealLatency > 0 (free crossings cannot be lost), got %d clusters, latency %g",
			cfg.Clusters, cfg.StealLatency)
	}
	switch cfg.Pool {
	case Sharded, Shared, Private:
	default:
		return nil, fmt.Errorf("fleet: unknown pool %d", int(cfg.Pool))
	}
	owners := cfg.Owners
	if len(owners) == 0 {
		// The standard heterogeneous NOW of the experiments: offices,
		// laptops and overnight lab machines, round-robin.
		owners = []Owner{Office{}, Laptop{}, Overnight{}}
	}
	stateful := false
	for i, owner := range owners {
		if owner == nil {
			return nil, fmt.Errorf("fleet: Owners[%d] is nil", i)
		}
		stateful = stateful || statefulOwner(owner)
	}

	factory, err := cfg.Policy.factory(g)
	if err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, g: g, owners: owners, stateful: stateful, factory: factory}
	// Build (and thereby validate) the station models eagerly, so a bad
	// owner fails here rather than per run; stateless fleets reuse this set
	// for every run.
	if f.stations, err = f.buildStations(); err != nil {
		return nil, err
	}
	return f, nil
}

// buildStations quantizes the owner cycle onto the fleet's stations.
func (f *Fleet) buildStations() ([]station.Workstation, error) {
	stations := make([]station.Workstation, f.cfg.Stations)
	for i := range stations {
		ws, err := f.buildStation(i)
		if err != nil {
			return nil, err
		}
		stations[i] = ws
	}
	return stations, nil
}

// buildStation models station i under the owner cycle — the same rule for
// the initial fleet and for stations a resident Service joins later, so a
// station's temperament is a pure function of its ID.
func (f *Fleet) buildStation(i int) (station.Workstation, error) {
	owner := f.owners[i%len(f.owners)]
	om, err := owner.model(binding{g: f.g, defaultP: f.cfg.Interrupts, station: i, factory: f.factory})
	if err != nil {
		return station.Workstation{}, fmt.Errorf("fleet: station %d: %w", i, err)
	}
	return station.Workstation{ID: i, Owner: om, Setup: f.g.TicksPerSetup}, nil
}

// runStations prepares the engine-facing station set for one run — fresh
// models when some owner carries per-run state, recording wrappers when the
// run is being captured — and the hook the run must call on success (a
// no-op unless recording).
func (f *Fleet) runStations() ([]station.Workstation, func(), error) {
	noop := func() {}
	if !f.stateful && f.cfg.Record == nil {
		return f.stations, noop, nil
	}
	sts, err := f.buildStations()
	if err != nil {
		return nil, nil, err
	}
	if f.cfg.Record == nil {
		return sts, noop, nil
	}
	return sts, recordingStations(sts, f.g, f.cfg.Record), nil
}

// Config returns the configuration the fleet was built for.
func (f *Fleet) Config() Config { return f.cfg }

// Ticks reports the internal grid: ticks per setup cost.
func (f *Fleet) Ticks() int { return int(f.g.TicksPerSetup) }

// Units converts a tick count back to the caller's time units — useful for
// interpreting tick-grained diagnostics.
func (f *Fleet) Units(ticks int) float64 { return f.g.Units(quant.Tick(ticks)) }

// farm binds one run's station set onto the shared internal engine.
func (f *Fleet) farm(stations []station.Workstation) farm.Farm {
	fm := farm.Farm{
		Stations:                stations,
		OpportunitiesPerStation: f.cfg.Opportunities,
		Shards:                  f.shards(),
		Checkpoint:              f.configTicks(f.cfg.Checkpoint),
		CheckpointAdaptive:      f.cfg.CheckpointAdaptive,
		CheckpointSaveCost:      f.configTicks(f.cfg.CheckpointSaveCost),
		CheckpointRestartCost:   f.configTicks(f.cfg.CheckpointRestartCost),
	}
	fm.Faults = f.cfg.Faults.internal()
	if f.cfg.Clusters > 1 {
		fm.Topology = farm.Topology{Clusters: f.cfg.Clusters, CrossLatency: f.configTicks(f.cfg.StealLatency)}
	}
	if cb := f.cfg.Progress; cb != nil {
		fm.Progress = func(p farm.Progress) { cb(Progress(p)) }
	}
	return fm
}

// batch binds the engine for one batch job of n tasks: the farm, in the
// Private layout for a Private pool or an empty job — an empty job has
// nothing to share, so it is a pure fluid survey whatever the pool setting,
// every station playing out all its contracts.
func (f *Fleet) batch(stations []station.Workstation, n int) farm.Farm {
	fm := f.farm(stations)
	fm.Private = f.cfg.Pool == Private || n == 0
	return fm
}

// configTicks puts a duration of the Config on the grid: 0 stays exactly 0 (a
// free crossing, no checkpoint), any other rounds to at least one tick.
func (f *Fleet) configTicks(units float64) quant.Tick {
	if units == 0 {
		return 0
	}
	t, _ := f.g.Ticks(units) // New refused every duration Ticks refuses
	return t
}

// shards resolves the pool choice into the engine's station-group count.
func (f *Fleet) shards() int {
	if f.cfg.Pool == Shared {
		return 1
	}
	return f.cfg.Shards
}

// dealtJob validates the caller's task durations and quantizes them
// straight into a run's group queues, returning the job and its total
// work: hand g of groups gets tasks g, g+groups, g+2·groups, …, the deal
// farm.Core.AddTasks would make of the flat list. A run takes the hands as
// its queues' storage; a study's trials each copy them. An empty job stays
// empty.
//
// A large job is quantized on the run's workers (intakeWorkers), each
// sizing and filling its own range of hands. Every task gets
// task.Quantize's ticks in task.Quantize's slot, so the hands, the total
// and every error are the same at any Workers.
func (f *Fleet) dealtJob(durations []float64, groups int) (farm.Job, quant.Tick, error) {
	n := len(durations)
	if n == 0 {
		return farm.Job{}, 0, nil
	}
	hands := make([]task.Hand, groups)
	work, ok := quantizeSplit(f.g, hands, durations, f.intakeWorkers(n, groups))
	if !ok {
		// A worker met a refused task or an overflowing sum, or the partial
		// totals overflow once added; every task is at least one tick, so
		// the whole job's sum overflows too. task.Quantize over the same
		// hands stops at the first bad task in task order and names it, as
		// a serial intake does.
		_, err := task.Quantize(hands, durations, f.g)
		return farm.Job{}, 0, fmt.Errorf("fleet: %w", err)
	}
	return farm.Job{Dealt: hands}, work, nil
}

// minIntakeTasksPerWorker sizes dealtJob's split: each worker gets at
// least this many tasks. A split pays only where a core would otherwise
// idle. On a 2-vCPU host, one 1,000,000-task intake over 64 hands took
// 15.4–18.3 ms serial and 8.1–9.0 ms split in two; but two 100,000-task
// intakes at once, as a study cell's two in-process workers run them, took
// 2.3–3.0 ms serial against 2.5–3.2 ms split (3 runs each). This bound keeps
// such cells serial and splits a job in two from 131,072 tasks.
const minIntakeTasksPerWorker = 1 << 16

// intakeWorkers is how many goroutines dealtJob quantizes n tasks over
// groups hands on: Workers, or GOMAXPROCS when Workers ≤ 0, but at most one
// per hand and one per minIntakeTasksPerWorker tasks, and at least one.
func (f *Fleet) intakeWorkers(n, groups int) int {
	w := f.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(min(w, groups, n/minIntakeTasksPerWorker), 1)
}

// quantizeSplit sizes the hands and runs task.QuantizeRange on w ≤ len(hands)
// goroutines, the caller one of them: worker k sizes and fills the k-th of
// w contiguous ranges of hands (fillRange), so each hand and its MinDur
// belong to one worker; the partial totals add up after the join. At w = 1
// the caller fills every hand, and nothing but the hands is allocated. It
// returns the job's total ticks, or false, the hands sized but not all
// filled, when a worker stopped at a bad task or the partial totals
// overflow once added.
func quantizeSplit(g quant.Grid, hands []task.Hand, durations []float64, w int) (quant.Tick, bool) {
	G := len(hands)
	if w == 1 {
		work, stop := fillRange(g, hands, 0, G, durations)
		return work, stop < 0
	}
	type part struct {
		work quant.Tick
		stop int
	}
	parts := make([]part, w)
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func() {
			defer wg.Done()
			parts[k].work, parts[k].stop = fillRange(g, hands, k*G/w, (k+1)*G/w, durations)
		}()
	}
	parts[0].work, parts[0].stop = fillRange(g, hands, 0, G/w, durations)
	wg.Wait()
	var work quant.Tick
	for _, p := range parts {
		if p.stop >= 0 || work > math.MaxInt64-p.work {
			return 0, false
		}
		work += p.work
	}
	return work, true
}

// fillRange sizes hands[lo:hi] for the job (sizeHands) and fills them
// (task.QuantizeRange).
func fillRange(g quant.Grid, hands []task.Hand, lo, hi int, durations []float64) (quant.Tick, int) {
	sizeHands(hands, lo, hi, len(durations))
	return task.QuantizeRange(hands, lo, hi, durations, g)
}

// sizeHands gives hands[lo:hi] the storage of a round-robin deal of n
// tasks over all len(hands) hands, hand h holding tasks h, h+G, h+2·G, ….
func sizeHands(hands []task.Hand, lo, hi, n int) {
	per, extra := n/len(hands), n%len(hands)
	for h := lo; h < hi; h++ {
		m := per
		if h < extra {
			m++
		}
		hands[h].Tasks = make([]task.Task, m)
	}
}

// JobTicks quantizes the job onto the fleet's grid (Ticks per Setup) by
// Run's intake: task i's duration in ticks, at least 1 each, nil for an
// empty job. It refuses what Run refuses, in the same words. StudyTicks
// takes the result.
func (f *Fleet) JobTicks(job Job) ([]int64, error) {
	if len(job.Tasks) == 0 {
		return nil, nil
	}
	tasks, _, err := quantizeFlat(f.g, job.Tasks)
	if err != nil {
		return nil, err
	}
	return taskTicks(tasks), nil
}

// taskTicks lists the durations of a job's tasks in task order: the job on
// the grid, as JobTicks gives it.
func taskTicks(tasks []task.Task) []int64 {
	ticks := make([]int64, len(tasks))
	for i, t := range tasks {
		ticks[i] = t.Duration
	}
	return ticks
}

// dealTicks deals a job on the grid into hands as task.Quantize deals one
// in caller units and returns its total ticks. It refuses a tick below 1 or a
// total that overflows, naming the first such task.
func dealTicks(hands []task.Hand, ticks []int64) (quant.Tick, error) {
	sizeHands(hands, 0, len(hands), len(ticks))
	var work quant.Tick
	h, row := 0, 0
	for i, t := range ticks {
		if t < 1 {
			return 0, fmt.Errorf("fleet: task %d duration must be ≥ 1 tick, got %d", i, t)
		}
		if work > math.MaxInt64-t {
			return 0, fmt.Errorf("fleet: task %d: the job's total duration overflows the tick grid", i)
		}
		work += t
		hand := &hands[h]
		hand.Tasks[row] = task.Task{ID: i, Duration: t}
		if hand.MinDur == 0 || t < hand.MinDur {
			hand.MinDur = t
		}
		if h++; h == len(hands) {
			h, row = 0, row+1
		}
	}
	return work, nil
}
