// Package now composes workstations (internal/station) into the network of
// workstations the paper's schedules live in: a fleet of machines whose
// owners lend idle time under the draconian contract. (Availability traces
// — recording runs and replaying them — live in the public trace package
// and the fleet facade.)
//
// The model types (Contract, OwnerModel, Workstation, the owner
// temperaments, MixedFleet) live in internal/station and are aliased here,
// so fleet code keeps reading in the domain's vocabulary. The station-driving
// loop itself lives in internal/farm — the repo's single production engine —
// and Fleet is a thin adapter over it: Fleet.Run is farm.Farm.RunPool on a
// PrivatePools layout (each station drains only its own bag, so per-station
// results are a pure function of (seed, station) and the whole FleetResult
// is bit-identical at any worker count), and Fleet.Replicate stacks that
// inside internal/mc's seed-stream contract.
package now

import (
	"context"
	"fmt"
	"math/rand"

	"cyclesteal/internal/farm"
	"cyclesteal/internal/mc"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/station"
	"cyclesteal/internal/stats"
	"cyclesteal/internal/task"
)

// The NOW model vocabulary, re-exported from internal/station (the types
// moved down a layer so the farm engine and this package can share them
// without an import cycle).
type (
	// Contract is one cycle-stealing opportunity offered by an owner.
	Contract = station.Contract
	// OwnerModel samples contracts and plays the owner's interrupts.
	OwnerModel = station.OwnerModel
	// Workstation is one machine in the fleet.
	Workstation = station.Workstation
	// SchedulerFactory builds a scheduler per (workstation, contract).
	SchedulerFactory = station.SchedulerFactory
	// Office models a nine-to-five owner.
	Office = station.Office
	// Laptop models a machine that can be unplugged at any moment.
	Laptop = station.Laptop
	// Overnight models lab machines lent for a fixed nightly window.
	Overnight = station.Overnight
	// Malicious wraps an owner model with worst-case interrupt behavior.
	Malicious = station.Malicious
)

// MixedFleet builds the standard heterogeneous NOW used by the farm
// experiments (E11, E12) and the fleet-mode CLIs.
func MixedFleet(stations int, c quant.Tick) []Workstation {
	return station.MixedFleet(stations, c)
}

// StationResult aggregates one workstation's simulated opportunities.
type StationResult struct {
	Station        int
	Opportunities  int
	LifespanTicks  quant.Tick
	Work           quant.Tick
	TaskWork       quant.Tick
	TasksCompleted int
	Interrupts     int
	IdleTicks      quant.Tick
	KilledTicks    quant.Tick
}

// FleetResult aggregates a whole cluster run.
type FleetResult struct {
	Stations []StationResult
	Work     quant.Tick
	Lifespan quant.Tick
	TaskWork quant.Tick
	Tasks    int
}

// Utilization is banked work divided by offered lifespan, the fleet-level
// figure of merit.
func (f FleetResult) Utilization() float64 {
	if f.Lifespan == 0 {
		return 0
	}
	return float64(f.Work) / float64(f.Lifespan)
}

// Fleet is a collection of workstations driven over a horizon of
// opportunities — the survey view of a NOW: every station plays out all its
// contracts (no shared job to exhaust), optionally each against a private
// task bag.
//
// The embedded Farm is the engine the survey runs on, with every knob it
// honors: Stations, OpportunitiesPerStation, Workers (0 means GOMAXPROCS),
// the Checkpoint* policy, and Progress and ProgressInterval (with private
// bags, Completed counts tasks whose completing opportunity has ended,
// fleet-wide; observing never affects results). The pool-layout knobs
// (Shards, Topology) do not apply to private bags, and the live engine
// refuses active Faults.
type Fleet struct {
	farm.Farm
}

// pools builds the degenerate per-station task pool backing a run. It is a
// pure function of the fleet (tasksPer sees only the workstation), which is
// what keeps Run deterministic at any worker count.
func (f Fleet) pools(tasksPer func(ws Workstation) *task.Bag) *farm.PrivatePools {
	if tasksPer == nil {
		return farm.NewPrivatePools(nil)
	}
	bags := make([]*task.Bag, len(f.Stations))
	for i, ws := range f.Stations {
		bags[i] = tasksPer(ws)
	}
	return farm.NewPrivatePools(bags)
}

// Run simulates every station's opportunities on the farm engine
// (farm.Farm.RunPool over private per-station bags). Each station draws its
// contracts from station.RNG(seed, ID) and touches no shared task state, so
// the entire FleetResult — not just the aggregates — is bit-identical at any
// Workers setting. If tasksPer is non-nil, it supplies each station's
// private task bag. When several stations fail, the returned error joins
// every station's failure, in station order. Cancelling ctx stops every
// station at its next opportunity boundary and returns ctx.Err().
func (f Fleet) Run(ctx context.Context, factory SchedulerFactory, seed int64, tasksPer func(ws Workstation) *task.Bag) (FleetResult, error) {
	if len(f.Stations) == 0 {
		return FleetResult{}, fmt.Errorf("now: empty fleet")
	}
	res, err := f.RunPool(ctx, f.pools(tasksPer), factory, seed)
	if err != nil {
		return FleetResult{}, err
	}
	out := FleetResult{Stations: make([]StationResult, len(res.Stations))}
	for i, rep := range res.Stations {
		out.Stations[i] = StationResult{
			Station:        rep.Station,
			Opportunities:  rep.Opportunities,
			LifespanTicks:  rep.LifespanTicks,
			Work:           rep.FluidWork,
			TaskWork:       rep.TaskWork,
			TasksCompleted: rep.TasksCompleted,
			Interrupts:     rep.Interrupts,
			IdleTicks:      rep.IdleTicks,
			KilledTicks:    rep.KilledTicks,
		}
		out.Work += rep.FluidWork
		out.Lifespan += rep.LifespanTicks
		out.TaskWork += rep.TaskWork
		out.Tasks += rep.TasksCompleted
	}
	return out, nil
}

// Fleet replication metric indexes: the order of the summaries Replicate
// returns.
const (
	FleetMetricWork        = iota // fluid work banked fleet-wide, ticks
	FleetMetricLifespan           // lifespan offered fleet-wide, ticks
	FleetMetricUtilization        // work / lifespan, in [0, 1]
	FleetMetricTaskWork           // completed task duration fleet-wide, ticks
	FleetMetricTasks              // tasks completed fleet-wide
	FleetMetricInterrupts         // interrupts fleet-wide
	FleetMetricKilledTicks        // lifespan destroyed by draconian kills, ticks
	NumFleetMetrics
)

// Replicate replays the fleet survey cfg.Trials times on the internal/mc
// replication engine and returns one summary per metric, indexed by the
// FleetMetric* constants. Trial i derives its fleet seed from the engine's
// deterministic stream for cfg.Seed+i; the worker budget splits via
// mc.SplitWorkers into trials outside and stations inside (Run is
// bit-identical at any inner worker count), so the summaries are
// bit-identical at any cfg.Workers. tasksPer, when non-nil, is invoked fresh
// for every (trial, station) and must depend only on the workstation.
func (f Fleet) Replicate(ctx context.Context, factory SchedulerFactory, cfg mc.Config, tasksPer func(ws Workstation) *task.Bag) ([]stats.Summary, error) {
	cfg, inner := mc.SplitConfig(cfg)
	return mc.RunVec(ctx, cfg, NumFleetMetrics, f.trialVec(ctx, factory, inner, tasksPer))
}

// trialVec builds the one survey trial closure every fleet replication —
// whole-run or shard-subset — executes, so the distributed and
// single-process paths cannot drift apart.
func (f Fleet) trialVec(ctx context.Context, factory SchedulerFactory, inner int, tasksPer func(ws Workstation) *task.Bag) mc.VecFunc {
	inst := f
	inst.Workers = inner
	inst.Progress = nil // per-trial snapshots are not study progress
	return func(rng *rand.Rand) ([]float64, error) {
		res, err := inst.Run(ctx, factory, rng.Int63(), tasksPer)
		if err != nil {
			return nil, err
		}
		var interrupts int
		var killed quant.Tick
		for _, s := range res.Stations {
			interrupts += s.Interrupts
			killed += s.KilledTicks
		}
		out := make([]float64, NumFleetMetrics)
		out[FleetMetricWork] = float64(res.Work)
		out[FleetMetricLifespan] = float64(res.Lifespan)
		out[FleetMetricUtilization] = res.Utilization()
		out[FleetMetricTaskWork] = float64(res.TaskWork)
		out[FleetMetricTasks] = float64(res.Tasks)
		out[FleetMetricInterrupts] = float64(interrupts)
		out[FleetMetricKilledTicks] = float64(killed)
		return out, nil
	}
}

// ReplicateShards runs just the named mc shards of the survey study and
// returns their partial accumulators: the same trial closure Replicate
// drives, over exactly the trials those shards own, so a complete cover
// merged by mc.MergeShards reproduces the single-process summaries bit for
// bit wherever each subset ran.
func (f Fleet) ReplicateShards(ctx context.Context, factory SchedulerFactory, cfg mc.Config, tasksPer func(ws Workstation) *task.Bag, shardIDs []int) ([]mc.ShardAccums, error) {
	cfg, inner := mc.SplitConfig(cfg)
	fn := f.trialVec(ctx, factory, inner, tasksPer)
	return mc.RunVecShards(ctx, cfg, NumFleetMetrics, nil,
		func(rng *rand.Rand, _ any) ([]float64, error) { return fn(rng) }, shardIDs)
}
