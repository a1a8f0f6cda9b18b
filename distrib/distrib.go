// Package distrib shards a replication study across worker processes and
// merges the streamed results bit-identical to a single-process
// fleet.Replicate.
//
// The unit of distribution is the fleet.Study shard: trial i runs on the
// deterministic stream for Seed+i and belongs to shard i mod
// fleet.StudyShards, so a shard's accumulators are a pure function of the
// study spec — the same bits wherever they are computed. A Coordinator
// deals shard ranges to workers, re-deals the ranges of workers that die
// (capped retries, then a loud error), and folds the returned shard states
// through fleet.Study.Merge, which re-validates every structural invariant
// a wire hop could corrupt. Workers are ordinary processes running Serve
// over stdin/stdout (cstealsweep hides one behind a flag), or in-process
// goroutines via InProcess for tests and single-machine fan-out.
//
// Everything on the wire is versioned JSONL — see the wire format notes on
// Frame — decoded strictly in the style of the WAL format: unknown fields,
// trailing data, out-of-range values and covers that do not partition the
// study are errors, never guesses. Every frame is byte for byte what
// encoding/json writes for it. The job crosses once, as integer ticks on
// the grid the spec names: NewSpec quantizes it, the coordinator encodes
// its study frame once and writes those bytes on every connection, keeping
// no copy of the job, and each worker deals the ticks straight into its
// study's hands.
package distrib

import (
	"fmt"
	"math"

	"cyclesteal/fleet"
)

// OwnerSpec is the wire form of one owner temperament: a named base shape
// plus an optional named wrapper. It covers the fleet owners whose behavior
// is a pure function of scalar parameters — the ones a study spec can
// reproduce in another process. Stateful owners (trace replay) and
// code-carrying owners (Custom, Scripted, SampledWorst) are not
// wire-expressible; fleet.Replicate rejects the stateful ones anyway.
type OwnerSpec struct {
	// Kind names the base temperament: "office", "laptop", "overnight" or
	// "fixed".
	Kind string `json:"kind"`
	// Param is the base temperament's scalar, in caller time units: mean
	// idle for office and laptop, window for overnight, lifespan for fixed.
	// 0 means the temperament's documented default.
	Param float64 `json:"param,omitempty"`
	// Interrupts is the per-contract allowance for kinds that take one
	// (office, fixed); 0 defers to the spec default and then the standard 2.
	Interrupts int `json:"interrupts,omitempty"`
	// Wrap optionally names an interrupt-behavior wrapper: "malicious",
	// "benign", "minimax", "poisson" or "stochastic". Empty means the bare
	// base temperament.
	Wrap string `json:"wrap,omitempty"`
	// WrapParam is the wrapper's scalar: the poisson mean absence (caller
	// units; 0 means half the contract lifespan) or the stochastic
	// per-episode interrupt probability. Other wrappers ignore it.
	WrapParam float64 `json:"wrap_param,omitempty"`
}

// Owner rebuilds the fleet owner the spec names.
func (o OwnerSpec) Owner() (fleet.Owner, error) {
	var base fleet.Owner
	switch o.Kind {
	case "office":
		base = fleet.Office{MeanIdle: o.Param, Interrupts: o.Interrupts}
	case "laptop":
		base = fleet.Laptop{MeanIdle: o.Param}
	case "overnight":
		base = fleet.Overnight{Window: o.Param}
	case "fixed":
		base = fleet.Fixed{Lifespan: o.Param, Interrupts: o.Interrupts}
	default:
		return nil, fmt.Errorf("distrib: unknown owner kind %q (want office, laptop, overnight or fixed)", o.Kind)
	}
	switch o.Wrap {
	case "":
		return base, nil
	case "malicious":
		return fleet.Malicious{Base: base}, nil
	case "benign":
		return fleet.Benign{Base: base}, nil
	case "minimax":
		return fleet.Minimax{Base: base}, nil
	case "poisson":
		return fleet.Poisson{Base: base, Mean: o.WrapParam}, nil
	case "stochastic":
		return fleet.Stochastic{Base: base, Prob: o.WrapParam}, nil
	default:
		return nil, fmt.Errorf("distrib: unknown owner wrap %q (want malicious, benign, minimax, poisson or stochastic)", o.Wrap)
	}
}

// OwnerSpecFor converts a fleet owner into its wire form, or reports that
// the owner is not wire-expressible: the spec grammar covers the four
// named base temperaments and one layer of named wrapper, nothing deeper.
func OwnerSpecFor(o fleet.Owner) (OwnerSpec, error) {
	wrap := func(name string, base fleet.Owner, param float64) (OwnerSpec, error) {
		s, err := OwnerSpecFor(base)
		if err != nil {
			return OwnerSpec{}, err
		}
		if s.Wrap != "" {
			return OwnerSpec{}, fmt.Errorf("distrib: owner %T cannot nest wrappers on the wire", o)
		}
		s.Wrap, s.WrapParam = name, param
		return s, nil
	}
	switch v := o.(type) {
	case fleet.Office:
		return OwnerSpec{Kind: "office", Param: v.MeanIdle, Interrupts: v.Interrupts}, nil
	case fleet.Laptop:
		return OwnerSpec{Kind: "laptop", Param: v.MeanIdle}, nil
	case fleet.Overnight:
		return OwnerSpec{Kind: "overnight", Param: v.Window}, nil
	case fleet.Fixed:
		return OwnerSpec{Kind: "fixed", Param: v.Lifespan, Interrupts: v.Interrupts}, nil
	case fleet.Malicious:
		return wrap("malicious", v.Base, 0)
	case fleet.Benign:
		return wrap("benign", v.Base, 0)
	case fleet.Minimax:
		return wrap("minimax", v.Base, 0)
	case fleet.Poisson:
		return wrap("poisson", v.Base, v.Mean)
	case fleet.Stochastic:
		return wrap("stochastic", v.Base, v.Prob)
	default:
		return OwnerSpec{}, fmt.Errorf("distrib: owner %T is not wire-expressible (only the named temperaments and single wrappers travel)", o)
	}
}

// Spec is the complete wire description of a replication study: the fleet
// configuration in the caller's continuous units, the job on its tick
// grid, and the trial count. Two processes building fleets from the same
// Spec produce interchangeable studies — that is the bit-identity contract
// distribution rests on. Per-process knobs that never affect results
// (worker pools, progress observers) deliberately do not travel.
type Spec struct {
	// Stations, Setup, Interrupts, Opportunities, Seed and TicksPerSetup
	// mirror the fleet.Config fields of the same names. NewSpec resolves
	// TicksPerSetup, so the spec names the grid its Ticks are on.
	Stations      int     `json:"stations"`
	Setup         float64 `json:"setup"`
	Interrupts    int     `json:"interrupts,omitempty"`
	Opportunities int     `json:"opportunities,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	TicksPerSetup int     `json:"ticks_per_setup,omitempty"`
	// Owners assigns station temperaments round-robin; empty means the
	// standard heterogeneous mix.
	Owners []OwnerSpec `json:"owners,omitempty"`
	// Policy and PolicyChunk name the period-sizing schedule; empty Policy
	// means the adaptive equalization default.
	Policy      string  `json:"policy,omitempty"`
	PolicyChunk float64 `json:"policy_chunk,omitempty"`
	// Pool names the task-pool layout: "sharded" (default), "shared" or
	// "private".
	Pool string `json:"pool,omitempty"`
	// Shards, Clusters and StealLatency mirror the fleet.Config topology
	// fields.
	Shards       int     `json:"pool_shards,omitempty"`
	Clusters     int     `json:"clusters,omitempty"`
	StealLatency float64 `json:"steal_latency,omitempty"`
	// Checkpoint* mirror the fleet.Config checkpointing fields.
	Checkpoint            float64 `json:"checkpoint,omitempty"`
	CheckpointAdaptive    bool    `json:"checkpoint_adaptive,omitempty"`
	CheckpointSaveCost    float64 `json:"checkpoint_save_cost,omitempty"`
	CheckpointRestartCost float64 `json:"checkpoint_restart_cost,omitempty"`
	// StationSummaries asks for per-station lifespan summaries (widening
	// every shard's metric vector, so it must agree fleet-wide).
	StationSummaries bool `json:"station_summaries,omitempty"`
	// Ticks is the job on the tick grid, Setup/TicksPerSetup caller units
	// a tick: task i's duration, at least 1 (fleet.Fleet.JobTicks). Empty
	// replicates a pure fluid survey.
	Ticks []int64 `json:"tasks,omitempty"`
	// Trials is the study size. Required ≥ 1.
	Trials int `json:"trials"`
}

// NewSpec captures a fleet configuration, job and trial count as a wire
// spec, or reports why the configuration cannot travel (code-carrying
// owners, fault plans, recorders — anything that is not pure named data)
// or does not build a fleet. The job is quantized once, here, with
// fleet.New's and the intake's refusals.
func NewSpec(cfg fleet.Config, job fleet.Job, trials int) (Spec, error) {
	if cfg.Record != nil {
		return Spec{}, fmt.Errorf("distrib: a recording fleet cannot travel (and Replicate rejects it)")
	}
	if cfg.Faults.Active() {
		return Spec{}, fmt.Errorf("distrib: a fault plan cannot travel (and Replicate rejects it)")
	}
	s := Spec{
		Stations:              cfg.Stations,
		Setup:                 cfg.Setup,
		Interrupts:            cfg.Interrupts,
		Opportunities:         cfg.Opportunities,
		Seed:                  cfg.Seed,
		Policy:                cfg.Policy.Name,
		PolicyChunk:           cfg.Policy.Chunk,
		Pool:                  cfg.Pool.String(),
		Shards:                cfg.Shards,
		Clusters:              cfg.Clusters,
		StealLatency:          cfg.StealLatency,
		Checkpoint:            cfg.Checkpoint,
		CheckpointAdaptive:    cfg.CheckpointAdaptive,
		CheckpointSaveCost:    cfg.CheckpointSaveCost,
		CheckpointRestartCost: cfg.CheckpointRestartCost,
		StationSummaries:      cfg.StationSummaries,
		Trials:                trials,
	}
	for _, o := range cfg.Owners {
		os, err := OwnerSpecFor(o)
		if err != nil {
			return Spec{}, err
		}
		s.Owners = append(s.Owners, os)
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return Spec{}, err
	}
	if s.Ticks, err = f.JobTicks(job); err != nil {
		return Spec{}, err
	}
	s.TicksPerSetup = f.Ticks()
	return s, nil
}

// config rebuilds the fleet configuration the spec describes.
func (s Spec) config() (fleet.Config, error) {
	cfg := fleet.Config{
		Stations:              s.Stations,
		Setup:                 s.Setup,
		Interrupts:            s.Interrupts,
		Opportunities:         s.Opportunities,
		Seed:                  s.Seed,
		TicksPerSetup:         s.TicksPerSetup,
		Policy:                fleet.Policy{Name: s.Policy, Chunk: s.PolicyChunk},
		Shards:                s.Shards,
		Clusters:              s.Clusters,
		StealLatency:          s.StealLatency,
		Checkpoint:            s.Checkpoint,
		CheckpointAdaptive:    s.CheckpointAdaptive,
		CheckpointSaveCost:    s.CheckpointSaveCost,
		CheckpointRestartCost: s.CheckpointRestartCost,
		StationSummaries:      s.StationSummaries,
	}
	switch s.Pool {
	case "", "sharded":
		cfg.Pool = fleet.Sharded
	case "shared":
		cfg.Pool = fleet.Shared
	case "private":
		cfg.Pool = fleet.Private
	default:
		return fleet.Config{}, fmt.Errorf("distrib: unknown pool %q (want sharded, shared or private)", s.Pool)
	}
	for _, os := range s.Owners {
		o, err := os.Owner()
		if err != nil {
			return fleet.Config{}, err
		}
		cfg.Owners = append(cfg.Owners, o)
	}
	return cfg, nil
}

// Study builds the spec's fleet and deals its ticks into a study — the
// call every worker makes to run shards. All fleet.New and
// fleet.Fleet.StudyTicks validation applies.
func (s Spec) Study() (*fleet.Study, error) {
	f, err := s.buildFleet()
	if err != nil {
		return nil, err
	}
	return f.StudyTicks(s.Ticks, s.Trials)
}

// buildFleet builds the fleet the spec describes.
func (s Spec) buildFleet() (*fleet.Fleet, error) {
	cfg, err := s.config()
	if err != nil {
		return nil, err
	}
	return fleet.New(cfg)
}

// maxStations bounds the fleet size a wire spec may name. The cap exists
// for the decoders: Study allocates per station, and a strict decoder must
// reject absurd sizes loudly instead of attempting the allocation.
const maxStations = 1 << 20

// Validate cheaply checks the wire-level invariants: field ranges, known
// owner and pool names, and ticks of at least 1 whose sum fits the grid.
// It never allocates proportionally to the spec's sizes — that is what
// lets decoders validate untrusted input safely. The full semantic
// validation (topology coherence) happens in fleet.New, which every
// consumer calls before running anything.
func (s Spec) Validate() error {
	if s.Stations < 1 || s.Stations > maxStations {
		return fmt.Errorf("distrib: stations must be in [1, %d], got %d", maxStations, s.Stations)
	}
	if !(s.Setup > 0) {
		return fmt.Errorf("distrib: setup cost must be > 0, got %g", s.Setup)
	}
	if s.Trials < 1 {
		return fmt.Errorf("distrib: trials must be ≥ 1, got %d", s.Trials)
	}
	if s.TicksPerSetup < 0 || s.Interrupts < 0 || s.Opportunities < 0 {
		return fmt.Errorf("distrib: negative grid, interrupt or opportunity count")
	}
	switch s.Pool {
	case "", "sharded", "shared", "private":
	default:
		return fmt.Errorf("distrib: unknown pool %q (want sharded, shared or private)", s.Pool)
	}
	for i, os := range s.Owners {
		if _, err := os.Owner(); err != nil {
			return fmt.Errorf("distrib: owner %d: %w", i, err)
		}
	}
	var work int64
	for i, t := range s.Ticks {
		if t < 1 {
			return fmt.Errorf("distrib: task %d duration must be ≥ 1 tick, got %d", i, t)
		}
		if work > math.MaxInt64-t {
			return fmt.Errorf("distrib: task %d: the job's total duration overflows the tick grid", i)
		}
		work += t
	}
	return nil
}
