package fleet

import (
	"context"
	"fmt"
	"time"

	"cyclesteal/internal/farm"
	"cyclesteal/internal/mc"
	"cyclesteal/internal/station"
	"cyclesteal/internal/stats"
	"cyclesteal/internal/task"
)

// StudyShards is the fixed shard count every replication study is cut into.
// Trial i belongs to shard i mod StudyShards, and shard accumulators merge
// in shard index order, so a study partitioned across any number of workers
// — in any grouping, finishing in any order — reproduces the single-process
// summaries bit for bit. The count is part of the replication contract (like
// the seed-stream rule) and of the distrib wire format, so it cannot change
// without a format version bump.
const StudyShards = mc.Shards

// SketchState is the serializable state of a metric's quantile sketch: the
// KLL-style compactor hierarchy behind Median/P90/P99. Level l values carry
// weight 2^l; sketch merge is a level-wise union, so rebuilt sketches merge
// bit-identically regardless of where each shard ran.
type SketchState struct {
	// K is the per-level buffer capacity.
	K int `json:"k"`
	// N is the number of observations the sketch represents.
	N int64 `json:"n"`
	// Bound is the accumulated rank-error bound.
	Bound int64 `json:"bound"`
	// Parity holds each level's alternating-selection offset.
	Parity []bool `json:"parity,omitempty"`
	// Levels holds each level's retained values.
	Levels [][]float64 `json:"levels,omitempty"`
}

// AccumState is the serializable state of one metric's accumulator within
// one shard: Welford moments, exact extremes, and the quantile sketch. All
// floats are finite and round-trip exactly through JSON (Go marshals the
// shortest representation that parses back to the same bits), which is what
// keeps distributed merges bit-identical to in-process ones.
type AccumState struct {
	// N is the number of trials folded in.
	N int `json:"n"`
	// Mean and M2 are the Welford running mean and sum of squared deviations.
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	// Min and Max are the exact extremes (meaningful only when N ≥ 1).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Sketch is the quantile sketch state; nil when quantile tracking is
	// disabled for the column.
	Sketch *SketchState `json:"sketch,omitempty"`
}

// Validate checks the structural invariants the replication engine
// maintains by construction — a decoder feeding wire data through here gets
// a loud error instead of state that lies.
func (a AccumState) Validate() error {
	return a.internal().Validate()
}

func (a AccumState) internal() stats.AccumState {
	st := stats.AccumState{N: a.N, Mean: a.Mean, M2: a.M2, Min: a.Min, Max: a.Max}
	if a.Sketch != nil {
		st.Sketch = &stats.SketchState{
			K:      a.Sketch.K,
			N:      a.Sketch.N,
			Bound:  a.Sketch.Bound,
			Parity: a.Sketch.Parity,
			Levels: a.Sketch.Levels,
		}
	}
	return st
}

func accumState(st stats.AccumState) AccumState {
	a := AccumState{N: st.N, Mean: st.Mean, M2: st.M2, Min: st.Min, Max: st.Max}
	if st.Sketch != nil {
		a.Sketch = &SketchState{
			K:      st.Sketch.K,
			N:      st.Sketch.N,
			Bound:  st.Sketch.Bound,
			Parity: st.Sketch.Parity,
			Levels: st.Sketch.Levels,
		}
	}
	return a
}

// ShardResult is one shard's partial study state: a full accumulator per
// metric column, covering exactly the trials the shard owns. It is the unit
// of work the distrib package ships between processes.
type ShardResult struct {
	// Shard identifies the shard, in [0, StudyShards).
	Shard int `json:"shard"`
	// Metrics holds one accumulator state per metric column, indexed like
	// Study.MetricColumns describes.
	Metrics []AccumState `json:"metrics"`
}

// Validate checks shard range and every metric state's structural
// invariants. Study.Merge additionally checks the per-study facts
// (column count, per-shard trial count, complete cover).
func (r ShardResult) Validate() error {
	if r.Shard < 0 || r.Shard >= StudyShards {
		return fmt.Errorf("fleet: shard %d out of range [0, %d)", r.Shard, StudyShards)
	}
	for m, a := range r.Metrics {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("fleet: shard %d metric %d: %w", r.Shard, m, err)
		}
	}
	return nil
}

// Study is a replication study cut into StudyShards independent shards. It
// is the distribution-ready face of Replicate: RunShards computes any
// subset of shards (bit-identical wherever it runs, because trial seeds and
// within-shard order are pure functions of the study spec), and Merge folds
// a complete cover of shard results — from any mix of processes, arriving
// in any order — into the exact Replication a single-process Replicate
// returns.
//
// Two fleets built from the same Config produce interchangeable studies:
// results computed by one merge under the other. That is the contract the
// distrib package's coordinator/worker split rests on.
type Study struct {
	trials   int
	k        float64
	cfg      mc.Config // Progress left nil; RunShards installs per-call
	interval time.Duration
	factory  station.SchedulerFactory
	fm       farm.Farm
	fj       farm.Job
	statCols bool
}

// Study validates the job against the fleet and cuts a trials-sized
// replication into shards. It applies Replicate's rules: trials ≥ 1, no
// trace recording, no trace-replay owners, no active fault plans.
//
// The job is quantized once, straight into the hands of its group queues,
// as Run deals it. Every trial copies those hands into queue storage its
// worker keeps; no trial quantizes or deals the job again.
func (f *Fleet) Study(job Job, trials int) (*Study, error) {
	if err := f.checkStudy(trials); err != nil {
		return nil, err
	}
	fm := f.batch(f.stations, len(job.Tasks))
	fj, _, err := f.dealtJob(job.Tasks, fm.Groups())
	if err != nil {
		return nil, err
	}
	return f.newStudy(trials, fm, fj), nil
}

// StudyTicks is Study for a job already on the fleet's grid, as JobTicks
// gives it: the ticks are dealt straight into the group hands Study would
// build from the caller-unit job, with no second quantization, so the two
// studies are interchangeable. It refuses a tick below 1 and a job whose
// total overflows the grid, naming the task.
func (f *Fleet) StudyTicks(ticks []int64, trials int) (*Study, error) {
	if err := f.checkStudy(trials); err != nil {
		return nil, err
	}
	fm := f.batch(f.stations, len(ticks))
	var fj farm.Job
	if len(ticks) > 0 {
		fj.Dealt = make([]task.Hand, fm.Groups())
		if _, err := dealTicks(fj.Dealt, ticks); err != nil {
			return nil, err
		}
	}
	return f.newStudy(trials, fm, fj), nil
}

// checkStudy applies Replicate's rules to the fleet and the trial count.
func (f *Fleet) checkStudy(trials int) error {
	if trials < 1 {
		return fmt.Errorf("fleet: trials must be ≥ 1, got %d", trials)
	}
	if f.cfg.Record != nil {
		return fmt.Errorf("fleet: Replicate cannot record a trace: trials would overwrite one another — record a single Run or RunDeterministic instead")
	}
	if f.stateful {
		return fmt.Errorf("fleet: Replicate cannot drive trace-replay owners: a recorded trace names one run, not a distribution — use Run or RunDeterministic")
	}
	if f.cfg.Faults.Active() {
		return fmt.Errorf("fleet: Replicate rejects fault plans: a plan names one faulted run, not a distribution — sweep seeds over RunDeterministic instead")
	}
	return nil
}

// newStudy binds a study of trials over the job fj, dealt for fm.
func (f *Fleet) newStudy(trials int, fm farm.Farm, fj farm.Job) *Study {
	return &Study{
		trials:   trials,
		k:        f.g.Setup / float64(f.g.TicksPerSetup),
		cfg:      mc.Config{Trials: trials, Seed: f.cfg.Seed, Workers: f.cfg.Workers},
		interval: f.cfg.ProgressInterval,
		factory:  f.factory,
		fm:       fm,
		fj:       fj,
		statCols: f.cfg.StationSummaries,
	}
}

// Trials is the study's total trial count.
func (s *Study) Trials() int { return s.trials }

// ShardTrials is how many trials the given shard owns (0 for shards past
// the trial count or out of range). The per-shard counts over all
// StudyShards shards sum to Trials.
func (s *Study) ShardTrials(shard int) int { return mc.ShardTrials(s.trials, shard) }

// MetricColumns is the width of every shard's metric vector: the number of
// AccumState entries a ShardResult must carry. The column order is an
// internal engine detail — results only round-trip between Study values
// built from the same Config.
func (s *Study) MetricColumns() int {
	return s.fm.ReplicateColumns(s.statCols)
}

// AllShards lists every shard ID, 0..StudyShards−1.
func (s *Study) AllShards() []int {
	ids := make([]int, StudyShards)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// RunShards computes the named shards' trials and returns their partial
// accumulator states, one ShardResult per requested shard in request order.
// Shard IDs must be distinct and in range. The results are bit-identical
// wherever they are computed: trial i runs on the deterministic stream for
// Seed+i and lands in shard i mod StudyShards, in increasing trial order.
//
// progress, when non-nil, observes trials completed within this call's
// subset (total is the subset's trial count, not the study's); it is always
// called with a final snapshot before RunShards returns, even on error or
// cancellation. Cancelling ctx stops every worker at its next trial
// boundary and returns ctx.Err().
func (s *Study) RunShards(ctx context.Context, shardIDs []int, progress func(done, total int)) ([]ShardResult, error) {
	cfg := s.cfg
	cfg.Progress = progress
	cfg.ProgressInterval = s.interval
	shards, err := s.fm.ReplicateShards(ctx, s.fj, s.factory, cfg, s.statCols, shardIDs)
	if err != nil {
		return nil, err
	}
	out := make([]ShardResult, len(shards))
	for i, sh := range shards {
		res := ShardResult{Shard: sh.Shard, Metrics: make([]AccumState, len(sh.Accums))}
		for m, a := range sh.Accums {
			res.Metrics[m] = accumState(a.State())
		}
		out[i] = res
	}
	return out, nil
}

// Merge folds a complete cover of shard results — every shard exactly once,
// in any order, from any mix of processes — into the study's Replication.
// It re-validates everything a wire hop could corrupt: structural
// invariants per accumulator, the column count, and each shard's exact
// trial count. The merged summaries are bit-identical to a single-process
// Replicate of the same study.
func (s *Study) Merge(results []ShardResult) (Replication, error) {
	cols := s.MetricColumns()
	shards := make([]mc.ShardAccums, len(results))
	for i, r := range results {
		if r.Shard < 0 || r.Shard >= StudyShards {
			return Replication{}, fmt.Errorf("fleet: shard %d out of range [0, %d)", r.Shard, StudyShards)
		}
		if len(r.Metrics) != cols {
			return Replication{}, fmt.Errorf("fleet: shard %d carries %d metric columns, study has %d", r.Shard, len(r.Metrics), cols)
		}
		want := mc.ShardTrials(s.trials, r.Shard)
		accums := make([]*stats.Accumulator, cols)
		for m, st := range r.Metrics {
			a, err := stats.AccumulatorFromState(st.internal())
			if err != nil {
				return Replication{}, fmt.Errorf("fleet: shard %d metric %d: %w", r.Shard, m, err)
			}
			if a.N() != want {
				return Replication{}, fmt.Errorf("fleet: shard %d metric %d holds %d trials, shard owns %d", r.Shard, m, a.N(), want)
			}
			accums[m] = a
		}
		shards[i] = mc.ShardAccums{Shard: r.Shard, Accums: accums}
	}
	sums, err := mc.MergeShards(cols, shards)
	if err != nil {
		return Replication{}, err
	}
	return s.assemble(sums), nil
}

// assemble maps merged engine summaries onto the public Replication, in
// caller units — the same mapping for merged shard covers and whole
// single-process runs, which is what pins the two bit-identical.
func (s *Study) assemble(sums []stats.Summary) Replication {
	k := s.k
	rep := Replication{
		Trials:         s.trials,
		TasksCompleted: summary(sums[farm.MetricTasksCompleted], 1),
		Completion:     summary(sums[farm.MetricCompletionFrac], 1),
		TaskWork:       summary(sums[farm.MetricTaskWork], k),
		Work:           summary(sums[farm.MetricFluidWork], k),
		Lifespan:       summary(sums[farm.MetricLifespan], k),
		Utilization:    summary(sums[farm.MetricUtilization], 1),
		Killed:         summary(sums[farm.MetricKilledTicks], k),
		Interrupts:     summary(sums[farm.MetricInterrupts], 1),
		Imbalance:      summary(sums[farm.MetricImbalance], 1),
		Steals:         summary(sums[farm.MetricSteals], 1),
		InFlight:       summary(sums[farm.MetricTasksInFlight], 1),
	}
	if s.statCols {
		stationSums := sums[farm.NumMetrics:]
		rep.StationLifespan = make([]Summary, len(stationSums))
		for i, sum := range stationSums {
			rep.StationLifespan[i] = summary(sum, k)
		}
	}
	return rep
}
