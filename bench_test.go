package cyclesteal

// Benchmark harness: one benchmark per reproduced artifact (Table 1, Table 2,
// and each figure-equivalent experiment E3–E10; see cstealtables -list), plus
// micro-benchmarks for the hot components (solvers, evaluators, simulator,
// fleet driver). Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks use bench-sized shapes (smaller than the
// presentation defaults in cmd/cstealtables) so a full -bench=. pass stays
// in the tens of seconds.

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"cyclesteal/internal/adversary"
	"cyclesteal/internal/experiments"
	"cyclesteal/internal/farm"
	"cyclesteal/internal/game"
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/station"
	"cyclesteal/internal/tab"
	"cyclesteal/internal/task"
)

var benchCfg = experiments.Config{C: 50, Seed: 1}

var sinkTable *tab.Table

func runExperiment(b *testing.B, run func(experiments.Config) (*tab.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := run(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

// BenchmarkTable1 regenerates the paper's Table 1 (E1).
func BenchmarkTable1(b *testing.B) {
	runExperiment(b, func(cfg experiments.Config) (*tab.Table, error) {
		return experiments.Table1(cfg, 1000*cfg.C, 2)
	})
}

// BenchmarkTable2 regenerates the paper's Table 2 (E2).
func BenchmarkTable2(b *testing.B) {
	runExperiment(b, func(cfg experiments.Config) (*tab.Table, error) {
		return experiments.Table2(cfg, []quant.Tick{100, 1000, 10000})
	})
}

// BenchmarkNonAdaptiveAnalysis regenerates the §3.1 analysis series (E3).
func BenchmarkNonAdaptiveAnalysis(b *testing.B) {
	runExperiment(b, func(cfg experiments.Config) (*tab.Table, error) {
		return experiments.NonAdaptiveAnalysis(cfg, []int{1, 2, 4, 8}, []quant.Tick{1000, 10000, 100000})
	})
}

// BenchmarkTheorem51 regenerates the Theorem 5.1 / equalization study (E4).
func BenchmarkTheorem51(b *testing.B) {
	runExperiment(b, func(cfg experiments.Config) (*tab.Table, error) {
		return experiments.EqualizationStudy(cfg, 4, []quant.Tick{2000})
	})
}

// BenchmarkOptimalityGap regenerates the §5.2 comparison (E5).
func BenchmarkOptimalityGap(b *testing.B) {
	runExperiment(b, func(cfg experiments.Config) (*tab.Table, error) {
		return experiments.OptimalityGap(cfg, []quant.Tick{1000, 10000})
	})
}

// BenchmarkProp41 regenerates the Prop. 4.1 property grid (E6).
func BenchmarkProp41(b *testing.B) {
	runExperiment(b, func(cfg experiments.Config) (*tab.Table, error) {
		return experiments.Prop41Grid(cfg, 4, 300*cfg.C)
	})
}

// BenchmarkStructure regenerates the Thm 4.2 / Obs (a) structure study (E7).
func BenchmarkStructure(b *testing.B) {
	runExperiment(b, func(cfg experiments.Config) (*tab.Table, error) {
		return experiments.OptimalStructure(cfg, 500*cfg.C)
	})
}

// BenchmarkGuaranteedVsExpected regenerates the two-submodel comparison (E8).
func BenchmarkGuaranteedVsExpected(b *testing.B) {
	runExperiment(b, func(cfg experiments.Config) (*tab.Table, error) {
		return experiments.GuaranteedVsExpected(cfg, 300*cfg.C, 2, 100)
	})
}

// BenchmarkAblationQuantum regenerates the grid-resolution ablation (E9a).
func BenchmarkAblationQuantum(b *testing.B) {
	runExperiment(b, func(cfg experiments.Config) (*tab.Table, error) {
		return experiments.AblationQuantum(cfg, []quant.Tick{10, 30, 100}, 500)
	})
}

// BenchmarkAblationGuideline regenerates the §3.2 design ablation (E9b).
func BenchmarkAblationGuideline(b *testing.B) {
	runExperiment(b, func(cfg experiments.Config) (*tab.Table, error) {
		return experiments.AblationGuideline(cfg, []int{1, 2, 3}, 1000*cfg.C)
	})
}

// BenchmarkAblationSolver regenerates the solver ablation (E9c).
func BenchmarkAblationSolver(b *testing.B) {
	runExperiment(b, func(cfg experiments.Config) (*tab.Table, error) {
		return experiments.AblationSolver(cfg, []quant.Tick{200, 400})
	})
}

// BenchmarkTaskGranularity regenerates the packing-loss study (E10).
func BenchmarkTaskGranularity(b *testing.B) {
	runExperiment(b, func(cfg experiments.Config) (*tab.Table, error) {
		return experiments.TaskGranularity(cfg, 500*cfg.C, []quant.Tick{1, 25, 50, 250})
	})
}

// BenchmarkFarmStudy regenerates the shared-job NOW study (E11).
func BenchmarkFarmStudy(b *testing.B) {
	runExperiment(b, func(cfg experiments.Config) (*tab.Table, error) {
		return experiments.FarmStudy(cfg, 8, 10, 5000, 3)
	})
}

// BenchmarkFarmFleetScale regenerates the fleet-scaling study (E12) at a
// bench-sized shape — the two-level deterministic engine end to end, with
// the 1000-station row exercising the sharded queues at depth.
func BenchmarkFarmFleetScale(b *testing.B) {
	runExperiment(b, func(cfg experiments.Config) (*tab.Table, error) {
		return experiments.FleetScale(cfg, []int{10, 100, 1000}, 4, 100, 2)
	})
}

// --- replication-engine benchmarks ----------------------------------------------
//
// BenchmarkMC* measure experiment E8 riding the internal/mc engine at 10k
// trials per (scheduler, owner) study. By the engine's seed-stream contract
// the two variants compute bit-identical tables; only wall-clock differs.
// Compare with:
//
//	go test -bench='BenchmarkMCGuaranteedVsExpected' -benchtime=3x
//
// On a single-core machine the variants tie; with ≥ 8 cores the parallel
// variant approaches an 8× speedup (trials are embarrassingly parallel and
// the merge is O(shards)).

func benchE8Workers(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	cfg := experiments.Config{C: 25, Seed: 1, Workers: workers}
	for i := 0; i < b.N; i++ {
		t, err := experiments.GuaranteedVsExpected(cfg, 100*cfg.C, 2, 10000)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

// BenchmarkMCGuaranteedVsExpected10kSerial is E8 at 10k trials on one worker.
func BenchmarkMCGuaranteedVsExpected10kSerial(b *testing.B) { benchE8Workers(b, 1) }

// BenchmarkMCGuaranteedVsExpected10kParallel8 is the same study on 8 workers.
func BenchmarkMCGuaranteedVsExpected10kParallel8(b *testing.B) { benchE8Workers(b, 8) }

// --- micro-benchmarks -----------------------------------------------------------

var sinkTick quant.Tick

// BenchmarkSolveFast measures the crossing-point solver: one forward pass
// per value row whose crossing pointer never moves back, O(pU) on every
// instance, into one int32 slab.
func BenchmarkSolveFast(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := game.Solve(3, 50000, 50)
		if err != nil {
			b.Fatal(err)
		}
		sinkTick = s.Value(3, 50000)
	}
}

// BenchmarkSolveReference measures the brute-force reference solver on a
// necessarily smaller instance (E9c quantifies the asymptotic gap).
func BenchmarkSolveReference(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := game.SolveReference(3, 2000, 50)
		if err != nil {
			b.Fatal(err)
		}
		sinkTick = s.Value(3, 2000)
	}
}

// BenchmarkEvaluateEqualized measures minimax evaluation of the equalization
// scheduler.
func BenchmarkEvaluateEqualized(b *testing.B) {
	eq, err := sched.NewAdaptiveEqualized(50)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := game.Evaluate(eq, 3, 50000, 50)
		if err != nil {
			b.Fatal(err)
		}
		sinkTick = w
	}
}

// BenchmarkEvaluateNonAdaptiveDirect measures the O(m·p) kill-set DP.
func BenchmarkEvaluateNonAdaptiveDirect(b *testing.B) {
	na, err := sched.NewNonAdaptive(1000000, 4, 50)
	if err != nil {
		b.Fatal(err)
	}
	periods := na.Periods()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := game.EvaluateNonAdaptive(periods, 4, 50)
		if err != nil {
			b.Fatal(err)
		}
		sinkTick = w
	}
}

// BenchmarkEpisodeEqualized measures equalization episode construction.
func BenchmarkEpisodeEqualized(b *testing.B) {
	eq, err := sched.NewAdaptiveEqualized(50)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep := eq.Episode(3, 500000)
		sinkTick = ep.Total()
	}
}

// BenchmarkEpisodeGuideline measures printed-guideline episode construction.
func BenchmarkEpisodeGuideline(b *testing.B) {
	ag, err := sched.NewAdaptiveGuideline(50)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep := ag.Episode(3, 500000)
		sinkTick = ep.Total()
	}
}

// BenchmarkSimulateOpportunity measures one full simulated opportunity with a
// task bag against a stochastic owner.
func BenchmarkSimulateOpportunity(b *testing.B) {
	eq, err := sched.NewAdaptiveEqualized(50)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tasks := task.Uniform(2000, 10, 200, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bag := task.NewBag(tasks)
		adv := &adversary.Poisson{Rng: rng, Mean: 30000}
		res, err := sim.Run(eq, adv, sim.Opportunity{U: 100000, P: 3, C: 50}, sim.Config{Bag: bag})
		if err != nil {
			b.Fatal(err)
		}
		sinkTick = res.Work
	}
}

// BenchmarkFleetRun measures the fleet survey on the round engine: 16
// Office stations, each playing all 10 of its opportunities in the Private
// layout.
func BenchmarkFleetRun(b *testing.B) {
	stations := make([]station.Workstation, 16)
	for i := range stations {
		stations[i] = station.Workstation{ID: i, Owner: station.Office{MeanIdle: 20000, MaxP: 2}, Setup: 50}
	}
	fleet := farm.Farm{Stations: stations, OpportunitiesPerStation: 10, Private: true}
	factory := func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
		return sched.NewAdaptiveEqualized(ws.Setup)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunDeterministic(context.Background(), farm.Job{}, factory, int64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		sinkTick = res.FluidWork
	}
}

// BenchmarkGuaranteedWorkFacade measures the end-to-end public API path.
func BenchmarkGuaranteedWorkFacade(b *testing.B) {
	e, err := New(Opportunity{Lifespan: 2000, Interrupts: 2, Setup: 2})
	if err != nil {
		b.Fatal(err)
	}
	s, err := e.AdaptiveEqualized()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := e.GuaranteedWork(s)
		if err != nil {
			b.Fatal(err)
		}
		if w <= 0 {
			b.Fatal("no work")
		}
	}
}

// BenchmarkEngineSimulate measures the public Engine.Simulate path: one
// opportunity at p = 2, U/c = 750 over 750 task durations, against one
// Poisson owner built outside the loop. After the warm-up call the engine
// runs on pooled scratch, so it reports 0 allocs/op, and every op takes
// the one list as the scratch converted it: a Monte-Carlo run's case.
// BenchmarkEngineSimulateFreshList prices an op that converts its list.
func BenchmarkEngineSimulate(b *testing.B) {
	e, eq, opts, mean := engineSimulateShape(b)
	adv := e.PoissonAdversary(mean, 1)
	if _, err := e.Simulate(eq, adv, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Simulate(eq, adv, opts)
		if err != nil {
			b.Fatal(err)
		}
		sinkTick = quant.Tick(res.Episodes)
	}
}

// BenchmarkEngineSimulateSeeded is BenchmarkEngineSimulate with a fresh
// Poisson owner per op, seeded inside the loop as a replication trial seeds
// it, so each op also pays for seeding the owner's stream.
func BenchmarkEngineSimulateSeeded(b *testing.B) {
	e, eq, opts, mean := engineSimulateShape(b)
	if _, err := e.Simulate(eq, e.PoissonAdversary(mean, 0), opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Simulate(eq, e.PoissonAdversary(mean, int64(i)), opts)
		if err != nil {
			b.Fatal(err)
		}
		sinkTick = quant.Tick(res.Episodes)
	}
}

// BenchmarkEngineSimulateFreshList is BenchmarkEngineSimulate with a new
// task list on every op: it alternates two lists of the same shape, the
// second the first rotated by one task, so every op converts its list to
// ticks. It reports 0 allocs/op once warm.
func BenchmarkEngineSimulateFreshList(b *testing.B) {
	e, eq, opts, mean := engineSimulateShape(b)
	d := opts.TaskDurations
	lists := [2]SimOptions{opts, {TaskDurations: append(slices.Clone(d[1:]), d[0])}}
	adv := e.PoissonAdversary(mean, 1)
	for _, o := range lists {
		if _, err := e.Simulate(eq, adv, o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Simulate(eq, adv, lists[i%2])
		if err != nil {
			b.Fatal(err)
		}
		sinkTick = quant.Tick(res.Episodes)
	}
}

// engineSimulateShape builds the Engine.Simulate benchmarks' inputs: an
// engine at p = 2, U/c = 750, its equalized schedule, 750 task durations in
// [c/2, 4c], and the Poisson owner's mean absence, U/3.
func engineSimulateShape(tb testing.TB) (*Engine, Scheduler, SimOptions, float64) {
	tb.Helper()
	const ratio, setup = 750, 5.0
	e, err := New(Opportunity{Lifespan: ratio * setup, Interrupts: 2, Setup: setup})
	if err != nil {
		tb.Fatal(err)
	}
	eq, err := e.AdaptiveEqualized()
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	opts := SimOptions{TaskDurations: make([]float64, ratio)}
	for i := range opts.TaskDurations {
		opts.TaskDurations[i] = float64(50+rng.Intn(351)) * setup / 100 // [c/2, 4c]
	}
	return e, eq, opts, ratio * setup / 3
}
