package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"cyclesteal/internal/adversary"
	"cyclesteal/internal/expect"
	"cyclesteal/internal/game"
	"cyclesteal/internal/mc"
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/stats"
	"cyclesteal/internal/tab"
)

// GuaranteedVsExpected is experiment E8: the two submodels side by side. Each
// scheduler is scored on (a) its guaranteed output against the minimax
// adversary and (b) its Monte-Carlo mean against benign stochastic owners.
// The guaranteed-output schedules give up a little expected yield to buy a
// dramatically better floor; the expected-optimal schedule (companion
// submodel, internal/expect) and the single long period are fragile.
//
// The Monte-Carlo columns run on the internal/mc replication engine: trial i
// of the Poisson study draws from seed stream cfg.Seed+i and the uniform-
// random study from the disjoint range starting at cfg.Seed+2³², so the
// table is a pure function of (cfg, U, p, trials) at any cfg.Workers, and
// widening trials extends both studies instead of rebasing them. All
// schedulers share the same adversary streams (common random numbers), which
// tightens the between-scheduler comparison.
func GuaranteedVsExpected(cfg Config, U quant.Tick, p int, trials int) (*tab.Table, error) {
	cfg = cfg.normalize()
	c := cfg.C
	if trials < 1 {
		return nil, fmt.Errorf("experiments: E8 needs trials ≥ 1, got %d", trials)
	}
	lambda := 3.0 / float64(U) // mean owner return ≈ U/3

	eq, err := sched.NewAdaptiveEqualized(c)
	if err != nil {
		return nil, err
	}
	ag, err := sched.NewAdaptiveGuideline(c)
	if err != nil {
		return nil, err
	}
	na, err := sched.NewNonAdaptive(U, p, c)
	if err != nil {
		return nil, err
	}
	es, err := expect.SolveExpected(U, c, lambda)
	if err != nil {
		return nil, err
	}
	schedulers := []model.EpisodeScheduler{
		eq, ag, na, es.Scheduler(), sched.SinglePeriod{}, sched.EqualSplit{M: 10},
	}

	t := tab.New(
		fmt.Sprintf("E8: guaranteed vs expected output (U/c = %s, p = %d, λ = 3/U, %d trials, c = %d ticks; units of c)",
			tab.FormatFloat(inC(U, c)), p, trials, c),
		"scheduler", "guaranteed", "mean vs poisson", "±95%", "mean vs random", "±95%", "min observed",
	)
	for _, s := range schedulers {
		guaranteed, err := game.Evaluate(s, p, U, c)
		if err != nil {
			return nil, err
		}
		poisson, err := monteCarlo(s, U, p, c, trials, func(rng *rand.Rand) sim.Interrupter {
			return &adversary.Poisson{Rng: rng, Mean: 1 / lambda}
		}, cfg.Seed, cfg.Workers)
		if err != nil {
			return nil, err
		}
		random, err := monteCarlo(s, U, p, c, trials, func(rng *rand.Rand) sim.Interrupter {
			return &adversary.Random{Rng: rng, Prob: 0.7}
		}, cfg.Seed+1<<32, cfg.Workers)
		if err != nil {
			return nil, err
		}
		minObs := poisson.Min
		if random.Min < minObs {
			minObs = random.Min
		}
		tcrit := stats.TCritical95(trials - 1)
		t.Row(model.NameOf(s),
			inC(guaranteed, c),
			poisson.Mean/float64(c), tcrit*poisson.SE/float64(c),
			random.Mean/float64(c), tcrit*random.SE/float64(c),
			minObs/float64(c),
		)
	}
	t.Note("guaranteed = exact minimax floor; means are Monte-Carlo over stochastic owners (draconian kills, opportunity continues after each interrupt)")
	t.Note("expected-optimal comes from the companion expected-output submodel (extension; see internal/expect)")
	t.Note("Monte-Carlo trials run on internal/mc: deterministic per-trial seed streams, bit-identical at any worker count")
	return t, nil
}

// newTrialScratch is the mc.NewState hook monteCarlo installs: one worker's
// simulator episode/task buffers. With them warm, the opportunity itself
// allocates nothing (see TestMonteCarloTrialAllocationFree and
// BenchmarkMCE8Trial*) — each trial pays only for its interrupter, since the
// rng is its worker's reseeded source.
func newTrialScratch() any { return new(sim.Buffers) }

// monteCarlo replicates one (scheduler, owner) pairing on the mc engine:
// each trial builds a fresh interrupter from its private seed stream and
// plays one opportunity against its worker's warm buffers. The buffers only
// change where allocations happen, so the summaries are bit-identical with
// or without them.
func monteCarlo(s model.EpisodeScheduler, U quant.Tick, p int, c quant.Tick, trials int,
	mk func(*rand.Rand) sim.Interrupter, seed int64, workers int) (stats.Summary, error) {
	return mc.RunState(context.Background(), mc.Config{Trials: trials, Seed: seed, Workers: workers}, newTrialScratch,
		func(rng *rand.Rand, state any) (float64, error) {
			res, err := sim.Run(s, mk(rng), sim.Opportunity{U: U, P: p, C: c}, sim.Config{Buffers: state.(*sim.Buffers)})
			if err != nil {
				return 0, err
			}
			return float64(res.Work), nil
		})
}
