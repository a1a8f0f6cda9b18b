package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"cyclesteal"
)

// The opportunity workload is the root Engine path cstealsim and Table 2
// use, on one goroutine. One op builds an Engine at p = 2, c = 5 with U/c
// drawn from the seed in [500, 1000], solves the game exactly
// (OptimalWork), evaluates the guideline and equalized schedules
// (GuaranteedWork), and simulates the equalized schedule against a Poisson
// owner with a task bag. Drawing a fresh lifespan per op keeps a cache
// shared across Engines from passing as a speed-up.
const (
	oppInterrupts   = 2
	oppSetup        = 5.0
	oppTrials       = 500
	oppOpsPerSecond = 33 // reference rate behind the fixed op count
)

// oppInput is one op's inputs.
type oppInput struct {
	lifespan float64
	tasks    []float64 // durations in [c/2, 4c] on the tick grid
	advSeed  int64     // trial t's owner uses advSeed+t
}

func oppInputs(rng *rand.Rand, n int) []oppInput {
	out := make([]oppInput, n)
	for i := range out {
		ratio := 500 + rng.Intn(501)
		in := oppInput{lifespan: float64(ratio) * oppSetup, tasks: make([]float64, ratio), advSeed: rng.Int63()}
		for k := range in.tasks {
			in.tasks[k] = float64(50+rng.Intn(351)) * oppSetup / 100
		}
		out[i] = in
	}
	return out
}

func runOpportunity(ctx context.Context, p params, tr *tracer) (*outcome, error) {
	o := &outcome{}
	ins, err := timeSetups(o, func() ([]oppInput, error) {
		rng := rand.New(rand.NewSource(p.seed))
		ins := oppInputs(rng, opCount(p.seconds, oppOpsPerSecond))
		for _, in := range oppInputs(rand.New(rand.NewSource(warmupSeed)), 3) {
			if _, err := runOpp(in, nil, -1); err != nil {
				return ins, err
			}
		}
		return ins, nil
	})
	if err != nil {
		return nil, err
	}
	var allocs []float64
	var episodes, interrupts, trials int
	for i, in := range ins {
		o.segmentRSS(i, len(ins))
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		o.attempted++
		a0 := heapAllocs()
		start := time.Now()
		st, err := runOpp(in, tr, i)
		end := time.Now()
		o.busy += end.Sub(start)
		o.latencies = append(o.latencies, end.Sub(start))
		if err != nil {
			o.fail("op %d (U = %g): %v", i, in.lifespan, err)
			continue
		}
		if tr == nil {
			continue
		}
		allocs = append(allocs, float64(heapAllocs()-a0-st.preSimAlloc)/1024/oppTrials)
		episodes += st.episodes
		interrupts += st.interrupts
		trials += oppTrials
	}
	o.segmentRSS(len(ins), len(ins))
	if tr != nil {
		o.layer = map[string]float64{
			"opportunity.op_p50_ms.game.solve_ms":         tr.medianOf("game.solve", time.Millisecond),
			"opportunity.op_p50_ms.game.evaluate_ms":      tr.medianOf("game.evaluate", time.Millisecond),
			"opportunity.op_p50_ms.sched.episode_us":      tr.medianOf("sched.episode", time.Microsecond),
			"opportunity.ops_per_s.sim.simulate_us":       tr.medianOf("sim.simulate", time.Microsecond),
			"opportunity.ops_per_s.sim.simulate_alloc_kb": median(allocs),
			"opportunity.exact.sim.episodes_per_trial":    float64(episodes) / float64(max(1, trials)),
			"opportunity.exact.sim.interrupts_per_trial":  float64(interrupts) / float64(max(1, trials)),
		}
	}
	return o, nil
}

// oppStats is what a traced op reports beyond its spans.
type oppStats struct {
	episodes, interrupts int
	preSimAlloc          uint64 // bytes allocated before the simulations
}

// runOpp plays one op and checks its outputs: OptimalWork ≥ each
// GuaranteedWork ≥ 0, and every simulated trial banks at least the
// equalized schedule's guaranteed floor.
func runOpp(in oppInput, tr *tracer, op int) (oppStats, error) {
	var st oppStats
	a0 := heapAllocs()
	parent := tr.open("opportunity.op", op, -1)
	defer tr.close(parent)
	eng, err := cyclesteal.New(cyclesteal.Opportunity{Lifespan: in.lifespan, Interrupts: oppInterrupts, Setup: oppSetup})
	if err != nil {
		return st, err
	}
	t0 := time.Now()
	opt, err := eng.OptimalWork()
	tr.add("game.solve", op, parent, t0, time.Now())
	if err != nil {
		return st, err
	}
	guide, err := eng.AdaptiveGuideline()
	if err != nil {
		return st, err
	}
	eq, err := eng.AdaptiveEqualized()
	if err != nil {
		return st, err
	}
	var floors [2]float64
	for k, s := range []cyclesteal.Scheduler{guide, eq} {
		t0 := time.Now()
		floors[k], err = eng.GuaranteedWork(s)
		tr.add("game.evaluate", op, parent, t0, time.Now())
		if err != nil {
			return st, err
		}
		if floors[k] < 0 || floors[k] > opt+1e-9*in.lifespan {
			return st, fmt.Errorf("guaranteed work %g outside [0, optimal %g]", floors[k], opt)
		}
	}
	if tr != nil {
		t0 := time.Now()
		eng.Episode(eq)
		tr.add("sched.episode", op, parent, t0, time.Now())
	}
	floor := floors[1]
	st.preSimAlloc = heapAllocs() - a0
	opts := cyclesteal.SimOptions{TaskDurations: in.tasks}
	for t := 0; t < oppTrials; t++ {
		t0 := time.Now()
		res, err := eng.Simulate(eq, eng.PoissonAdversary(in.lifespan/(oppInterrupts+1), in.advSeed+int64(t)), opts)
		tr.add("sim.simulate", op, parent, t0, time.Now())
		if err != nil {
			return st, err
		}
		if res.Work < floor-1e-9*in.lifespan {
			return st, fmt.Errorf("trial %d banked %g, below the guaranteed floor %g", t, res.Work, floor)
		}
		st.episodes += res.Episodes
		st.interrupts += res.Interrupts
	}
	return st, nil
}
