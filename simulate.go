package cyclesteal

import (
	"math"
	"sync"

	"cyclesteal/internal/adversary"
	"cyclesteal/internal/lazyrand"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/task"
)

// Result reports one simulated opportunity in the caller's time units.
type Result struct {
	Work           float64 // fluid work banked (period length ⊖ setup, completed periods)
	TaskWork       float64 // total duration of completed tasks (task runs only)
	TasksCompleted int
	TasksRemaining int
	Episodes       int
	Interrupts     int
	SetupTime      float64 // lifespan spent on communication setups
	KilledTime     float64 // lifespan destroyed by interrupts
	IdleTime       float64 // lifespan never used
}

// SimOptions configures Simulate.
type SimOptions struct {
	// TaskDurations, when non-empty, attaches a bag of indivisible
	// data-parallel tasks (durations in the caller's time units); completed
	// work is then also reported task-granular.
	TaskDurations []float64
}

// simScratch is the reusable state of one Simulate call: the simulator's
// episode and shipping buffers, the tick-converted tasks, and the bag they
// refill.
type simScratch struct {
	bufs  sim.Buffers
	tasks []task.Task
	bag   task.Bag
}

// simPool lends each Simulate call its scratch, so repeated simulations —
// Monte-Carlo trials above all, from one goroutine or many — allocate
// nothing once warm.
var simPool = sync.Pool{New: func() any { return new(simScratch) }}

// Simulate plays one opportunity of this engine's shape with the given
// schedule and adversary. Each call borrows pooled scratch, so concurrent
// calls are safe and repeated calls allocate nothing once warm.
func (e *Engine) Simulate(s Scheduler, adv Adversary, opts SimOptions) (Result, error) {
	scratch := simPool.Get().(*simScratch)
	defer simPool.Put(scratch)
	cfg := sim.Config{Buffers: &scratch.bufs}
	var bag *task.Bag
	if len(opts.TaskDurations) > 0 {
		tasks := scratch.tasks[:0]
		for i, d := range opts.TaskDurations {
			ticks := quant.Tick(math.Round(d / e.opp.Setup * float64(e.ticksC)))
			if ticks < 1 {
				ticks = 1
			}
			tasks = append(tasks, task.Task{ID: i, Duration: ticks})
		}
		scratch.tasks = tasks
		bag = &scratch.bag
		bag.Reset(tasks)
		cfg.Bag = bag
	}
	res, err := sim.Run(s, adv, sim.Opportunity{U: e.u, P: e.p, C: e.ticksC}, cfg)
	if err != nil {
		return Result{}, err
	}
	out := Result{
		Work:           e.Units(res.Work),
		TaskWork:       e.Units(res.TaskWork),
		TasksCompleted: res.TasksCompleted,
		Episodes:       res.Episodes,
		Interrupts:     res.Interrupts,
		SetupTime:      e.Units(res.SetupTicks),
		KilledTime:     e.Units(res.KilledTicks),
		IdleTime:       e.Units(res.IdleTicks),
	}
	if bag != nil {
		out.TasksRemaining = bag.Remaining()
	}
	return out, nil
}

// --- adversary constructors -----------------------------------------------------

// NoAdversary returns the benign owner who never interrupts.
func (e *Engine) NoAdversary() Adversary { return adversary.None{} }

// LastPeriodAdversary returns the owner who unplugs at the last instant of
// whatever is running — the worst case for a single long period.
func (e *Engine) LastPeriodAdversary() Adversary { return adversary.LastPeriod{} }

// GreedyAdversary returns the equalization-damage heuristic owner (exactly
// optimal at p = 1 against single-long-period continuations).
func (e *Engine) GreedyAdversary() Adversary {
	return adversary.GreedyEqualization{C: e.ticksC}
}

// PoissonAdversary returns an owner who comes back after an exponentially
// distributed absence with the given mean (caller's time units).
func (e *Engine) PoissonAdversary(meanReturn float64, seed int64) Adversary {
	return &adversary.Poisson{
		Rng:  lazyrand.New(seed),
		Mean: meanReturn / e.opp.Setup * float64(e.ticksC),
	}
}

// RandomAdversary returns an owner who interrupts each episode with the
// given probability at a uniform moment.
func (e *Engine) RandomAdversary(prob float64, seed int64) Adversary {
	return &adversary.Random{Rng: lazyrand.New(seed), Prob: prob}
}

// PeriodicAdversary returns an owner on a fixed routine, reclaiming the
// machine every `every` time units.
func (e *Engine) PeriodicAdversary(every float64) Adversary {
	t := quant.Tick(math.Round(every / e.opp.Setup * float64(e.ticksC)))
	if t < 1 {
		t = 1
	}
	return adversary.Periodic{U: e.u, Every: t}
}
