package cyclesteal

import (
	"fmt"
	"slices"
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
	// work is then also reported task-granular. Simulate refuses, naming
	// the first such task, a duration that is NaN, infinite or negative or
	// that the tick grid cannot hold, and a list whose total the grid
	// cannot hold. It keeps no reference to the list, so a caller may
	// change it between calls; a list equal to the last one converted on
	// the call's pooled scratch is not converted to ticks again.
	TaskDurations []float64
}

// simScratch is the reusable state of one Simulate call: the simulator's
// episode and shipping buffers, the last task list converted on it, and
// the bag a call plays.
type simScratch struct {
	bufs sim.Buffers
	// durations and grid key hand: the last task list converted on this
	// scratch, as one hand of tasks on that grid, held in an array so that
	// task.Quantize fills it without allocating a slice of hands. The key
	// is the list's content, never its slice, since a caller may change a
	// list between calls, and Engines on other grids share the pool. An
	// empty durations is no key.
	durations []float64
	grid      quant.Grid
	hand      [1]task.Hand
	// tasks is the bag's storage, a fresh copy of hand each call: the bag
	// compacts and returns tasks in place, and hand must stay intact.
	tasks []task.Task
	bag   task.Bag
}

// simPool lends each Simulate call its scratch, so repeated simulations —
// Monte-Carlo trials above all, from one goroutine or many — allocate
// nothing once warm, and a run of trials over one task list converts it
// once per scratch.
var simPool = sync.Pool{New: func() any { return new(simScratch) }}

// intake returns durations as tasks on grid g, with their smallest
// duration. It converts them, by task.Quantize, only when they differ from
// the list it converted last; the hand it returns is the scratch's own, to
// be copied, not played.
func (s *simScratch) intake(durations []float64, g quant.Grid) (task.Hand, error) {
	if g == s.grid && slices.Equal(durations, s.durations) {
		return s.hand[0], nil
	}
	s.durations = s.durations[:0] // a refused list leaves no key behind
	n := len(durations)
	s.hand[0] = task.Hand{Tasks: slices.Grow(s.hand[0].Tasks[:0], n)[:n]}
	if _, err := task.Quantize(s.hand[:], durations, g); err != nil {
		return task.Hand{}, fmt.Errorf("cyclesteal: %w", err)
	}
	s.durations = append(s.durations, durations...)
	s.grid = g
	return s.hand[0], nil
}

// Simulate plays one opportunity of this engine's shape with the given
// schedule and adversary. Each call borrows pooled scratch, so concurrent
// calls are safe and repeated calls allocate nothing once warm; a task
// list equal to the last one converted on that scratch is taken as it was
// converted, not converted again. A schedule or adversary a constructor
// refused is refused here, with its cause.
func (e *Engine) Simulate(s Scheduler, adv Adversary, opts SimOptions) (Result, error) {
	if err := refused(s); err != nil {
		return Result{}, err
	}
	if err := refused(adv); err != nil {
		return Result{}, err
	}
	scratch := simPool.Get().(*simScratch)
	defer simPool.Put(scratch)
	cfg := sim.Config{Buffers: &scratch.bufs}
	var bag *task.Bag
	if len(opts.TaskDurations) > 0 {
		h, err := scratch.intake(opts.TaskDurations, e.g)
		if err != nil {
			return Result{}, err
		}
		scratch.tasks = append(scratch.tasks[:0], h.Tasks...)
		// A period ships at most what fits in the lifespan past its setup,
		// so the shipping buffer grows here, before the run, and never
		// inside it, whatever the owner does.
		scratch.bufs.ReserveTasks(min(len(h.Tasks), int((e.u-e.g.TicksPerSetup)/h.MinDur)))
		bag = &scratch.bag
		bag.Adopt(task.Hand{Tasks: scratch.tasks, MinDur: h.MinDur})
		cfg.Bag = bag
	}
	res, err := sim.Run(s, adv, sim.Opportunity{U: e.u, P: e.p, C: e.g.TicksPerSetup}, cfg)
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
	return adversary.GreedyEqualization{C: e.g.TicksPerSetup}
}

// PoissonAdversary returns an owner who comes back after an exponentially
// distributed absence with the given mean (caller's time units). An owner
// with a mean of 0 or +Inf never interrupts; a NaN or negative mean gives
// an owner Simulate refuses.
func (e *Engine) PoissonAdversary(meanReturn float64, seed int64) Adversary {
	if !(meanReturn >= 0) {
		return refusal{fmt.Errorf("cyclesteal: PoissonAdversary mean must be ≥ 0, got %g", meanReturn)}
	}
	return &adversary.Poisson{
		Rng:  lazyrand.New(seed),
		Mean: meanReturn / e.opp.Setup * float64(e.g.TicksPerSetup),
	}
}

// RandomAdversary returns an owner who interrupts each episode with the
// given probability at a uniform moment. A probability outside [0, 1], NaN
// included, gives an owner Simulate refuses.
func (e *Engine) RandomAdversary(prob float64, seed int64) Adversary {
	if !(prob >= 0 && prob <= 1) {
		return refusal{fmt.Errorf("cyclesteal: RandomAdversary probability must be in [0, 1], got %g", prob)}
	}
	return &adversary.Random{Rng: lazyrand.New(seed), Prob: prob}
}

// PeriodicAdversary returns an owner on a fixed routine, reclaiming the
// machine every `every` time units. A NaN, infinite or negative interval,
// or one the tick grid cannot hold, gives an owner Simulate refuses.
func (e *Engine) PeriodicAdversary(every float64) Adversary {
	t, err := e.g.Ticks(every)
	if err != nil {
		return refusal{fmt.Errorf("cyclesteal: PeriodicAdversary interval %w", err)}
	}
	return adversary.Periodic{U: e.u, Every: t}
}
