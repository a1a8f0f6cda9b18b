// Package cyclesteal is a reproduction, as a usable Go library, of
//
//	Arnold L. Rosenberg, "Guidelines for Data-Parallel Cycle-Stealing in
//	Networks of Workstations, II: On Maximizing Guaranteed Output",
//	IPPS 1999.
//
// The model: workstation A borrows workstation B for a usable lifespan of U
// time units under a draconian contract — B's owner may interrupt up to p
// times, and an interrupt kills all work since the last checkpoint. A
// partitions the opportunity into periods; each period costs a communication
// setup c and banks its length minus c when it completes. The library
// provides:
//
//   - every schedule the paper derives (the §3.1 non-adaptive guideline, the
//     §3.2 adaptive guideline, the §5.2 optimal 1-interrupt schedule) plus
//     the equalization schedule that carries out Theorem 4.3's program for
//     every p, and baselines;
//   - an exact game solver for the optimal guaranteed output W(p)[U] and the
//     worst-case (minimax) evaluation of any schedule;
//   - a discrete-event simulator with malicious and stochastic owners and
//     data-parallel task bags;
//   - the closed-form theory for paper-vs-measured comparisons.
//
// # Quick start
//
//	eng, err := cyclesteal.New(cyclesteal.Opportunity{
//		Lifespan:   3600, // seconds of borrowed time
//		Interrupts: 2,    // owner may reclaim twice
//		Setup:      5,    // seconds per work hand-off
//	})
//	if err != nil { ... }
//	s, _ := eng.AdaptiveEqualized()
//	floor, _ := eng.GuaranteedWork(s) // seconds of work no adversary can deny
//
// All public Engine methods speak the caller's continuous time units;
// internally everything runs on an exact integer tick grid (see
// internal/quant). See the README for the system inventory and
// EXPERIMENTS.md for the reproduction results.
package cyclesteal

import (
	"fmt"
	"math"
	"sync"

	"cyclesteal/internal/game"
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/theory"
)

// Opportunity describes one cycle-stealing opportunity in the caller's time
// units: the guaranteed lifespan U, the interrupt allowance p, and the
// per-period communication setup cost c (§2.1 of the paper).
type Opportunity struct {
	Lifespan   float64
	Interrupts int
	Setup      float64
}

// Scheduler is the adaptive scheduling contract (§2.2): given the interrupts
// still outstanding and the residual lifespan in ticks, produce the episode
// to run until the next interrupt. All schedules in this library implement
// it; custom implementations can be evaluated and simulated the same way.
type Scheduler = model.EpisodeScheduler

// Adversary decides when the owner reclaims the workstation during a
// simulation. Implementations live in internal/adversary; the Engine exposes
// constructors for the common ones, and WorstCase returns the exact minimax
// adversary for a schedule. The episode an Adversary is shown is valid only
// during its NextInterrupt call: the simulator reuses that buffer.
type Adversary = sim.Interrupter

// Engine binds an Opportunity to a tick grid and provides schedule
// construction, exact worst-case evaluation, and simulation.
//
// An Engine is safe for concurrent use: every method may be called from
// several goroutines at once. The game solver behind Optimal, OptimalWork
// and OptimalSchedule is built once, by whichever call needs it first, and
// shared read-only afterwards; concurrent Simulate calls each borrow their
// own scratch. The schedulers the Engine hands out may be shared across
// goroutines too; a stochastic adversary carries its own random source and
// belongs to one goroutine.
type Engine struct {
	opp    Opportunity
	ticksC quant.Tick // grid resolution: ticks per setup cost
	u      quant.Tick
	p      int

	solveOnce sync.Once
	solver    *game.Solver // built by the first ensureSolver, with solveErr
	solveErr  error
}

// Option configures an Engine.
type Option func(*Engine) error

// WithTicksPerSetup sets the grid resolution: how many integer ticks
// represent one setup cost c. Higher is finer (and costlier to solve
// exactly). The default of 100 keeps quantization error far below the
// paper's low-order terms.
func WithTicksPerSetup(n int) Option {
	return func(e *Engine) error {
		if n < 1 {
			return fmt.Errorf("cyclesteal: ticks per setup must be ≥ 1, got %d", n)
		}
		e.ticksC = quant.Tick(n)
		return nil
	}
}

// New validates the opportunity and builds an Engine.
func New(o Opportunity, opts ...Option) (*Engine, error) {
	mo := model.Opportunity{Lifespan: o.Lifespan, Interrupts: o.Interrupts, Setup: o.Setup}
	if err := mo.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{opp: o, ticksC: 100, p: o.Interrupts}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	e.u = quant.Tick(math.Round(o.Lifespan / o.Setup * float64(e.ticksC)))
	if e.u < 1 {
		e.u = 1
	}
	return e, nil
}

// Opportunity returns the opportunity the engine was built for.
func (e *Engine) Opportunity() Opportunity { return e.opp }

// Ticks reports the internal grid: lifespan and setup cost in ticks.
func (e *Engine) Ticks() (U, c quant.Tick) { return e.u, e.ticksC }

// Units converts ticks back to the caller's time units.
func (e *Engine) Units(t quant.Tick) float64 {
	return float64(t) / float64(e.ticksC) * e.opp.Setup
}

// --- schedule constructors ----------------------------------------------------

// NonAdaptive returns the §3.1 guideline: m = ⌊√(pU/c)⌋ equal periods, tail
// semantics on interrupts, one long period after the last interrupt.
func (e *Engine) NonAdaptive() (Scheduler, error) {
	return sched.NewNonAdaptive(e.u, e.p, e.ticksC)
}

// AdaptiveGuideline returns the §3.2 printed guideline Σ_a. The scanned
// paper's adjustment-period constant is damaged; sched.AdaptiveGuideline
// documents the (p+½)c reading used here.
func (e *Engine) AdaptiveGuideline() (Scheduler, error) {
	return sched.NewAdaptiveGuideline(e.ticksC)
}

// AdaptiveEqualized returns the schedule obtained by carrying out Theorem
// 4.3's equalization program exactly — optimal to within low-order additive
// terms at every p, and the scheduler most callers want.
func (e *Engine) AdaptiveEqualized() (Scheduler, error) {
	return sched.NewAdaptiveEqualized(e.ticksC)
}

// OptimalP1 returns the closed-form optimal schedule for p = 1 (§5.2).
func (e *Engine) OptimalP1() (Scheduler, error) {
	return sched.NewOptimalP1(e.ticksC)
}

// Optimal returns the exactly optimal adaptive scheduler, backed by the game
// solver's value tables (computed on first use and cached).
func (e *Engine) Optimal() (Scheduler, error) {
	if err := e.ensureSolver(); err != nil {
		return nil, err
	}
	return e.solver.Scheduler(), nil
}

// SinglePeriod returns the one-long-period baseline.
func (e *Engine) SinglePeriod() Scheduler { return sched.SinglePeriod{} }

// EqualSplit returns the fixed-m equal-split baseline.
func (e *Engine) EqualSplit(m int) Scheduler { return sched.EqualSplit{M: m} }

// FixedChunk returns the Atallah-style fixed-chunk baseline; the chunk length
// is given in the caller's time units.
func (e *Engine) FixedChunk(units float64) Scheduler {
	t := quant.Tick(math.Round(units / e.opp.Setup * float64(e.ticksC)))
	if t < 1 {
		t = 1
	}
	return sched.FixedChunk{T: t}
}

// --- evaluation -----------------------------------------------------------------

// GuaranteedWork returns the exact guaranteed output of a schedule: the work
// it banks against the worst adversary allowed by the contract, in the
// caller's time units.
func (e *Engine) GuaranteedWork(s Scheduler) (float64, error) {
	w, err := game.Evaluate(s, e.p, e.u, e.ticksC)
	if err != nil {
		return 0, err
	}
	return e.Units(w), nil
}

// OptimalWork returns W(p)[U], the best guaranteed output any schedule can
// achieve, in the caller's time units.
func (e *Engine) OptimalWork() (float64, error) {
	if err := e.ensureSolver(); err != nil {
		return 0, err
	}
	return e.Units(e.solver.Value(e.p, e.u)), nil
}

// OptimalSchedule returns the optimal first-episode period lengths in the
// caller's time units.
func (e *Engine) OptimalSchedule() ([]float64, error) {
	if err := e.ensureSolver(); err != nil {
		return nil, err
	}
	ep := e.solver.OptimalEpisode(e.p, e.u)
	out := make([]float64, len(ep))
	for i, t := range ep {
		out[i] = e.Units(t)
	}
	return out, nil
}

// Episode returns the episode a scheduler would run from a fresh opportunity,
// in the caller's time units — useful for inspecting schedule shapes.
func (e *Engine) Episode(s Scheduler) []float64 {
	ep := s.Episode(e.p, e.u)
	out := make([]float64, len(ep))
	for i, t := range ep {
		out[i] = e.Units(t)
	}
	return out
}

// WorstCase returns the guaranteed work of a schedule together with the
// minimax adversary achieving it, for replay in Simulate.
func (e *Engine) WorstCase(s Scheduler) (float64, Adversary, error) {
	w, br, err := game.EvaluateWithStrategy(s, e.p, e.u, e.ticksC)
	if err != nil {
		return 0, nil, err
	}
	return e.Units(w), br, nil
}

// ensureSolver builds the game solver on first use. The first caller solves
// while any concurrent callers wait; the solver, or the error, is kept for
// every later call.
func (e *Engine) ensureSolver() error {
	e.solveOnce.Do(func() {
		s, err := game.Solve(e.p, e.u, e.ticksC)
		if err != nil {
			e.solveErr = fmt.Errorf("cyclesteal: solving the game (consider a coarser WithTicksPerSetup): %w", err)
			return
		}
		e.solver = s
	})
	return e.solveErr
}

// --- predictions ---------------------------------------------------------------

// Predictions bundles the paper's closed forms for this opportunity, in the
// caller's time units.
type Predictions struct {
	// ZeroWork reports whether U ≤ (p+1)c — no schedule can guarantee
	// anything (Prop. 4.1(c)).
	ZeroWork bool
	// NonAdaptiveWork is the §3.1 guideline's guaranteed output,
	// (m−p)(U/m − c).
	NonAdaptiveWork float64
	// AdaptiveWork is the equalization prediction U − K_p·√(2cU) of the
	// optimal guaranteed output (K_1 = 1 reproduces Table 2's
	// U − √(2cU) − c/2 up to c/2).
	AdaptiveWork float64
	// OptimalP1Work is Table 2's U − √(2cU) − c/2 (meaningful at p = 1).
	OptimalP1Work float64
	// DeficitRatio is the asymptotic non-adaptive/adaptive deficit ratio at
	// this p: √2 at p = 1, decaying toward 1 as p grows.
	DeficitRatio float64
	// NonAdaptivePeriods and NonAdaptivePeriodLength are the §3.1 guideline
	// parameters m and √(cU/p).
	NonAdaptivePeriods      int
	NonAdaptivePeriodLength float64
}

// Predict evaluates the paper's closed forms for this opportunity.
func (e *Engine) Predict() Predictions {
	U, c, p := e.opp.Lifespan, e.opp.Setup, e.p
	return Predictions{
		ZeroWork:                U <= theory.ZeroWorkThreshold(p, c),
		NonAdaptiveWork:         theory.NonAdaptiveWorkExact(U, p, c),
		AdaptiveWork:            theory.OptimalWorkPrediction(U, p, c),
		OptimalP1Work:           theory.OptimalP1Work(U, c),
		DeficitRatio:            theory.DeficitRatioMeasured(p),
		NonAdaptivePeriods:      theory.NonAdaptiveM(U, p, c),
		NonAdaptivePeriodLength: theory.NonAdaptivePeriod(U, p, c),
	}
}
