// Package adversary implements interrupt-placement strategies for the owner
// of the borrowed workstation — the "malicious adversary" of §4 and several
// benign stochastic owners used to contrast guaranteed with expected output
// (the companion submodel of paper I).
//
// Every strategy satisfies the simulator's Interrupter contract: at the start
// of each episode it is shown the remaining interrupt budget p, the residual
// lifespan L and the episode-schedule about to run, and answers either "let
// it run" or "interrupt after `at` ticks of this episode". The exactly
// optimal adversary is game.BestResponse (extracted from the minimax
// evaluator); the strategies here are scripted, heuristic or stochastic.
package adversary

import (
	"math"
	"math/rand"

	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
)

// None never interrupts: the benign owner. Against None every schedule banks
// its uninterrupted work, which is how the c-overhead of short periods shows
// up in experiments.
type None struct{}

// NextInterrupt implements the Interrupter contract.
func (None) NextInterrupt(p int, L quant.Tick, ep model.TickSchedule) (quant.Tick, bool) {
	return 0, false
}

// Name labels the strategy in experiment tables.
func (None) Name() string { return "none" }

// LastPeriod interrupts at the last instant of the episode's final period —
// the classic "unplug just before the results ship" owner. Against a single
// long period this is the worst possible adversary.
type LastPeriod struct{}

// NextInterrupt implements the Interrupter contract.
func (LastPeriod) NextInterrupt(p int, L quant.Tick, ep model.TickSchedule) (quant.Tick, bool) {
	if p <= 0 || len(ep) == 0 {
		return 0, false
	}
	return ep.Total(), true
}

// Name labels the strategy in experiment tables.
func (LastPeriod) Name() string { return "last-period" }

// GreedyEqualization interrupts at the last instant of the period k that
// maximizes the p = 1 damage t_k + k·c — the equalization currency of
// Theorem 4.3. It is exactly optimal for p = 1 against schedules whose
// continuation is a single long period, and a strong heuristic otherwise.
type GreedyEqualization struct {
	C quant.Tick
}

// NextInterrupt implements the Interrupter contract.
func (g GreedyEqualization) NextInterrupt(p int, L quant.Tick, ep model.TickSchedule) (quant.Tick, bool) {
	if p <= 0 || len(ep) == 0 {
		return 0, false
	}
	var bestAt, bestDamage quant.Tick
	var elapsed quant.Tick
	for k, t := range ep {
		elapsed += t
		damage := t + quant.Tick(k+1)*g.C
		if damage > bestDamage {
			bestDamage = damage
			bestAt = elapsed
		}
	}
	return bestAt, true
}

// Name labels the strategy in experiment tables.
func (g GreedyEqualization) Name() string { return "greedy-equalization" }

// Scripted replays a fixed list of episode-relative interrupt offsets, one
// per episode, then stops interrupting. Offsets are clamped into (0, L] — an
// offset beyond the episode's schedule but within the lifespan interrupts
// trailing idle time. Useful for deterministic regression tests and for
// replaying recorded owner traces.
type Scripted struct {
	Offsets []quant.Tick
	next    int
}

// NextInterrupt implements the Interrupter contract.
func (s *Scripted) NextInterrupt(p int, L quant.Tick, ep model.TickSchedule) (quant.Tick, bool) {
	if p <= 0 || s.next >= len(s.Offsets) || len(ep) == 0 {
		return 0, false
	}
	at := s.Offsets[s.next]
	s.next++
	if at > L {
		at = L
	}
	if at < 1 {
		at = 1
	}
	return at, true
}

// Name labels the strategy in experiment tables.
func (s *Scripted) Name() string { return "scripted" }

// Random interrupts each episode with probability Prob, at an offset chosen
// uniformly from the episode. A memoryless, non-malicious owner.
type Random struct {
	Rng  *rand.Rand
	Prob float64
}

// NextInterrupt implements the Interrupter contract.
func (r *Random) NextInterrupt(p int, L quant.Tick, ep model.TickSchedule) (quant.Tick, bool) {
	if p <= 0 || len(ep) == 0 || r.Rng.Float64() >= r.Prob {
		return 0, false
	}
	total := ep.Total()
	return 1 + quant.Tick(r.Rng.Int63n(int64(total))), true
}

// Name labels the strategy in experiment tables.
func (r *Random) Name() string { return "random" }

// Poisson models an owner who returns after an exponentially distributed
// absence with the given mean (in ticks): the first arrival inside the
// episode interrupts it. This is the natural stochastic owner for NOW
// workstations and the bridge to the expected-output submodel.
type Poisson struct {
	Rng  *rand.Rand
	Mean float64
}

// NextInterrupt implements the Interrupter contract.
func (po *Poisson) NextInterrupt(p int, L quant.Tick, ep model.TickSchedule) (quant.Tick, bool) {
	if p <= 0 || len(ep) == 0 || po.Mean <= 0 {
		return 0, false
	}
	x := po.Rng.ExpFloat64() * po.Mean
	// Checked before the conversion: a huge or infinite Mean puts the draw
	// past every tick count (0·Inf makes it NaN), and converting it would
	// overflow. Such an owner never returns within the episode.
	if !(x < math.MaxInt64) {
		return 0, false
	}
	if arrival := quant.Tick(x) + 1; arrival <= ep.Total() {
		return arrival, true
	}
	return 0, false
}

// Name labels the strategy in experiment tables.
func (po *Poisson) Name() string { return "poisson" }

// Periodic models an owner on a fixed routine: starting from the beginning of
// the opportunity, they reclaim the machine every Every ticks of lifespan.
// The strategy derives the absolute elapsed time from U − L, so it must be
// told the opportunity lifespan it runs in.
type Periodic struct {
	U     quant.Tick
	Every quant.Tick
}

// NextInterrupt implements the Interrupter contract.
func (pe Periodic) NextInterrupt(p int, L quant.Tick, ep model.TickSchedule) (quant.Tick, bool) {
	if p <= 0 || len(ep) == 0 || pe.Every < 1 {
		return 0, false
	}
	elapsed := pe.U - L
	if elapsed < 0 {
		elapsed = 0
	}
	// Next multiple of Every strictly after the elapsed point.
	next := (elapsed/pe.Every + 1) * pe.Every
	offset := next - elapsed
	if total := ep.Total(); offset > total {
		return 0, false
	}
	return offset, true
}

// Name labels the strategy in experiment tables.
func (pe Periodic) Name() string { return "periodic" }
