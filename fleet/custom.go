package fleet

import (
	"fmt"
	"math/rand"

	"cyclesteal/internal/adversary"
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/station"
)

// Contract is one cycle-stealing opportunity as an owner offers it, in the
// caller's continuous time units: the usable lifespan U and the interrupt
// allowance p of the paper's §2.1 contract.
type Contract struct {
	// Lifespan is the lent stretch in caller time units. A sampled contract
	// with Lifespan ≤ 0 is skipped: the station offers nothing this
	// opportunity (how an availability process says "the machine stayed
	// busy"). So is one whose Lifespan is NaN or +Inf, or too long for the
	// fleet's tick grid to hold.
	Lifespan float64
	// Interrupts is the allowance p — how many times the owner may return
	// during the stretch. Must be ≥ 0; each return kills the period in
	// progress under the draconian contract.
	Interrupts int
}

// Interrupter places a custom owner's returns. At the start of each episode
// it sees the remaining allowance, the residual lifespan and the episode
// about to run (period lengths, caller time units, valid only for the
// duration of the call) and answers either "let it run" (ok = false) or
// "return after at time units of this episode". An at beyond the episode's
// total falls into trailing idle time — it kills nothing but still consumes
// allowance and lifespan; at is clamped into (0, residual] on the way into
// the engine, so an implementation cannot corrupt a run by overshooting: an
// at past the residual, +Inf and any at too large for the fleet's tick grid
// included, lands at the residual, and a NaN or negative at lands at the
// first tick.
type Interrupter interface {
	NextInterrupt(allowance int, residual float64, episode []float64) (at float64, ok bool)
}

// CustomOwner is the open half of the owner contract: a caller-defined
// availability process in plain caller units. Sample draws each
// opportunity's contract from the station's private deterministic rng;
// Interrupter (optional — nil never interrupts) builds the within-contract
// return process. The named temperaments are closed-form instances of
// exactly this shape; CustomOwner is how processes the library does not
// ship — diurnal models, empirically fitted distributions, hybrid
// replay-plus-noise — drive a fleet.
//
// Both hooks must be safe for the Fleet's concurrency contract: a Fleet is
// shared by concurrent runs and Replicate calls them from many trial
// goroutines, so they must not mutate shared state (the rng argument is
// per-station, per-run, and free to use).
type CustomOwner struct {
	// Label names the process in reports; empty means "custom".
	Label string
	// Sample draws the next contract. Required.
	Sample func(rng *rand.Rand) Contract
	// Interrupter builds the owner's return process for one sampled
	// contract; nil means the owner never interrupts.
	Interrupter func(rng *rand.Rand, c Contract) Interrupter
}

func (co CustomOwner) model(b binding) (station.OwnerModel, error) {
	if co.Sample == nil {
		return nil, fmt.Errorf("fleet: custom owner %q needs a Sample func", co.name())
	}
	return customModel{co: co, g: b.g}, nil
}

func (co CustomOwner) name() string {
	if co.Label != "" {
		return co.Label
	}
	return "custom"
}

// customModel adapts a CustomOwner onto the internal tick grid.
type customModel struct {
	co CustomOwner
	g  quant.Grid
}

func (m customModel) Sample(rng *rand.Rand) station.Contract {
	c := m.co.Sample(rng)
	u, fits := quant.GridTicks(c.Lifespan, m.g.Setup, float64(m.g.TicksPerSetup))
	if !(c.Lifespan > 0) || !fits || c.Interrupts < 0 {
		return station.Contract{} // U = 0: the engines skip the opportunity
	}
	return station.Contract{U: u, P: c.Interrupts}
}

func (m customModel) Interrupter(rng *rand.Rand, c station.Contract) sim.Interrupter {
	if m.co.Interrupter == nil {
		return adversary.None{}
	}
	inner := m.co.Interrupter(rng, Contract{Lifespan: m.g.Units(c.U), Interrupts: c.P})
	if inner == nil {
		return adversary.None{}
	}
	// The episode conversion buffer lives on the interrupter, which the
	// engines build fresh per contract — per-goroutine scratch, never shared.
	return &customInterrupter{inner: inner, g: m.g}
}

func (m customModel) Name() string { return m.co.name() }

// customInterrupter converts the engine's tick-grid episode view to caller
// units and the answer back, clamping it into the engine's contract.
type customInterrupter struct {
	inner Interrupter
	g     quant.Grid
	ep    []float64 // reusable conversion buffer
}

func (ci *customInterrupter) NextInterrupt(p int, L quant.Tick, episode model.TickSchedule) (quant.Tick, bool) {
	ci.ep = ci.ep[:0]
	for _, t := range episode {
		ci.ep = append(ci.ep, ci.g.Units(t))
	}
	at, ok := ci.inner.NextInterrupt(p, ci.g.Units(L), ci.ep)
	if !ok {
		return 0, false
	}
	t, fits := quant.GridTicks(at, ci.g.Setup, float64(ci.g.TicksPerSetup))
	switch {
	case !(at >= 0): // NaN or negative: the first tick
		t = 1
	case !fits || t > L: // past the grid or the residual: the residual
		t = L
	}
	return t, true
}
