package fleet

import (
	"fmt"
	"math/rand"

	"cyclesteal/internal/adversary"
	"cyclesteal/internal/game"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/station"
)

// The wrappers in this file separate the two halves of an owner: the base
// temperament supplies the contract stream (lifespans and allowances), the
// wrapper replaces how returns are placed within each contract. They expose
// the internal/adversary strategies through the facade, so a public run can
// measure guaranteed — not just expected — output: Benign is the
// never-interrupting ceiling, Malicious the equalization-damage heuristic,
// Minimax the exact game-theoretic floor, and Scripted / Stochastic /
// Poisson / SampledWorst the strategies between.

// Benign wraps a temperament with an owner who never returns early: every
// contract runs its full lifespan. The ceiling the adversarial owners are
// measured against — the gap to Benign is what interruptions cost.
type Benign struct {
	Base Owner
}

func (o Benign) model(b binding) (station.OwnerModel, error) {
	base, err := baseModel("benign", o.Base, b)
	if err != nil {
		return nil, err
	}
	return overrideModel{base: base, label: "benign", mk: func(*rand.Rand, station.Contract) sim.Interrupter {
		return adversary.None{}
	}}, nil
}

// Scripted wraps a temperament with a fixed return script: each contract
// replays Offsets as its episode-relative interrupt times (caller units, one
// per episode, clamped into the residual lifespan), then stops interrupting.
// Deterministic by construction — the regression-test and what-if owner.
type Scripted struct {
	Base Owner
	// Offsets are episode-relative return times in caller time units,
	// consumed one per episode within each contract.
	Offsets []float64
}

func (o Scripted) model(b binding) (station.OwnerModel, error) {
	base, err := baseModel("scripted", o.Base, b)
	if err != nil {
		return nil, err
	}
	offs := make([]quant.Tick, len(o.Offsets))
	for i, u := range o.Offsets {
		if !(u > 0) {
			return nil, fmt.Errorf("fleet: scripted offset %d must be > 0, got %g", i, u)
		}
		offs[i] = b.g.ticks(u)
	}
	return overrideModel{base: base, label: "scripted", mk: func(*rand.Rand, station.Contract) sim.Interrupter {
		// A fresh cursor per contract over the shared, read-only offsets.
		return &adversary.Scripted{Offsets: offs}
	}}, nil
}

// Stochastic wraps a temperament with a memoryless owner: each episode is
// interrupted with probability Prob, at a uniformly chosen instant.
type Stochastic struct {
	Base Owner
	// Prob is the per-episode interrupt probability, in [0, 1].
	Prob float64
}

func (o Stochastic) model(b binding) (station.OwnerModel, error) {
	base, err := baseModel("stochastic", o.Base, b)
	if err != nil {
		return nil, err
	}
	if o.Prob < 0 || o.Prob > 1 {
		return nil, fmt.Errorf("fleet: stochastic probability must be in [0, 1], got %g", o.Prob)
	}
	return overrideModel{base: base, label: "stochastic", mk: func(rng *rand.Rand, _ station.Contract) sim.Interrupter {
		return &adversary.Random{Rng: rng, Prob: o.Prob}
	}}, nil
}

// Poisson wraps a temperament with an owner who returns after an
// exponentially distributed absence: the first arrival inside an episode
// interrupts it. The natural stochastic owner for NOW workstations.
type Poisson struct {
	Base Owner
	// Mean is the mean absence in caller time units, finite and ≥ 0; 0
	// means half the contract's lifespan (the Office temperament's return
	// process).
	Mean float64
}

func (o Poisson) model(b binding) (station.OwnerModel, error) {
	base, err := baseModel("poisson", o.Base, b)
	if err != nil {
		return nil, err
	}
	if !finite(o.Mean) || o.Mean < 0 {
		return nil, fmt.Errorf("fleet: poisson mean must be ≥ 0 and finite, got %g", o.Mean)
	}
	meanTicks := 0.0
	if o.Mean > 0 {
		if b.g.overflows(o.Mean) {
			return nil, fmt.Errorf("fleet: poisson mean %g overflows the tick grid", o.Mean)
		}
		meanTicks = float64(b.g.ticks(o.Mean))
	}
	return overrideModel{base: base, label: "poisson", mk: func(rng *rand.Rand, c station.Contract) sim.Interrupter {
		mean := meanTicks
		if mean == 0 {
			mean = float64(c.U) / 2
		}
		return &adversary.Poisson{Rng: rng, Mean: mean}
	}}, nil
}

// SampledWorst wraps a temperament with the sampled worst-case adversary:
// each episode it scores a bounded sample of interrupt placements by
// equalization damage plus estimated future leverage and fires at the worst.
// A tractable stand-in for Minimax on contracts too large for the exact
// evaluator — its realized work upper-bounds the true guaranteed work.
type SampledWorst struct {
	Base Owner
	// Candidates bounds the placements scored per episode; 0 means 32.
	Candidates int
}

func (o SampledWorst) model(b binding) (station.OwnerModel, error) {
	base, err := baseModel("sampled-worst", o.Base, b)
	if err != nil {
		return nil, err
	}
	if o.Candidates < 0 {
		return nil, fmt.Errorf("fleet: sampled-worst candidates must be ≥ 0, got %d", o.Candidates)
	}
	setup := b.g.ticksC
	return overrideModel{base: base, label: "sampled-worst", mk: func(rng *rand.Rand, _ station.Contract) sim.Interrupter {
		return &adversary.SampledWorst{Rng: rng, C: setup, K: o.Candidates}
	}}, nil
}

// Minimax wraps a temperament with the exact worst-case owner: for each
// sampled contract it solves the full interrupt game against the fleet's
// configured policy (the §4 minimax evaluation) and plays the best
// response, so realized work per contract IS the schedule's guaranteed
// work. Exact but expensive — the evaluation is a dynamic program over
// (allowance × lifespan) states per contract, so keep lifespans (in ticks:
// Lifespan/Setup × TicksPerSetup) modest, or reach for Malicious /
// SampledWorst at scale.
type Minimax struct {
	Base Owner
}

func (o Minimax) model(b binding) (station.OwnerModel, error) {
	base, err := baseModel("minimax", o.Base, b)
	if err != nil {
		return nil, err
	}
	if b.factory == nil {
		return nil, fmt.Errorf("fleet: minimax owner needs the fleet's policy factory")
	}
	return minimaxModel{base: base, ws: b.workstation(), factory: b.factory}, nil
}

// minimaxModel best-responds to the schedule the fleet's policy would run
// on each sampled contract.
type minimaxModel struct {
	base    station.OwnerModel
	ws      station.Workstation
	factory station.SchedulerFactory
}

func (m minimaxModel) Sample(rng *rand.Rand) station.Contract { return m.base.Sample(rng) }

func (m minimaxModel) Interrupter(rng *rand.Rand, c station.Contract) sim.Interrupter {
	// Policies whose schedules the game evaluator cannot price (a factory
	// error, or an evaluation overflow) degrade to the equalization-damage
	// heuristic rather than failing the run: the wrapper's contract is
	// "worst case the library can compute", and the heuristic is its floor.
	sch, err := m.factory(m.ws, c)
	if err == nil {
		if _, br, err := game.EvaluateWithStrategy(sch, c.P, c.U, m.ws.Setup); err == nil && br != nil {
			return br
		}
	}
	return adversary.GreedyEqualization{C: m.ws.Setup}
}

func (m minimaxModel) Name() string { return "minimax(" + m.base.Name() + ")" }

// overrideModel keeps a base model's contract stream and replaces its
// interrupt placement.
type overrideModel struct {
	base  station.OwnerModel
	label string
	mk    func(rng *rand.Rand, c station.Contract) sim.Interrupter
}

func (m overrideModel) Sample(rng *rand.Rand) station.Contract { return m.base.Sample(rng) }

func (m overrideModel) Interrupter(rng *rand.Rand, c station.Contract) sim.Interrupter {
	return m.mk(rng, c)
}

func (m overrideModel) Name() string { return m.label + "(" + m.base.Name() + ")" }
