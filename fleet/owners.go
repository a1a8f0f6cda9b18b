package fleet

import (
	"fmt"
	"math/rand"
	"strings"

	"cyclesteal/internal/adversary"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/station"
)

// Owner is a workstation-owner temperament: it decides how long the machine
// is lent per stretch and how the owner's returns interrupt the borrowed
// time. The named temperaments (Office, Laptop, Overnight), the worst-case
// wrappers (Malicious, Minimax, Benign, Scripted, Stochastic, Poisson,
// SampledWorst), Fixed contracts, trace Replay and fully caller-defined
// CustomOwner availability processes all implement it; OwnerByName selects
// the named ones by label.
//
// The interface itself is bound to the fleet's internal tick grid through an
// unexported method, so third-party temperaments plug in through CustomOwner
// — the open, caller-units half of the contract — rather than by
// implementing Owner directly.
type Owner interface {
	// model quantizes the temperament onto the grid described by the
	// binding: the fleet's tick grid and default allowance, the station the
	// model will serve, and the scheduling policy's factory (for owners,
	// like Minimax, that best-respond to the schedule).
	model(b binding) (station.OwnerModel, error)
}

// binding is everything an owner temperament may need to quantize itself
// onto one station of a fleet.
type binding struct {
	g        quant.Grid
	defaultP int                      // Config.Interrupts, the fleet-wide default allowance
	station  int                      // station index the model will serve
	factory  station.SchedulerFactory // the fleet's compiled policy
}

// workstation is the station the binding describes, as the scheduler factory
// expects it.
func (b binding) workstation() station.Workstation {
	return station.Workstation{ID: b.station, Setup: b.g.TicksPerSetup}
}

// Office models a nine-to-five owner: moderately long idle stretches
// (meetings, lunch) with a few possible returns at their daily routine's
// whim. The zero value is the standard experiment office (mean idle 250
// setup costs, allowance from Config.Interrupts).
type Office struct {
	// MeanIdle is the mean lent stretch in caller time units; 0 means 250
	// setup costs.
	MeanIdle float64
	// Interrupts is the per-contract allowance; 0 defers to
	// Config.Interrupts and then to the standard 2.
	Interrupts int
}

func (o Office) model(b binding) (station.OwnerModel, error) {
	mean, err := meanTicks("office", o.MeanIdle, 250, b.g)
	if err != nil {
		return nil, err
	}
	if o.Interrupts < 0 {
		return nil, fmt.Errorf("fleet: office interrupt allowance must be ≥ 0, got %d", o.Interrupts)
	}
	p := o.Interrupts
	if p == 0 {
		p = b.defaultP
	}
	if p == 0 {
		p = 2
	}
	return station.Office{MeanIdle: mean, MaxP: p}, nil
}

// Laptop models the paper's motivating case: a machine that can be
// unplugged at any moment — short lent stretches, one fatal interrupt. The
// zero value is the standard experiment laptop (mean idle 100 setup costs).
type Laptop struct {
	// MeanIdle is the mean lent stretch in caller time units; 0 means 100
	// setup costs.
	MeanIdle float64
}

func (l Laptop) model(b binding) (station.OwnerModel, error) {
	mean, err := meanTicks("laptop", l.MeanIdle, 100, b.g)
	if err != nil {
		return nil, err
	}
	return station.Laptop{MeanIdle: mean}, nil
}

// Overnight models lab machines lent for a fixed nightly window with a
// small chance of an early-morning return. The zero value is the standard
// experiment window of 400 setup costs.
type Overnight struct {
	// Window is the lent window in caller time units; 0 means 400 setup
	// costs.
	Window float64
}

func (o Overnight) model(b binding) (station.OwnerModel, error) {
	w, err := meanTicks("overnight", o.Window, 400, b.g)
	if err != nil {
		return nil, err
	}
	return station.Overnight{Window: w}, nil
}

// Fixed offers identical deterministic contracts every stretch and, on its
// own, never interrupts — the degenerate temperament adversarial wrappers
// and analytic comparisons build on: Malicious{Base: Fixed{...}} measures
// worst-case placement on a known contract, Minimax{Base: Fixed{...}} the
// exact guaranteed floor the paper's theorems price.
type Fixed struct {
	// Lifespan is the lent stretch in caller time units; 0 means 250 setup
	// costs.
	Lifespan float64
	// Interrupts is the per-contract allowance; 0 defers to
	// Config.Interrupts and then to the standard 2.
	Interrupts int
}

func (x Fixed) model(b binding) (station.OwnerModel, error) {
	u, err := meanTicks("fixed", x.Lifespan, 250, b.g)
	if err != nil {
		return nil, err
	}
	if x.Interrupts < 0 {
		return nil, fmt.Errorf("fleet: fixed interrupt allowance must be ≥ 0, got %d", x.Interrupts)
	}
	p := x.Interrupts
	if p == 0 {
		p = b.defaultP
	}
	if p == 0 {
		p = 2
	}
	return fixedModel{u: u, p: p}, nil
}

// fixedModel is the internal face of Fixed.
type fixedModel struct {
	u quant.Tick
	p int
}

func (m fixedModel) Sample(rng *rand.Rand) station.Contract {
	return station.Contract{U: m.u, P: m.p}
}

func (m fixedModel) Interrupter(rng *rand.Rand, c station.Contract) sim.Interrupter {
	return adversary.None{}
}

func (m fixedModel) Name() string { return "fixed" }

// Malicious wraps a temperament with worst-case interrupt behavior: lent
// stretches come from the base temperament, but every return is placed as
// damagingly as the equalization-damage heuristic can — the
// guaranteed-output regime the paper optimizes for. For the exact minimax
// adversary (optimal but far more expensive), see Minimax.
type Malicious struct {
	Base Owner
}

func (m Malicious) model(b binding) (station.OwnerModel, error) {
	base, err := baseModel("malicious", m.Base, b)
	if err != nil {
		return nil, err
	}
	return station.Malicious{Base: base, Setup: b.g.TicksPerSetup}, nil
}

// baseModel resolves a wrapper's base temperament.
func baseModel(wrapper string, base Owner, b binding) (station.OwnerModel, error) {
	if base == nil {
		return nil, fmt.Errorf("fleet: %s owner needs a base temperament", wrapper)
	}
	return base.model(b)
}

// meanTicks quantizes an owner duration parameter: explicit caller units,
// or the standard multiple of the setup cost when zero.
func meanTicks(owner string, units float64, setups quant.Tick, g quant.Grid) (quant.Tick, error) {
	t, err := g.Ticks(units)
	if err != nil {
		return 0, fmt.Errorf("fleet: %s duration %w", owner, err)
	}
	if units == 0 {
		return setups * g.TicksPerSetup, nil
	}
	return t, nil
}

// statefulOwner reports whether the temperament (or any base under its
// wrappers) carries per-run state — today, trace Replay cursors. Stateful
// owners make a Fleet rebuild its station models for every run, and they
// cannot drive Replicate (a recorded trace names one run, not a
// distribution).
func statefulOwner(o Owner) bool {
	switch v := o.(type) {
	case Replay:
		return true
	case Malicious:
		return statefulOwner(v.Base)
	case Benign:
		return statefulOwner(v.Base)
	case Scripted:
		return statefulOwner(v.Base)
	case Stochastic:
		return statefulOwner(v.Base)
	case Poisson:
		return statefulOwner(v.Base)
	case SampledWorst:
		return statefulOwner(v.Base)
	case Minimax:
		return statefulOwner(v.Base)
	default:
		return false
	}
}

// ownerBases are the base temperament labels OwnerByName accepts.
var ownerBases = []string{"office", "laptop", "overnight", "fixed"}

// ownerPrefixes are the wrapper prefixes OwnerByName accepts around a base.
var ownerPrefixes = []string{"malicious-", "benign-", "minimax-"}

// Owners enumerates every temperament label OwnerByName accepts: the base
// temperaments in their standard experiment shapes, then each wrapper-prefix
// form (worst-case heuristic, never-interrupting, and exact minimax
// placement over the same base contracts).
func Owners() []string {
	out := append([]string(nil), ownerBases...)
	for _, p := range ownerPrefixes {
		for _, b := range ownerBases {
			out = append(out, p+b)
		}
	}
	return out
}

// OwnerByName selects a temperament by label — any name Owners lists:
// "office", "laptop", "overnight" or "fixed", each in its standard
// experiment shape, optionally wrapped as "malicious-office",
// "benign-laptop", "minimax-fixed" and so on. Trace replay and custom
// availability processes have no names: build Replay or CustomOwner values
// directly.
func OwnerByName(name string) (Owner, error) {
	base, prefix := name, ""
	for _, p := range ownerPrefixes {
		if rest, ok := strings.CutPrefix(name, p); ok {
			base, prefix = rest, p
			break
		}
	}
	var o Owner
	switch base {
	case "office":
		o = Office{}
	case "laptop":
		o = Laptop{}
	case "overnight":
		o = Overnight{}
	case "fixed":
		o = Fixed{}
	default:
		return nil, fmt.Errorf("fleet: unknown owner %q (want one of %s)", name, strings.Join(Owners(), ", "))
	}
	switch prefix {
	case "malicious-":
		o = Malicious{Base: o}
	case "benign-":
		o = Benign{Base: o}
	case "minimax-":
		o = Minimax{Base: o}
	}
	return o, nil
}
