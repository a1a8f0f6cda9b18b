// Package station holds the model of one machine in the network of
// workstations the paper's schedules live in: the cycle-stealing contract a
// workstation owner offers (usable lifespan U, interrupt bound p), the owner
// temperaments that sample contracts and play the interrupts, and the
// deterministic per-station rng derivation every engine shares.
//
// It is the dependency floor of the fleet layer: internal/farm drives
// stations against a job and imports only this package for the model, so
// the experiments and CLIs that build fleets can share it without an
// import cycle.
package station

import (
	"math/rand"

	"cyclesteal/internal/adversary"
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sim"
)

// Contract is one cycle-stealing opportunity offered by a workstation owner:
// the guaranteed lifespan and the interrupt allowance of §2.1.
type Contract struct {
	U quant.Tick
	P int
}

// OwnerModel samples the contracts a workstation owner offers and the
// interrupter that plays the owner during the opportunity.
type OwnerModel interface {
	// Sample draws the next contract. rng is owned by the caller's station.
	Sample(rng *rand.Rand) Contract
	// Interrupter builds the owner's in-opportunity behavior for a contract.
	Interrupter(rng *rand.Rand, c Contract) sim.Interrupter
	// Name labels the model in reports.
	Name() string
}

// Office models a nine-to-five owner: moderately long idle stretches
// (meetings, lunch) with a couple of possible returns, interrupting at
// exponentially distributed times.
type Office struct {
	MeanIdle quant.Tick // mean usable lifespan
	MaxP     int        // interrupt allowance per contract
}

// Sample implements OwnerModel.
func (o Office) Sample(rng *rand.Rand) Contract {
	u := quant.Tick(rng.ExpFloat64()*float64(o.MeanIdle)) + 1
	return Contract{U: u, P: o.MaxP}
}

// Interrupter implements OwnerModel: returns come as a Poisson stream with
// mean spacing half the lifespan — interruptions are likely but not certain.
func (o Office) Interrupter(rng *rand.Rand, c Contract) sim.Interrupter {
	return &adversary.Poisson{Rng: rng, Mean: float64(c.U) / 2}
}

// Name implements OwnerModel.
func (o Office) Name() string { return "office" }

// Laptop models the paper's motivating case: a machine that can be unplugged
// at any moment. Short lifespans, a single fatal interrupt, uniformly placed.
type Laptop struct {
	MeanIdle quant.Tick
}

// Sample implements OwnerModel.
func (l Laptop) Sample(rng *rand.Rand) Contract {
	u := quant.Tick(rng.ExpFloat64()*float64(l.MeanIdle)) + 1
	return Contract{U: u, P: 1}
}

// Interrupter implements OwnerModel.
func (l Laptop) Interrupter(rng *rand.Rand, c Contract) sim.Interrupter {
	return &adversary.Random{Rng: rng, Prob: 0.8}
}

// Name implements OwnerModel.
func (l Laptop) Name() string { return "laptop" }

// Overnight models lab machines lent for a fixed nightly window with a small
// chance of an early-morning return.
type Overnight struct {
	Window quant.Tick
}

// Sample implements OwnerModel.
func (o Overnight) Sample(rng *rand.Rand) Contract {
	return Contract{U: o.Window, P: 1}
}

// Interrupter implements OwnerModel.
func (o Overnight) Interrupter(rng *rand.Rand, c Contract) sim.Interrupter {
	return &adversary.Random{Rng: rng, Prob: 0.15}
}

// Name implements OwnerModel.
func (o Overnight) Name() string { return "overnight" }

// Malicious wraps any owner model with worst-case in-opportunity behavior:
// contracts are sampled from the base model, but the owner plays the
// equalization-damage heuristic. Used to measure guaranteed-style floors on
// fleet throughput.
type Malicious struct {
	Base  OwnerModel
	Setup quant.Tick
}

// Sample implements OwnerModel.
func (m Malicious) Sample(rng *rand.Rand) Contract { return m.Base.Sample(rng) }

// Interrupter implements OwnerModel.
func (m Malicious) Interrupter(rng *rand.Rand, c Contract) sim.Interrupter {
	return adversary.GreedyEqualization{C: m.Setup}
}

// Name implements OwnerModel.
func (m Malicious) Name() string { return "malicious(" + m.Base.Name() + ")" }

// Workstation is one machine in the fleet.
type Workstation struct {
	ID    int
	Owner OwnerModel
	Setup quant.Tick // per-period communication setup cost c to this machine
}

// SchedulerFactory builds a scheduler for a specific contract on a specific
// workstation (schedules depend on U, p and c).
type SchedulerFactory func(ws Workstation, c Contract) (model.EpisodeScheduler, error)

// MixedFleet builds the standard heterogeneous NOW used by the farm
// experiments (E11, E12) and the fleet-mode CLIs: offices, laptops and
// overnight lab machines round-robin, all with setup cost c. Keeping the
// owner mix in one place keeps CLI output comparable with the experiment
// tables.
func MixedFleet(stations int, c quant.Tick) []Workstation {
	fleet := make([]Workstation, stations)
	for i := range fleet {
		switch i % 3 {
		case 0:
			fleet[i] = Workstation{ID: i, Owner: Office{MeanIdle: 250 * c, MaxP: 2}, Setup: c}
		case 1:
			fleet[i] = Workstation{ID: i, Owner: Laptop{MeanIdle: 100 * c}, Setup: c}
		default:
			fleet[i] = Workstation{ID: i, Owner: Overnight{Window: 400 * c}, Setup: c}
		}
	}
	return fleet
}

// RNG derives station id's private contract stream from a run seed — the
// per-station half of the determinism contract every farm run shares.
//
// The (seed, id) pair is folded through a splitmix64 finalizer and drives a
// full-period 64-bit splitmix source, rather than the earlier
// seed ^ (id+1)·odd scheme fed to rand.NewSource. That scheme collided two
// ways: XOR mixing let any two stations replay each other's streams under
// related seeds (seed' = seed ^ (id+1)·K ^ (id'+1)·K), and rand.NewSource
// folds its seed mod 2³¹−1, so even perfectly mixed 64-bit seeds collide
// with birthday probability ≈ n²/2³² per run — ≈0.6% on a 5000-station
// fleet. Here the finalizer is a bijection of the mixed word and the full
// 64 bits become the source state, so for a fixed seed every station's
// stream is distinct (first draws included), and the pre-orbit scramble
// keeps neighbouring stations from being one-step-shifted copies of a
// shared counter orbit.
func RNG(seed int64, id int) *rand.Rand {
	x := uint64(seed) + (uint64(id)+1)*0x9E3779B97F4A7C15 // golden-gamma step
	return rand.New(&splitmix64{state: mix64(x)})
}

// mix64 is the splitmix64 finalizer — a bijective avalanche of the word.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// splitmix64 is a full-period 64-bit rand.Source64 (Vigna's SplitMix64):
// the state walks a golden-gamma counter orbit and each output is the
// finalized state. Stations start at finalizer-scrambled orbit positions,
// so distinct states yield distinct streams and window overlaps between
// stations have probability ~ n²·len/2⁶⁴ — negligible at any fleet scale —
// where math/rand's own source would fold everything into 2³¹ states.
type splitmix64 struct{ state uint64 }

// Uint64 implements rand.Source64.
func (s *splitmix64) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return mix64(s.state)
}

// Int63 implements rand.Source.
func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *splitmix64) Seed(seed int64) { s.state = mix64(uint64(seed)) }
