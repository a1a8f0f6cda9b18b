// Package fault is the deterministic fault-injection layer of the stack: a
// seeded, replayable Plan of the failures the paper's model leaves out.
// The paper's guaranteed-output analysis treats owner interrupts as the only
// adversity; a production NOW fleet also loses whole stations abruptly
// (crashes, not graceful departures), drops cross-cluster steal messages in
// the network, and loses the scheduler process itself. The volunteer-
// computing checkpointing literature (arXiv:0711.3949) and the latency-priced
// stealing analysis (arXiv:1805.00857) both model loss and recovery
// explicitly; this package supplies the loss, and the farm/fleet layers
// supply the recovery (checkpoint prefixes, steal retries, WAL replay).
//
// A Plan is generative, not a trace: it names probabilities and scheduled
// events, and an Injector realizes them from the plan's seed. Because every
// draw happens at a deterministic point of the round-synchronized engines
// (crash sampling at round tops, parcel-loss sampling at barrier departures,
// both single-threaded), the realized fault sequence is a pure function of
// (Plan, engine evolution) — bit-identical at any worker count, and
// re-realizable: recovering a killed scheduler re-samples the same faults
// the original run saw, which is what pins a recovered run bit-identical to
// an uncrashed one.
//
// Faults inject at the round engine's deterministic points — round tops
// and barrier steals — in every batch run (farm RunDeterministic) and in
// the resident fleet service.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"cyclesteal/internal/lazyrand"
)

// DefaultStealRetries is the cross-cluster retry budget when the plan does
// not set one: a dry cluster re-requests a lost steal this many times
// (with capped exponential backoff) before degrading to intra-cluster
// scanning for good.
const DefaultStealRetries = 3

// MaxBackoffShift caps the exponential steal backoff: the wait between
// retries doubles per consecutive loss up to latency·2^MaxBackoffShift.
const MaxBackoffShift = 3

// Crash schedules one explicit station crash: station slot Station crashes
// at the top of round Round, before the round plays.
type Crash struct {
	Round   int
	Station int
}

// Plan describes the faults to inject into one deterministic run. The zero
// value injects nothing and is bit-identical to a run without the plan.
type Plan struct {
	// Seed drives every probabilistic draw (crash and parcel-loss sampling).
	// 0 means the engine derives a stream from its own seed.
	Seed int64
	// CrashProb is each live station's per-round crash probability, in
	// [0, 1). A crash differs from a graceful leave: queued and in-flight
	// work on the crashed host is lost, and only checkpointed prefixes
	// (work already shipped back) survive.
	CrashProb float64
	// Crashes schedules explicit crashes on top of the sampled ones —
	// "station s dies at round r" for targeted experiments and tests.
	Crashes []Crash
	// LossProb is the probability each cross-cluster steal parcel is lost
	// in flight, in [0, 1). The requesting cluster detects the loss by a
	// round-priced timeout and retries with capped exponential backoff.
	LossProb float64
	// StealRetries bounds the retries after lost cross-cluster steals:
	// 0 means DefaultStealRetries, negative means none (the first loss
	// degrades the cluster to intra-cluster scanning for good).
	StealRetries int
	// KillRound, when > 0, kills the scheduler itself at the top of that
	// round: the resident service stops with ErrSchedulerKilled, losing
	// everything not yet in its write-ahead log. Recover the session with
	// fleet.RecoverService. Batch runs reject a kill (there is no log to
	// recover a batch run from).
	KillRound int
}

// Validate reports whether the plan is well-formed.
func (p Plan) Validate() error {
	if math.IsNaN(p.CrashProb) || p.CrashProb < 0 || p.CrashProb >= 1 {
		return fmt.Errorf("fault: crash probability must be in [0, 1), got %g", p.CrashProb)
	}
	if math.IsNaN(p.LossProb) || p.LossProb < 0 || p.LossProb >= 1 {
		return fmt.Errorf("fault: parcel loss probability must be in [0, 1), got %g", p.LossProb)
	}
	if p.KillRound < 0 {
		return fmt.Errorf("fault: kill round must be ≥ 0, got %d", p.KillRound)
	}
	for i, c := range p.Crashes {
		if c.Round < 0 || c.Station < 0 {
			return fmt.Errorf("fault: crash %d must name a round ≥ 0 and station ≥ 0, got round %d station %d", i, c.Round, c.Station)
		}
	}
	return nil
}

// Active reports whether the plan injects anything at all.
func (p Plan) Active() bool {
	return p.CrashProb > 0 || p.LossProb > 0 || p.KillRound > 0 || len(p.Crashes) > 0
}

// Retries resolves the steal-retry budget: the plan's own, the default, or
// zero for "degrade on first loss".
func (p Plan) Retries() int {
	switch {
	case p.StealRetries > 0:
		return p.StealRetries
	case p.StealRetries < 0:
		return 0
	default:
		return DefaultStealRetries
	}
}

// Injector realizes one run's faults from the plan. One injector serves one
// run: its rng stream advances with every probabilistic draw, so the
// realized sequence is a pure function of (Plan, draw order), and the
// deterministic engines draw in a fixed order (crash sampling per live slot
// at round tops, loss sampling per departure at barriers). An Injector is
// not safe for concurrent use; the engines only touch it between rounds.
type Injector struct {
	plan    Plan
	rng     *rand.Rand
	crashes map[int][]int // round → stations, from the explicit schedule
}

// NewInjector compiles the plan. defaultSeed seeds the draw stream when the
// plan itself does not (engines pass a stream derived from their own seed,
// so a zero-seed plan is still replayable from the run's key).
func (p Plan) NewInjector(defaultSeed int64) *Injector {
	seed := p.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	in := &Injector{plan: p, rng: lazyrand.New(seed)}
	if len(p.Crashes) > 0 {
		in.crashes = make(map[int][]int, len(p.Crashes))
		for _, c := range p.Crashes {
			in.crashes[c.Round] = append(in.crashes[c.Round], c.Station)
		}
	}
	return in
}

// Plan returns the plan the injector realizes.
func (in *Injector) Plan() Plan { return in.plan }

// ScheduledCrashes returns the stations explicitly scheduled to crash at
// the given round, in schedule order.
func (in *Injector) ScheduledCrashes(round int) []int { return in.crashes[round] }

// SampleCrash draws one station's per-round crash. Engines must call it for
// every live slot in slot order so the stream stays a pure function of the
// fleet evolution. It never draws when the plan's crash probability is zero,
// so plans without sampled crashes leave the stream untouched.
func (in *Injector) SampleCrash() bool {
	if in.plan.CrashProb <= 0 {
		return false
	}
	return in.rng.Float64() < in.plan.CrashProb
}

// SampleLoss draws one cross-cluster parcel's loss, called once per
// departure at a round barrier. Like SampleCrash it never draws when the
// loss probability is zero.
func (in *Injector) SampleLoss() bool {
	if in.plan.LossProb <= 0 {
		return false
	}
	return in.rng.Float64() < in.plan.LossProb
}

// Retries reports the resolved steal-retry budget.
func (in *Injector) Retries() int { return in.plan.Retries() }

// KillsAt reports whether the plan kills the scheduler at this round.
func (in *Injector) KillsAt(round int) bool {
	return in.plan.KillRound > 0 && round == in.plan.KillRound
}

// Backoff prices the wait before cross-steal retry number fails (1-based
// consecutive losses) in steal-clock units: latency·2^(fails−1), capped at
// latency·2^MaxBackoffShift.
func Backoff(latency int64, fails int) int64 {
	shift := fails - 1
	if shift < 0 {
		shift = 0
	}
	if shift > MaxBackoffShift {
		shift = MaxBackoffShift
	}
	return latency << shift
}
