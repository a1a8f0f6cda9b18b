// Package sched implements the paper's schedule constructors — the
// non-adaptive guideline of §3.1, the adaptive guideline of §3.2, and the
// optimal 1-interrupt schedule of §5.2 — together with the baselines the
// experiments compare against (single period, equal split, fixed chunks à la
// Atallah et al. [1]).
//
// Every scheduler works on the integer tick grid and implements
// model.EpisodeScheduler, so the exact game evaluator and the simulator can
// drive any of them interchangeably. Episode schedules may undershoot the
// residual lifespan (the shortfall is idle time, which banks nothing); the
// paper-faithful constructors undershoot only where the paper itself does
// (non-adaptive tails after a mid-period interrupt).
//
// A scheduler keeps no state between episodes: each episode is a function of
// (p, L) and the scheduler's parameters alone, so any number of goroutines
// may share one instance.
package sched

import (
	"fmt"
	"math"

	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/theory"
)

// episodeCap is the number of continuous-time periods an adaptive episode
// builds in a stack array. It holds the episodes the benchmark's contracts
// reach: at p = 2 up to U/c = 2000 (the guideline's 119 periods), beyond
// which an office owner's exponential lifespan (mean 250 setups) runs with
// probability about e⁻⁸. A longer episode spills to the heap through append
// and stays exact.
const episodeCap = 128

// equalSplit partitions L ticks into k periods whose lengths differ by at
// most one tick (first L mod k periods get the extra tick). k is clamped to
// [1, L].
func equalSplit(L quant.Tick, k int) model.TickSchedule {
	return appendEqualSplit(nil, L, k)
}

// appendEqualSplit is equalSplit into the caller's buffer.
func appendEqualSplit(dst model.TickSchedule, L quant.Tick, k int) model.TickSchedule {
	if k < 1 {
		k = 1
	}
	if quant.Tick(k) > L {
		k = int(L)
	}
	base := L / quant.Tick(k)
	extra := L % quant.Tick(k)
	for i := 0; i < k; i++ {
		t := base
		if quant.Tick(i) < extra {
			t++
		}
		dst = append(dst, t)
	}
	return dst
}

// appendQuantizeExact appends a continuous schedule, expressed in tick
// units, to dst as an exact partition of L ticks — the zero-alloc tail of
// every AppendEpisode below. Each period rounds to the nearest tick, at
// least 1, and the rounding residue lands on the longest period (the first
// of equals), which perturbs any one period by at most m ticks. With no
// periods, fewer than one tick per period, or a residue that would wipe out
// the longest period, it appends the single period L.
func appendQuantizeExact(dst model.TickSchedule, periods []float64, L quant.Tick) model.TickSchedule {
	if len(periods) == 0 || L < quant.Tick(len(periods)) {
		return append(dst, L)
	}
	base, longest := len(dst), len(dst)
	residue := L
	for _, t := range periods {
		ticks := max(quant.Tick(math.Round(t)), 1)
		dst = append(dst, ticks)
		residue -= ticks
		if ticks > dst[longest] {
			longest = len(dst) - 1
		}
	}
	if dst[longest]+residue < 1 {
		return append(dst[:base], L)
	}
	dst[longest] += residue
	return dst
}

// --- §3.1: non-adaptive guideline -------------------------------------------

// NonAdaptive is the §3.1 non-adaptive schedule S_na^(p)[U]: m = ⌊√(pU/c)⌋
// equal periods. After an interrupt in period i the tail t_{i+1}, … is used
// verbatim; after the p-th interrupt the remainder of the opportunity is one
// long period. Because interrupts consume no time, the tail is a pure
// function of the residual lifespan, which lets NonAdaptive satisfy the
// adaptive EpisodeScheduler interface exactly.
type NonAdaptive struct {
	U, C    quant.Tick
	P       int
	periods model.TickSchedule
	prefix  []quant.Tick
}

// NewNonAdaptive builds the §3.1 guideline schedule for an opportunity of U
// ticks, p potential interrupts and setup cost c ticks.
func NewNonAdaptive(U quant.Tick, p int, c quant.Tick) (*NonAdaptive, error) {
	if U < 1 || c < 1 || p < 0 {
		return nil, fmt.Errorf("sched: bad non-adaptive parameters U=%d p=%d c=%d", U, p, c)
	}
	m := 1
	if p > 0 {
		m = int(math.Floor(math.Sqrt(float64(p) * float64(U) / float64(c))))
		if m < 1 {
			m = 1
		}
		if quant.Tick(m) > U {
			m = int(U)
		}
	}
	return NonAdaptiveFromPeriods(equalSplit(U, m), p, c)
}

// NonAdaptiveFromPeriods wraps an arbitrary fixed period list in the paper's
// non-adaptive semantics (§2.2): useful both for evaluating hand-crafted
// schedules and for cross-checking the evaluators against one another.
func NonAdaptiveFromPeriods(periods model.TickSchedule, p int, c quant.Tick) (*NonAdaptive, error) {
	if len(periods) == 0 {
		return nil, model.ErrEmptySchedule
	}
	if c < 1 || p < 0 {
		return nil, fmt.Errorf("sched: bad non-adaptive parameters p=%d c=%d", p, c)
	}
	for i, t := range periods {
		if t < 1 {
			return nil, fmt.Errorf("sched: period %d has illegal length %d", i+1, t)
		}
	}
	s := &NonAdaptive{U: periods.Total(), C: c, P: p, periods: periods.Clone()}
	s.prefix = s.periods.PrefixSums()
	return s, nil
}

// Periods returns the full fixed period list t_1, …, t_m.
func (s *NonAdaptive) Periods() model.TickSchedule { return s.periods.Clone() }

// M returns the schedule length m(p)[U].
func (s *NonAdaptive) M() int { return len(s.periods) }

// Episode implements model.EpisodeScheduler with the paper's tail semantics:
// with p interrupts left and residual lifespan L, the elapsed lifespan U−L
// identifies the point of interruption; the schedule resumes with the periods
// wholly after that point. Once the last interrupt has occurred the remainder
// is one long period (the §2.2 exception); note the exception requires an
// interrupt to have happened — an opportunity that starts with p = 0 runs the
// crafted period list as-is.
func (s *NonAdaptive) Episode(p int, L quant.Tick) model.TickSchedule {
	ep := s.AppendEpisode(nil, p, L)
	if len(ep) == 0 {
		return nil
	}
	return ep
}

// AppendEpisode implements model.EpisodeAppender: the surviving tail is
// copied straight into the caller's buffer, no clone.
func (s *NonAdaptive) AppendEpisode(dst model.TickSchedule, p int, L quant.Tick) model.TickSchedule {
	if L < 1 {
		return dst
	}
	elapsed := s.U - L
	if elapsed < 0 {
		// Called with a longer lifespan than the schedule was built for:
		// treat the excess as preceding idle time.
		elapsed = 0
	}
	if p <= 0 && elapsed > 0 {
		return append(dst, L)
	}
	// First boundary at or after the elapsed point: periods from there on
	// are still intact.
	lo, hi := 0, len(s.prefix)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.prefix[mid] >= elapsed {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return append(dst, s.periods[lo:]...)
}

// Name implements model.Namer.
func (s *NonAdaptive) Name() string { return fmt.Sprintf("nonadaptive(m=%d)", len(s.periods)) }

// --- §3.2: adaptive guideline -------------------------------------------------

// AdaptiveGuideline is the adaptive opportunity-schedule Σ_a^(p)[U] of §3.2:
// after every interrupt a fresh episode-schedule S_a^(p′)[L] is computed from
// the residual lifespan L and the remaining interrupt budget p′.
//
// The episode shape follows the paper: a descending ramp with arithmetic step
// δ = 4^{1−p}c, then one adjustment period of (p+½)c, then ℓ_p = ⌈2p/3⌉
// terminal periods of (3/2)c. The adjustment constant is damaged in the
// scanned original; (p+½)c is the reading used here, and E9b's ablations
// vary the ramp step and tail count around it.
type AdaptiveGuideline struct {
	C quant.Tick
}

// NewAdaptiveGuideline returns the Σ_a scheduler for setup cost c ticks.
func NewAdaptiveGuideline(c quant.Tick) (*AdaptiveGuideline, error) {
	if c < 1 {
		return nil, fmt.Errorf("sched: setup cost must be ≥ 1 tick, got %d", c)
	}
	return &AdaptiveGuideline{C: c}, nil
}

// GuidelineConfig parametrizes the §3.2 schedule family so the E9 ablations
// can vary the design choices independently. The zero value reproduces the
// printed guideline (with the residue-spread correction).
type GuidelineConfig struct {
	// RampStep returns δ, the arithmetic step between consecutive ramp
	// periods. Nil uses the printed 4^{1−p}·c.
	RampStep func(p int, c float64) float64
	// TailCount returns ℓ_p, the number of terminal (3/2)c periods. Nil uses
	// the printed ⌈2p/3⌉.
	TailCount func(p int) int
	// DumpResidue reverts to dumping the sub-period residue onto the first
	// period instead of spreading it across the ramp (the E9 residue
	// ablation; dumping hands the adversary an oversized first kill).
	DumpResidue bool
}

// GuidelinePeriodsUnitsCfg builds S_a^(p)[L] in continuous time (tick units)
// under an explicit configuration.
func GuidelinePeriodsUnitsCfg(p int, L, c float64, cfg GuidelineConfig) []float64 {
	return appendGuidelineUnits(nil, p, L, c, cfg)
}

// appendGuidelineUnits builds S_a^(p)[L] into the caller's buffer: the ramp
// is appended ascending, residue-adjusted, then reversed in place (longest
// first), so the whole episode costs zero allocations when the buffer has
// room.
func appendGuidelineUnits(buf []float64, p int, L, c float64, cfg GuidelineConfig) []float64 {
	if p <= 0 || L <= (float64(p)+1)*c {
		return append(buf, L)
	}
	ellp := (2*p + 2) / 3 // ⌈2p/3⌉
	if cfg.TailCount != nil {
		ellp = cfg.TailCount(p)
		if ellp < 0 {
			ellp = 0
		}
	}
	tailLen := 1.5 * c
	adj := (float64(p) + 0.5) * c
	base := float64(ellp)*tailLen + adj
	if L <= base+c {
		// Residual too short for the canonical shape: fall back to roughly
		// (3/2)c-sized equal periods, the shape Theorem 4.2 says terminal
		// regions should take.
		k := int(L / tailLen)
		if k < 1 {
			k = 1
		}
		for i := 0; i < k; i++ {
			buf = append(buf, L/float64(k))
		}
		return buf
	}
	delta := math.Pow(4, float64(1-p)) * c
	if cfg.RampStep != nil {
		delta = cfg.RampStep(p, c)
		if delta <= 0 {
			delta = c
		}
	}
	rem := L - base
	rampAt := len(buf)
	t := adj + delta
	for rem >= t {
		buf = append(buf, t)
		rem -= t
		t += delta
	}
	ramp := buf[rampAt:]
	switch {
	case len(ramp) == 0:
		adj += rem
	case cfg.DumpResidue:
		ramp[len(ramp)-1] += rem
	default:
		// Spread the sub-period residue uniformly over the ramp. A uniform
		// shift preserves the ramp's δ steps and, crucially, the damage
		// equalization: dumping the residue on one period would hand the
		// adversary a period worth up to twice the intended maximum.
		shift := rem / float64(len(ramp))
		for i := range ramp {
			ramp[i] += shift
		}
	}
	for i, j := 0, len(ramp)-1; i < j; i, j = i+1, j-1 { // longest first
		ramp[i], ramp[j] = ramp[j], ramp[i]
	}
	buf = append(buf, adj)
	for i := 0; i < ellp; i++ {
		buf = append(buf, tailLen)
	}
	return buf
}

// GuidelineVariant is an AdaptiveGuideline under a non-default configuration,
// used by the E9 ablations.
type GuidelineVariant struct {
	C       quant.Tick
	Cfg     GuidelineConfig
	Variant string // label suffix for reports
}

// Episode implements model.EpisodeScheduler.
func (s GuidelineVariant) Episode(p int, L quant.Tick) model.TickSchedule {
	if L < 1 {
		return nil
	}
	if p <= 0 {
		return model.TickSchedule{L}
	}
	return appendQuantizeExact(nil, GuidelinePeriodsUnitsCfg(p, float64(L), float64(s.C), s.Cfg), L)
}

// Name implements model.Namer.
func (s GuidelineVariant) Name() string { return "adaptive-guideline[" + s.Variant + "]" }

// Episode implements model.EpisodeScheduler.
func (s *AdaptiveGuideline) Episode(p int, L quant.Tick) model.TickSchedule {
	if L < 1 {
		return nil
	}
	return s.AppendEpisode(nil, p, L)
}

// AppendEpisode implements model.EpisodeAppender.
func (s *AdaptiveGuideline) AppendEpisode(dst model.TickSchedule, p int, L quant.Tick) model.TickSchedule {
	if L < 1 {
		return dst
	}
	if p <= 0 {
		return append(dst, L)
	}
	var buf [episodeCap]float64
	return appendQuantizeExact(dst, appendGuidelineUnits(buf[:0], p, float64(L), float64(s.C), GuidelineConfig{}), L)
}

// Name implements model.Namer.
func (s *AdaptiveGuideline) Name() string { return "adaptive-guideline" }

// --- Theorem 4.3 realized: the equalization schedule ---------------------------

// AdaptiveEqualized is the adaptive schedule obtained by carrying out the
// paper's equalization program (Theorem 4.3) exactly rather than through the
// printed closed forms: each period is t = α_p·√(2cR) of the episode residual
// R, which makes the adversary indifferent between abstaining and
// interrupting any period (see internal/theory for the α_p/K_p recursion).
// At p = 1 it coincides with §5.2's optimal ladder t_k ≈ √(2cU) − kc; for
// every p the exact game solver confirms it is optimal to within low-order
// additive terms — the property Theorem 5.1 claims for Σ_a.
type AdaptiveEqualized struct {
	C quant.Tick
}

// NewAdaptiveEqualized returns the equalization scheduler for setup cost c.
func NewAdaptiveEqualized(c quant.Tick) (*AdaptiveEqualized, error) {
	if c < 1 {
		return nil, fmt.Errorf("sched: setup cost must be ≥ 1 tick, got %d", c)
	}
	return &AdaptiveEqualized{C: c}, nil
}

// appendEqualizedUnits builds the equalization episode in continuous time
// (tick units) into the caller's buffer.
func appendEqualizedUnits(buf []float64, p int, L, c float64) []float64 {
	if p <= 0 || L <= (float64(p)+1)*c {
		return append(buf, L)
	}
	alpha := theory.EqualizedAlpha(p)
	R := L
	// Ride the self-similar ramp while periods stay comfortably productive;
	// Theorem 4.2 says the terminal region should be short periods in
	// (c, 2c], so hand over to a (3/2)c tail once the ramp dips below 2c.
	for {
		t := alpha * math.Sqrt(2*c*R)
		if t < 2*c || R-t < c {
			break
		}
		buf = append(buf, t)
		R -= t
	}
	if R > 0 {
		k := int(math.Round(R / (1.5 * c)))
		if k < 1 {
			k = 1
		}
		for i := 0; i < k; i++ {
			buf = append(buf, R/float64(k))
		}
	}
	return buf
}

// Episode implements model.EpisodeScheduler.
func (s *AdaptiveEqualized) Episode(p int, L quant.Tick) model.TickSchedule {
	if L < 1 {
		return nil
	}
	return s.AppendEpisode(nil, p, L)
}

// AppendEpisode implements model.EpisodeAppender.
func (s *AdaptiveEqualized) AppendEpisode(dst model.TickSchedule, p int, L quant.Tick) model.TickSchedule {
	if L < 1 {
		return dst
	}
	if p <= 0 {
		return append(dst, L)
	}
	var buf [episodeCap]float64
	return appendQuantizeExact(dst, appendEqualizedUnits(buf[:0], p, float64(L), float64(s.C)), L)
}

// Name implements model.Namer.
func (s *AdaptiveEqualized) Name() string { return "adaptive-equalized" }

// --- §5.2: optimal schedule for p = 1 ----------------------------------------

// OptimalP1 is the closed-form optimal adaptive schedule for at most one
// interrupt (§5.2, eq. 5.1 and Table 2): m = ⌈√(2U/c − 7/4) − ½⌉ periods with
// t_m = t_{m−1} = (1+ε)c and t_k = t_{k+1} + c, where ε ∈ (0,1] makes the
// lengths sum to U. After the interrupt (p = 0) the remainder is one long
// period.
type OptimalP1 struct {
	C quant.Tick
}

// NewOptimalP1 returns the S_opt^(1) scheduler for setup cost c ticks.
func NewOptimalP1(c quant.Tick) (*OptimalP1, error) {
	if c < 1 {
		return nil, fmt.Errorf("sched: setup cost must be ≥ 1 tick, got %d", c)
	}
	return &OptimalP1{C: c}, nil
}

// appendOptimalP1Units builds the §5.2 ladder S_opt^(1)[U] in continuous
// time into the caller's buffer. It appends a single period when U ≤ 2c (the
// zero-work regime for p = 1).
func appendOptimalP1Units(buf []float64, U, c float64) []float64 {
	if U <= 2*c {
		return append(buf, U)
	}
	m := optimalP1MAdjusted(U, c)
	eps := optimalP1Epsilon(U, c, m)
	for k := 1; k <= m-2; k++ {
		buf = append(buf, (float64(m-k)+eps)*c)
	}
	return append(buf, (1+eps)*c, (1+eps)*c)
}

func optimalP1Epsilon(U, c float64, m int) float64 {
	return (U-c)/(float64(m)*c) - float64(m-1)/2
}

func optimalP1MAdjusted(U, c float64) int {
	arg := 2*U/c - 7.0/4.0
	m := 2
	if arg > 0 {
		if v := int(math.Ceil(math.Sqrt(arg) - 0.5)); v > 2 {
			m = v
		}
	}
	for m > 2 && optimalP1Epsilon(U, c, m) <= 0 {
		m--
	}
	for optimalP1Epsilon(U, c, m) > 1 {
		m++
	}
	return m
}

// Episode implements model.EpisodeScheduler. For p ≥ 2 it still emits the
// p = 1 episode shape (the schedule is only designed — and only claimed
// optimal — for one outstanding interrupt).
func (s *OptimalP1) Episode(p int, L quant.Tick) model.TickSchedule {
	if L < 1 {
		return nil
	}
	return s.AppendEpisode(nil, p, L)
}

// AppendEpisode implements model.EpisodeAppender.
func (s *OptimalP1) AppendEpisode(dst model.TickSchedule, p int, L quant.Tick) model.TickSchedule {
	if L < 1 {
		return dst
	}
	if p <= 0 {
		return append(dst, L)
	}
	var buf [episodeCap]float64
	return appendQuantizeExact(dst, appendOptimalP1Units(buf[:0], float64(L), float64(s.C)), L)
}

// Name implements model.Namer.
func (s *OptimalP1) Name() string { return "optimal-p1" }

// --- baselines ----------------------------------------------------------------

// SinglePeriod schedules every episode as one long period — the p = 0 optimum
// applied blindly; the natural "no cycle-stealing awareness" baseline.
type SinglePeriod struct{}

// Episode implements model.EpisodeScheduler.
func (SinglePeriod) Episode(p int, L quant.Tick) model.TickSchedule {
	if L < 1 {
		return nil
	}
	return model.TickSchedule{L}
}

// AppendEpisode implements model.EpisodeAppender.
func (SinglePeriod) AppendEpisode(dst model.TickSchedule, p int, L quant.Tick) model.TickSchedule {
	if L < 1 {
		return dst
	}
	return append(dst, L)
}

// Name implements model.Namer.
func (SinglePeriod) Name() string { return "single-period" }

// EqualSplit splits every episode into M equal periods regardless of p —
// checkpoint-every-1/M-th, a common folk strategy.
type EqualSplit struct {
	M int
}

// Episode implements model.EpisodeScheduler.
func (s EqualSplit) Episode(p int, L quant.Tick) model.TickSchedule {
	if L < 1 {
		return nil
	}
	return equalSplit(L, s.M)
}

// AppendEpisode implements model.EpisodeAppender.
func (s EqualSplit) AppendEpisode(dst model.TickSchedule, p int, L quant.Tick) model.TickSchedule {
	if L < 1 {
		return dst
	}
	return appendEqualSplit(dst, L, s.M)
}

// Name implements model.Namer.
func (s EqualSplit) Name() string { return fmt.Sprintf("equal-split(%d)", s.M) }

// FixedChunk supplies work in fixed-size chunks of T ticks until the residual
// is smaller than T — the shape of the coscheduling auction of Atallah et
// al. [1], where large identical chunks of a compute-intensive task are
// auctioned off one at a time.
type FixedChunk struct {
	T quant.Tick
}

// Episode implements model.EpisodeScheduler.
func (s FixedChunk) Episode(p int, L quant.Tick) model.TickSchedule {
	if L < 1 {
		return nil
	}
	return s.AppendEpisode(make(model.TickSchedule, 0, L/max(s.T, 1)+1), p, L)
}

// AppendEpisode implements model.EpisodeAppender.
func (s FixedChunk) AppendEpisode(dst model.TickSchedule, p int, L quant.Tick) model.TickSchedule {
	if L < 1 {
		return dst
	}
	t := max(s.T, 1)
	n := L / t
	for i := quant.Tick(0); i < n; i++ {
		dst = append(dst, t)
	}
	if rem := L - n*t; rem > 0 {
		dst = append(dst, rem)
	}
	return dst
}

// Name implements model.Namer.
func (s FixedChunk) Name() string { return fmt.Sprintf("fixed-chunk(%d)", s.T) }
