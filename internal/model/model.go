// Package model defines the formal objects of Rosenberg's guaranteed-output
// cycle-stealing model (IPPS 1999, §2): opportunities, episode-schedules on
// the tick grid, work accounting under positive subtraction, and the
// scheduler interfaces the rest of the system builds on.
//
// Vocabulary (paper §2):
//
//   - An *opportunity* is a usable lifespan U punctuated by at most p
//     owner interrupts; each interrupt kills the work of the period it lands
//     in (draconian contract).
//   - An *episode* is a maximal interrupt-free prefix of the remaining
//     lifespan; the scheduler partitions it into *periods* t_1, …, t_m with
//     Σ t_i equal to the residual lifespan.
//   - A completed period of length t banks t ⊖ c work units, where c is the
//     setup cost of the paired send-work/return-results communications.
package model

import (
	"errors"
	"fmt"
	"math"

	"cyclesteal/internal/quant"
)

// Opportunity describes one cycle-stealing opportunity in continuous time
// units: workstation B is usable for Lifespan units, its owner may interrupt
// at most Interrupts times, and every period pays the communication setup
// cost Setup (the paper's c).
type Opportunity struct {
	Lifespan   float64 // U > 0, in time units
	Interrupts int     // p ≥ 0, upper bound on owner interrupts
	Setup      float64 // c > 0, per-period communication setup cost
}

// Validate reports whether the opportunity parameters are in the model's
// domain (U > 0, p ≥ 0, c > 0, all finite).
func (o Opportunity) Validate() error {
	switch {
	case math.IsNaN(o.Lifespan) || math.IsInf(o.Lifespan, 0) || o.Lifespan <= 0:
		return fmt.Errorf("model: lifespan U must be positive and finite, got %v", o.Lifespan)
	case o.Interrupts < 0:
		return fmt.Errorf("model: interrupt bound p must be nonnegative, got %d", o.Interrupts)
	case math.IsNaN(o.Setup) || math.IsInf(o.Setup, 0) || o.Setup <= 0:
		return fmt.Errorf("model: setup cost c must be positive and finite, got %v", o.Setup)
	}
	return nil
}

// ErrEmptySchedule is returned when an episode-schedule has no periods.
var ErrEmptySchedule = errors.New("model: episode-schedule has no periods")

// TickSchedule is an episode-schedule on the integer tick grid. The exact
// game solver and the simulator operate in this domain so that worst-case
// values are computed without floating-point ambiguity.
type TickSchedule []quant.Tick

// Total returns Σ t_i in ticks.
func (s TickSchedule) Total() quant.Tick {
	var sum quant.Tick
	for _, t := range s {
		sum += t
	}
	return sum
}

// PrefixSums returns T_0 = 0, T_1, …, T_m in ticks (length m+1).
func (s TickSchedule) PrefixSums() []quant.Tick {
	sums := make([]quant.Tick, len(s)+1)
	for i, t := range s {
		sums[i+1] = sums[i] + t
	}
	return sums
}

// UninterruptedWork returns Σ (t_k ⊖ c) in ticks.
func (s TickSchedule) UninterruptedWork(c quant.Tick) quant.Tick {
	var w quant.Tick
	for _, t := range s {
		w += quant.PosSub(t, c)
	}
	return w
}

// WorkBeforePeriod returns the ticks of work banked by periods 1..k-1
// (the episode output when period k is interrupted). k is 1-based.
func (s TickSchedule) WorkBeforePeriod(k int, c quant.Tick) quant.Tick {
	if k < 1 {
		return 0
	}
	var w quant.Tick
	for i := 0; i < k-1 && i < len(s); i++ {
		w += quant.PosSub(s[i], c)
	}
	return w
}

// Validate checks the tick schedule partitions exactly total ticks with
// every period ≥ 1.
func (s TickSchedule) Validate(total quant.Tick) error {
	if len(s) == 0 {
		return ErrEmptySchedule
	}
	for i, t := range s {
		if t < 1 {
			return fmt.Errorf("model: tick period %d has illegal length %d", i+1, t)
		}
	}
	if got := s.Total(); got != total {
		return fmt.Errorf("model: tick schedule totals %d, want %d", got, total)
	}
	return nil
}

// Clone returns a deep copy.
func (s TickSchedule) Clone() TickSchedule {
	out := make(TickSchedule, len(s))
	copy(out, s)
	return out
}

// EpisodeScheduler is the adaptive-scheduling interface of §2.2: given the
// number of interrupts the adversary still holds and the residual lifespan in
// ticks, produce the episode-schedule to run until the next interrupt (or the
// end of the opportunity). Implementations must return a schedule whose
// periods are ≥ 1 tick and sum exactly to the residual lifespan.
//
// Non-adaptive schedules are expressed in this interface too: because
// interrupts consume no time, the elapsed lifespan U−L identifies the point
// of interruption, so "continue with the tail" is a pure function of (p, L)
// (see sched.NonAdaptive).
type EpisodeScheduler interface {
	// Episode returns the period lengths for an episode beginning with
	// p potential interrupts outstanding and L ticks of residual lifespan.
	// L ≥ 1.
	Episode(p int, L quant.Tick) TickSchedule
}

// EpisodeFunc adapts a plain function to the EpisodeScheduler interface.
type EpisodeFunc func(p int, L quant.Tick) TickSchedule

// Episode implements EpisodeScheduler.
func (f EpisodeFunc) Episode(p int, L quant.Tick) TickSchedule { return f(p, L) }

// EpisodeAppender is the allocation-free variant of EpisodeScheduler: the
// episode's periods are appended to dst and the extended slice returned, so a
// driver replaying millions of opportunities can reuse one episode buffer per
// station instead of allocating a fresh TickSchedule per episode. The
// appended periods must be exactly Episode(p, L); callers own dst and may
// overwrite it after use.
type EpisodeAppender interface {
	AppendEpisode(dst TickSchedule, p int, L quant.Tick) TickSchedule
}

// AppendEpisode appends s's episode for (p, L) to dst, using the scheduler's
// allocation-free AppendEpisode when it has one and falling back to copying
// the Episode result otherwise. This is the call the simulator's hot loop
// makes, so implementing EpisodeAppender is the opt-in to the zero-alloc
// episode path.
func AppendEpisode(s EpisodeScheduler, dst TickSchedule, p int, L quant.Tick) TickSchedule {
	if a, ok := s.(EpisodeAppender); ok {
		return a.AppendEpisode(dst, p, L)
	}
	return append(dst, s.Episode(p, L)...)
}

// Namer is implemented by schedulers that can report a human-readable name
// for experiment tables.
type Namer interface {
	Name() string
}

// NameOf returns s's name if it implements Namer, else a generic label.
func NameOf(s EpisodeScheduler) string {
	if n, ok := s.(Namer); ok {
		return n.Name()
	}
	return fmt.Sprintf("%T", s)
}
