// Package expect implements the *expected-output* submodel — the subject of
// the companion paper (Rosenberg, IPPS 1998, "…I: On Maximizing Expected
// Output" [9]) and of [3] — as an extension to this reproduction, so the
// guaranteed-output schedules can be contrasted with schedules tuned for a
// benign stochastic owner (experiment E8).
//
// Model: the owner returns after an exponentially distributed absence
// (memoryless with mean 1/λ ticks); the first return inside the opportunity
// kills the period in progress and, in the draconian single-interrupt
// reading used here, ends the opportunity. A schedule t_1, …, t_m therefore
// earns period k's work t_k ⊖ c exactly when the owner stays away through
// T_k, so
//
//	E[W(S)] = Σ_k  e^{−λ·T_k} · (t_k ⊖ c).
//
// This is *not* from the paper being reproduced: it is an extension, used
// only for the guaranteed-vs-expected comparison of experiment E8.
package expect

import (
	"fmt"
	"math"

	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
)

// ExpectedWork returns E[W(S)] for a fixed schedule under the exponential
// owner with rate lambda (per tick).
func ExpectedWork(s model.TickSchedule, c quant.Tick, lambda float64) float64 {
	var sum float64
	var T quant.Tick
	for _, t := range s {
		T += t
		sum += math.Exp(-lambda*float64(T)) * float64(quant.PosSub(t, c))
	}
	return sum
}

// OptimalFixedPeriod returns the period length t* maximizing the steady-state
// expected yield rate of an infinite fixed-period schedule,
// f(t) = e^{−λt}(t−c), by ternary search. For λc ≪ 1, t* ≈ c + √(c/λ)·…;
// the numeric optimum is exact for the model above.
func OptimalFixedPeriod(c quant.Tick, lambda float64) quant.Tick {
	if lambda <= 0 {
		return math.MaxInt64 // no interrupts: one giant period
	}
	yield := func(t float64) float64 {
		if t <= float64(c) {
			return 0
		}
		// Per-period discounted gain normalized by expected period "slot":
		// the first-order optimality of the infinite product Π e^{−λt}
		// reduces to maximizing e^{−λt}(t−c) per unit time ≈ (t−c)e^{−λt}/t.
		return (t - float64(c)) * math.Exp(-lambda*t) / t
	}
	lo, hi := float64(c), float64(c)+20/lambda+10*float64(c)
	for i := 0; i < 200; i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if yield(m1) < yield(m2) {
			lo = m1
		} else {
			hi = m2
		}
	}
	t := quant.Tick(math.Round((lo + hi) / 2))
	if t <= c {
		t = c + 1
	}
	return t
}

// Solver computes the exact optimal expected work E*(L) for every residual
// lifespan L ≤ U by dynamic programming on the tick grid:
//
//	E*(L) = max_{1 ≤ t ≤ L}  e^{−λt} · ( (t ⊖ c) + E*(L−t) )
//
// (conditioning on the owner staying away through the first period; if the
// owner returns during it, nothing more is earned in this submodel).
type Solver struct {
	c      quant.Tick
	u      quant.Tick
	lambda float64
	e      []float64
	first  []quant.Tick
}

// SolveExpected builds the expected-output DP up to lifespan U.
func SolveExpected(U, c quant.Tick, lambda float64) (*Solver, error) {
	if U < 0 || c < 1 || lambda < 0 {
		return nil, fmt.Errorf("expect: bad parameters U=%d c=%d lambda=%g", U, c, lambda)
	}
	if U > 1<<22 {
		return nil, fmt.Errorf("expect: lifespan %d too large for the quadratic DP; coarsen the quantum", U)
	}
	s := &Solver{c: c, u: U, lambda: lambda, e: make([]float64, U+1), first: make([]quant.Tick, U+1)}
	// The maximand is unimodal-ish but we keep the exact scan: the search
	// window below prunes with the discount's exponential decay — beyond
	// t ≈ c + 30/λ, e^{−λt} has lost every bit of a float64's precision.
	window := U
	if lambda > 0 {
		w := quant.Tick(30/lambda) + 3*c + 2
		if w < window {
			window = w
		}
	}
	for L := quant.Tick(1); L <= U; L++ {
		var best float64
		bestT := L
		tmax := L
		if tmax > window {
			tmax = window
		}
		for t := quant.Tick(1); t <= tmax; t++ {
			v := math.Exp(-lambda*float64(t)) * (float64(quant.PosSub(t, c)) + s.e[L-t])
			if v > best {
				best = v
				bestT = t
			}
		}
		// The single exhausting period is always a candidate even beyond the
		// pruning window.
		if v := math.Exp(-lambda*float64(L)) * float64(quant.PosSub(L, c)); v > best {
			best = v
			bestT = L
		}
		s.e[L] = best
		s.first[L] = bestT
	}
	return s, nil
}

// Value returns E*(L).
func (s *Solver) Value(L quant.Tick) float64 {
	if L < 0 || L > s.u {
		panic(fmt.Sprintf("expect: Value(%d) outside solved range [0,%d]", L, s.u))
	}
	return s.e[L]
}

// Schedule extracts the optimal expected-output schedule for lifespan L.
func (s *Solver) Schedule(L quant.Tick) model.TickSchedule {
	if L < 1 {
		return nil
	}
	var out model.TickSchedule
	for L > 0 {
		t := s.first[L]
		if t < 1 {
			t = L
		}
		out = append(out, t)
		L -= t
	}
	return out
}

// Scheduler adapts the solver to the adaptive EpisodeScheduler interface so
// the expected-optimal policy can be run in the simulator and measured under
// the malicious adversary (it fares poorly — that is E8's point).
func (s *Solver) Scheduler() model.EpisodeScheduler {
	return expectedScheduler{s}
}

type expectedScheduler struct{ s *Solver }

func (e expectedScheduler) Episode(p int, L quant.Tick) model.TickSchedule {
	if L > e.s.u {
		L = e.s.u
	}
	return e.s.Schedule(L)
}

func (e expectedScheduler) Name() string { return "expected-optimal" }
