// Package game computes exact guaranteed-output values for the cycle-stealing
// game of §4: the scheduler maximizes, the malicious owner of the borrowed
// workstation minimizes by placing up to p interrupts.
//
// All computation happens on the integer tick grid (see internal/quant), so
// results are exact for the discretized game. Three facilities are provided:
//
//   - Solver: the optimal game value W(p)[L] for every residual lifespan
//     L ≤ U, via the bootstrapping recursion of §4 ("always assume access to
//     an optimal (p−1)-interrupt schedule"), plus extraction of the optimal
//     episode-schedule (Theorem 4.3's equalization emerges numerically).
//   - Evaluate/EvaluateWithStrategy: the exact worst case of an arbitrary
//     EpisodeScheduler against the last-instant adversary of Observation (a),
//     with the minimizing strategy available for replay in the simulator.
//   - EvaluateExhaustive: the worst case over interrupts at every tick, used
//     to validate Observation (a) (last-instant placements dominate).
//
// The recursion: with V(0, L) = L ⊖ c and V(p, 0) = 0,
//
//	V(p, L) = max_{t ∈ [1..L]} min( (t ⊖ c) + V(p, L−t),  V(p−1, L−t) )
//
// The first branch is the adversary letting period t complete; the second is
// an interrupt at the period's last instant (which nullifies the full t, per
// Observation (a); earlier placements leave a larger residual and are
// dominated because V is nondecreasing in L).
//
// The max over t need not scan [1..L]: the first branch is nondecreasing in
// t and the second nonincreasing, so the optimum sits where they cross, and
// whether a given t lies past the crossing is a monotone predicate. One
// search finds that crossing for every caller: it starts from a hint — the
// crossing of the neighbouring lifespan L−1 when a table is filled, the
// previous period's when an optimal episode is extracted — gallops outward
// in steps of 1, 2, 4, … ticks until it brackets the crossing, then bisects
// the bracket. Monotonicity makes the answer independent of the hint, so the
// tables and episodes are exactly those of a full bisection per cell; the
// hint only sets the cost, O(1 + log |crossing − hint|) probes. The crossing
// moves by at most one tick per tick of lifespan in every instance measured
// (p ≤ 5, U up to 100,000 ticks, c from 1 to 100 ticks), so a table costs
// O(P·U) probes instead of the O(P·U·log U) of bisecting every cell afresh.
package game

import (
	"fmt"

	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
)

// maxTableEntries caps solver memory (entries are 8 bytes each).
const maxTableEntries = 1 << 28

// Solver holds the exact value tables V(q, L) for q = 0..P, L = 0..U.
type Solver struct {
	c quant.Tick
	p int
	u quant.Tick
	v [][]quant.Tick // v[q][L]
}

// Solve computes the value tables with the crossing-point method. P is the
// interrupt bound, U the lifespan and c the setup cost, all in ticks.
//
// Each row V(q, ·) is filled in increasing L, and the search for the
// crossing at L starts from the crossing found at L−1 (see the package doc).
// Where the crossing moves by a tick or less per tick of L, as in every
// instance measured, a cell costs a constant number of probes and the whole
// table O(P·U) time; the worst case is O(P·U·log U), the cost of bisecting
// every cell. Memory is (P+1)·(U+1) ticks.
func Solve(P int, U, c quant.Tick) (*Solver, error) {
	if err := validate(P, U, c); err != nil {
		return nil, err
	}
	s := &Solver{c: c, p: P, u: U, v: newTables(P, U)}
	for L := quant.Tick(0); L <= U; L++ {
		s.v[0][L] = quant.PosSub(L, c)
	}
	for q := 1; q <= P; q++ {
		var x quant.Tick // the crossing at L−1 seeds the search at L
		for L := quant.Tick(1); L <= U; L++ {
			s.v[q][L], _, x = solveCell(s.v[q], s.v[q-1], L, c, x)
		}
	}
	return s, nil
}

// SolveReference computes the same tables by brute force over every first
// period length — O(P·U²). It exists to cross-check the fast solver and for
// the E9 ablation; use only for small U.
func SolveReference(P int, U, c quant.Tick) (*Solver, error) {
	if err := validate(P, U, c); err != nil {
		return nil, err
	}
	s := &Solver{c: c, p: P, u: U, v: newTables(P, U)}
	for L := quant.Tick(0); L <= U; L++ {
		s.v[0][L] = quant.PosSub(L, c)
	}
	for q := 1; q <= P; q++ {
		for L := quant.Tick(1); L <= U; L++ {
			var best quant.Tick
			for t := quant.Tick(1); t <= L; t++ {
				complete := quant.PosSub(t, s.c) + s.v[q][L-t]
				interrupt := s.v[q-1][L-t]
				cand := min(complete, interrupt)
				if cand > best {
					best = cand
				}
			}
			s.v[q][L] = best
		}
	}
	return s, nil
}

func validate(P int, U, c quant.Tick) error {
	switch {
	case P < 0:
		return fmt.Errorf("game: interrupt bound must be ≥ 0, got %d", P)
	case U < 0:
		return fmt.Errorf("game: lifespan must be ≥ 0, got %d", U)
	case c < 1:
		return fmt.Errorf("game: setup cost must be ≥ 1 tick, got %d", c)
	}
	if entries := (int64(P) + 1) * (int64(U) + 1); entries > maxTableEntries {
		return fmt.Errorf("game: value table would need %d entries (max %d); coarsen the quantum", entries, maxTableEntries)
	}
	return nil
}

func newTables(P int, U quant.Tick) [][]quant.Tick {
	v := make([][]quant.Tick, P+1)
	for i := range v {
		v[i] = make([]quant.Tick, U+1)
	}
	return v
}

// solveCell solves cell (q, L) of the recursion from two rows: cur = V(q, ·),
// filled below L, and prev = V(q−1, ·). It returns the value V(q, L), the
// maximizing first period t*, and the crossing x the search settled on, which
// seeds the search at the next cell.
//
// Restricting to t ≥ c+1 is lossless: a period of length ≤ c banks nothing
// and merely shrinks the residual, which cannot raise either branch (V is
// nondecreasing in L; this is Theorem 4.1's productive normal form). On
// t ∈ [c+1, L], complete(t) = (t−c) + V(q, L−t) is nondecreasing (V is
// 1-Lipschitz) and interrupt(t) = V(q−1, L−t) is nonincreasing, so
// min(complete, interrupt) rises then falls; the maximum sits where the
// curves cross: at the crossing x, the smallest t with
// complete(t) ≥ interrupt(t), or at x−1, which is taken only when it is
// strictly better.
//
// The predicate complete(t) ≥ interrupt(t) is monotone in t, so x can be
// found from any starting point: the search probes hint, gallops outward
// from it in steps of 1, 2, 4, … ticks until it brackets x, then bisects the
// bracket. The answer does not depend on hint; the cost does, at
// O(1 + log |x − hint|) probes.
func solveCell(cur, prev []quant.Tick, L, c, hint quant.Tick) (v, t, x quant.Tick) {
	tmin := c + 1
	if tmin > L {
		// Only the single exhausting period is available; it banks nothing.
		return 0, L, tmin
	}
	// Invariant: crosses(lo) is false or lo = tmin−1; crosses(hi) is true.
	var lo, hi quant.Tick
	if h := max(tmin, min(hint, L)); crosses(cur, prev, L, c, h) {
		hi = h
		for step := quant.Tick(1); ; step *= 2 {
			lo = hi - step
			if lo < tmin {
				lo = tmin - 1
				break
			}
			if !crosses(cur, prev, L, c, lo) {
				break
			}
			hi = lo
		}
	} else {
		lo = h
		for step := quant.Tick(1); ; step *= 2 {
			hi = lo + step
			if hi >= L {
				// complete(L) = L−c ≥ 0 = interrupt(L): the curves cross by L.
				hi = L
				break
			}
			if crosses(cur, prev, L, c, hi) {
				break
			}
			lo = hi
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if crosses(cur, prev, L, c, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	x = hi
	v, t = min(x-c+cur[L-x], prev[L-x]), x
	if x > tmin {
		if cand := min(x-1-c+cur[L-x+1], prev[L-x+1]); cand > v {
			v, t = cand, x-1
		}
	}
	return v, t, x
}

// crosses reports complete(t) ≥ interrupt(t) for first period t of cell
// (q, L), with cur and prev as in solveCell.
func crosses(cur, prev []quant.Tick, L, c, t quant.Tick) bool {
	return t-c+cur[L-t] >= prev[L-t]
}

// C returns the setup cost in ticks.
func (s *Solver) C() quant.Tick { return s.c }

// P returns the interrupt bound the tables cover.
func (s *Solver) P() int { return s.p }

// U returns the lifespan the tables cover.
func (s *Solver) U() quant.Tick { return s.u }

// Value returns V(p, L), the optimal guaranteed output with residual
// lifespan L and at most p interrupts outstanding. It panics if (p, L) lies
// outside the solved tables; use Solve with large enough bounds.
func (s *Solver) Value(p int, L quant.Tick) quant.Tick {
	if p < 0 || p > s.p || L < 0 || L > s.u {
		panic(fmt.Sprintf("game: Value(%d, %d) outside solved range p≤%d L≤%d", p, L, s.p, s.u))
	}
	return s.v[p][L]
}

// OptimalEpisode extracts an optimal episode-schedule S_opt^(p)[L]: the
// period lengths an optimal player commits to until the next interrupt.
// Once the residual value hits zero the remainder — at most (p+1)c + p ticks,
// the discrete zero-work threshold — is emitted as a single final period:
// lumping it maximizes the abstention branch (splitting would pay extra
// setups), and the worst case over that region is zero either way. The
// Theorem 4.2 normal form ((c, 2c] terminal periods) therefore applies to the
// periods *before* this terminal lump.
func (s *Solver) OptimalEpisode(p int, L quant.Tick) model.TickSchedule {
	if L < 1 {
		return nil
	}
	if p <= 0 {
		return model.TickSchedule{L}
	}
	if p > s.p {
		p = s.p
	}
	var out model.TickSchedule
	var x quant.Tick // the last period's crossing seeds the next search
	for L > 0 {
		if s.v[p][L] == 0 {
			out = append(out, L)
			break
		}
		var t quant.Tick
		_, t, x = solveCell(s.v[p], s.v[p-1], L, s.c, x)
		out = append(out, t)
		L -= t
	}
	return out
}

// Scheduler wraps the solver as a model.EpisodeScheduler: the exactly optimal
// adaptive player. Residuals beyond the solved lifespan are clamped.
func (s *Solver) Scheduler() model.EpisodeScheduler {
	return optimalScheduler{s}
}

type optimalScheduler struct{ s *Solver }

func (o optimalScheduler) Episode(p int, L quant.Tick) model.TickSchedule {
	if L > o.s.u {
		L = o.s.u
	}
	return o.s.OptimalEpisode(p, L)
}

func (o optimalScheduler) Name() string { return "dp-optimal" }
