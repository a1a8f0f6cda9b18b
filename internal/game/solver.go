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
// whether a given t lies past the crossing is a monotone predicate. The
// package searches that one predicate two ways:
//
//   - Filling a row (Solve, SolveValueRow). Write the crossing by its
//     residual s = L − t. Both rows are nondecreasing and 1-Lipschitz in L,
//     so g(s) = s + V(p−1, s) − V(p, s) steps by 0, 1 or 2 and never falls,
//     and t crosses exactly when g(s) ≤ L − c. The largest residual that
//     crosses therefore never moves back as L grows: one pointer walks
//     forward through the row, and a row of U cells costs at most U pointer
//     steps, the table O(P·U), with no search per cell.
//   - Extracting an optimal episode (OptimalEpisode), whose consecutive
//     cells lie a whole period apart. There a forward pointer would walk
//     about √(2cL) ticks per period, so the search instead probes a hint —
//     the previous period's crossing — gallops outward in steps of 1, 2,
//     4, … ticks until it brackets the crossing, then bisects the bracket,
//     at O(1 + log |crossing − hint|) probes.
//
// Monotonicity makes both answers exactly those of a full bisection per
// cell; TestHintedSearchMatchesBisection pins every entry point against one.
//
// No table needs more than ⌈U/c⌉+1 rows, whatever P. On the tick grid
// V(q, L) = 0 for L ≤ (q+1)c (Prop. 4.1(c); by induction on q, then on L),
// so row ⌈U/c⌉−1 is zero on all of [0, U]; and V is nonincreasing in q, so
// every later row is that same zero row. Solve and SolveValueRow therefore
// fill rows 0..min(P, ⌈U/c⌉) only, and a table reads any q past its last
// stored row from that row: past the paper's zero-work threshold an
// interrupt bound costs nothing, however large.
package game

import (
	"fmt"

	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
)

// maxTableEntries caps solver memory (entries are 4 bytes each).
const maxTableEntries = 1 << 28

// The tables hold int32 values. validate keeps every lifespan below
// maxTableEntries, V(q, L) ≤ L, and the largest sum a row fill forms,
// g(s) = s + V(q−1, s) − V(q, s), is at most 2U; this line stops compiling
// if maxTableEntries ever outgrows what those sums hold.
const _ = uint32(1<<31 - 1 - 2*maxTableEntries)

// Solver holds the exact value tables V(q, L) for q = 0..P, L = 0..U.
type Solver struct {
	c    quant.Tick
	p    int
	u    quant.Tick
	last int     // the last stored row; every row past it equals it
	v    []int32 // V(q, L) at v[q·(U+1) + L] for q ≤ last, in one slab
}

// Solve computes the value tables with the crossing-point method. P is the
// interrupt bound, U the lifespan and c the setup cost, all in ticks.
//
// Each row V(q, ·) is filled in increasing L by one forward pass whose
// crossing pointer never moves back (see the package doc), so the table
// takes O(R·U) time for R = min(P, ⌈U/c⌉) + 1 rows, the only rows it
// stores: memory is one slab of R·(U+1) int32 values, at any P.
func Solve(P int, U, c quant.Tick) (*Solver, error) {
	s, err := newSolver(P, U, c, false)
	if err != nil {
		return nil, err
	}
	for q := 1; q <= s.last; q++ {
		fillRow(s.row(q), s.row(q-1), c)
	}
	return s, nil
}

// SolveReference computes the same tables by brute force over every first
// period length — O(P·U²) — storing all P+1 rows, with no zero-row bound
// to lean on. It exists to cross-check the fast solver and for the E9
// ablation; use only for small U and P.
func SolveReference(P int, U, c quant.Tick) (*Solver, error) {
	s, err := newSolver(P, U, c, true)
	if err != nil {
		return nil, err
	}
	for q := 1; q <= s.last; q++ {
		cur, prev := s.row(q), s.row(q-1)
		for L := quant.Tick(1); L <= U; L++ {
			var best quant.Tick
			for t := quant.Tick(1); t <= L; t++ {
				complete := quant.PosSub(t, c) + quant.Tick(cur[L-t])
				interrupt := quant.Tick(prev[L-t])
				best = max(best, min(complete, interrupt))
			}
			cur[L] = int32(best)
		}
	}
	return s, nil
}

// validate checks the shape and returns the last row a table over it
// stores: min(P, ⌈U/c⌉), or P for a full table. Only the stored rows count
// toward maxTableEntries.
func validate(P int, U, c quant.Tick, full bool) (last int, err error) {
	switch {
	case P < 0:
		return 0, fmt.Errorf("game: interrupt bound must be ≥ 0, got %d", P)
	case U < 0:
		return 0, fmt.Errorf("game: lifespan must be ≥ 0, got %d", U)
	case c < 1:
		return 0, fmt.Errorf("game: setup cost must be ≥ 1 tick, got %d", c)
	}
	last = P
	if !full && U < maxTableEntries {
		last = int(min(int64(P), (U+c-1)/c))
	}
	// Each factor is bounded first so that the product cannot wrap.
	if int64(last) >= maxTableEntries || U >= maxTableEntries || (int64(last)+1)*(U+1) > maxTableEntries {
		return 0, fmt.Errorf("game: value table for P=%d, U=%d would need more than %d entries; coarsen the quantum", P, U, maxTableEntries)
	}
	return last, nil
}

// newSolver validates the shape, allocates the slab of stored rows (all
// P+1 when full) and fills V(0, ·).
func newSolver(P int, U, c quant.Tick, full bool) (*Solver, error) {
	last, err := validate(P, U, c, full)
	if err != nil {
		return nil, err
	}
	s := &Solver{c: c, p: P, u: U, last: last, v: make([]int32, (last+1)*int(U+1))}
	fillBase(s.row(0), c)
	return s, nil
}

// row returns V(q, ·) as a slice of the slab: the stored row min(q, last).
func (s *Solver) row(q int) []int32 {
	q = min(q, s.last)
	w := int(s.u) + 1
	return s.v[q*w : (q+1)*w : (q+1)*w]
}

// fillBase fills row with V(0, L) = L ⊖ c.
func fillBase(row []int32, c quant.Tick) {
	for L := range row {
		row[L] = int32(quant.PosSub(quant.Tick(L), c))
	}
}

// fillRow fills cur = V(q, ·) from prev = V(q−1, ·), both of U+1 cells, in
// one forward pass. Period t of cell (q, L) crosses — its completing branch
// (t−c) + V(q, L−t) reaches its interrupted branch V(q−1, L−t) — exactly
// when its residual s = L−t has g(s) = s + V(q−1, s) − V(q, s) ≤ L−c. Since
// g never falls (package doc), the largest crossing residual r, over the
// productive periods t ≥ c+1 (s ≤ L−c−1), never moves back as L grows, and
// g(0) = 0 starts it at 0. The cell's maximizing period is the crossing
// x = L−r, or x−1 when x > c+1 and that is strictly better: solveCell's
// decision, reached without a search. Cells L ≤ c bank nothing and stay 0.
func fillRow(cur, prev []int32, c quant.Tick) {
	U := len(cur) - 1
	k := int(min(c, quant.Tick(U)))
	clear(cur[:k+1])
	r := 0
	for L := k + 1; L <= U; L++ {
		lim := L - k // the crossing test is g(s) ≤ L−c, over s ≤ L−c−1
		for r+1 < lim && r+1+int(prev[r+1]-cur[r+1]) <= lim {
			r++
		}
		gain := int32(lim - r) // x − c
		v := min(gain+cur[r], prev[r])
		if r+1 < lim {
			v = max(v, min(gain-1+cur[r+1], prev[r+1]))
		}
		cur[L] = v
	}
}

// solveCell solves cell (q, L) of the recursion from two rows: cur = V(q, ·),
// filled below L, and prev = V(q−1, ·). It returns the maximizing first
// period t* and the crossing x the search settled on, which seeds the search
// at the next cell.
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
func solveCell(cur, prev []int32, L, c, hint quant.Tick) (t, x quant.Tick) {
	tmin := c + 1
	if tmin > L {
		// Only the single exhausting period is available; it banks nothing.
		return L, tmin
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
	v := min(x-c+quant.Tick(cur[L-x]), quant.Tick(prev[L-x]))
	if x > tmin && min(x-1-c+quant.Tick(cur[L-x+1]), quant.Tick(prev[L-x+1])) > v {
		return x - 1, x
	}
	return x, x
}

// crosses reports complete(t) ≥ interrupt(t) for first period t of cell
// (q, L), with cur and prev as in solveCell.
func crosses(cur, prev []int32, L, c, t quant.Tick) bool {
	return t-c+quant.Tick(cur[L-t]) >= quant.Tick(prev[L-t])
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
	return quant.Tick(s.row(p)[L])
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
	if p > s.p {
		p = s.p
	}
	if p <= 0 {
		return model.TickSchedule{L}
	}
	cur, prev := s.row(p), s.row(p-1)
	var out model.TickSchedule
	var x quant.Tick // the last period's crossing seeds the next search
	for L > 0 {
		if cur[L] == 0 {
			out = append(out, L)
			break
		}
		var t quant.Tick
		t, x = solveCell(cur, prev, L, s.c, x)
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
