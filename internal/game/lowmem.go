package game

import "cyclesteal/internal/quant"

// SolveValueRow computes the top value row V(P, ·) using rolling storage —
// two rows of U+1 ticks instead of P+1 — for large-lifespan value queries
// where schedule extraction is not needed. The recursion only ever consults
// the previous interrupt level in full and the current level at smaller
// lifespans, so two rows suffice.
//
// It runs the same hinted crossing search as Solve, in the same time.
//
// The returned slice r satisfies r[L] == Solve(P, U, c).Value(P, L).
func SolveValueRow(P int, U, c quant.Tick) ([]quant.Tick, error) {
	if err := validate(P, U, c); err != nil {
		return nil, err
	}
	prev := make([]quant.Tick, U+1)
	for L := quant.Tick(0); L <= U; L++ {
		prev[L] = quant.PosSub(L, c)
	}
	if P == 0 {
		return prev, nil
	}
	cur := make([]quant.Tick, U+1)
	for q := 1; q <= P; q++ {
		cur[0] = 0
		var x quant.Tick // the crossing at L−1 seeds the search at L
		for L := quant.Tick(1); L <= U; L++ {
			cur[L], _, x = solveCell(cur, prev, L, c, x)
		}
		prev, cur = cur, prev
	}
	return prev, nil
}
