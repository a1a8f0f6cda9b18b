package game

import "cyclesteal/internal/quant"

// SolveValueRow computes the top value row V(P, ·) using rolling storage —
// two int32 rows of U+1 cells instead of P+1 — for large-lifespan value
// queries where schedule extraction is not needed. The recursion only ever
// consults the previous interrupt level in full and the current level at
// smaller lifespans, so two rows suffice.
//
// It fills each row with the same forward pass as Solve, in the same time,
// and widens the top row to ticks once. Like Solve it stops at row
// min(P, ⌈U/c⌉), past which every row is the same zero row (package doc).
//
// The returned slice r satisfies r[L] == Solve(P, U, c).Value(P, L).
func SolveValueRow(P int, U, c quant.Tick) ([]quant.Tick, error) {
	last, err := validate(P, U, c, false)
	if err != nil {
		return nil, err
	}
	w := int(U) + 1
	rows := make([]int32, 2*w)
	prev, cur := rows[:w:w], rows[w:]
	fillBase(prev, c)
	for q := 1; q <= last; q++ {
		fillRow(cur, prev, c)
		prev, cur = cur, prev
	}
	out := make([]quant.Tick, w)
	for L, v := range prev {
		out[L] = quant.Tick(v)
	}
	return out, nil
}
