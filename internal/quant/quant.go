// Package quant provides the time substrate shared by every layer of the
// cycle-stealing reproduction: the integer tick grid on which the game
// solver computes exact minimax values, and the paper's positive-subtraction
// operator.
//
// The paper's schedules have irrational period lengths (e.g. √(cU/p), (3/2)c)
// while exact worst-case evaluation needs a discrete state space. Every
// layer counts time in ticks, with c ticks per setup cost: the paper's
// bounds are functions of U/c and p, so that is the natural unit.
package quant

import "math"

// Tick is a point or duration on the discrete time grid used by the exact
// game solver and the simulator. All tick arithmetic is exact.
type Tick = int64

// PosSub is the paper's positive subtraction x ⊖ y = max(0, x−y) on ticks.
// A completed period of length t banks PosSub(t, c) units of work.
// Operands must not make x−y overflow; every tick quantity in this system is
// bounded by the lifespan, far below the int64 range.
func PosSub(x, y Tick) Tick {
	if x <= y {
		return 0
	}
	return x - y
}

// ApproxEqual reports whether a and b differ by at most tol. It tolerates the
// accumulation of rounding error when cross-checking closed forms against the
// tick grid.
func ApproxEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}
