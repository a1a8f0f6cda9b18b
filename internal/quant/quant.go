// Package quant provides the time substrate shared by every layer of the
// cycle-stealing reproduction: the integer tick grid on which the game
// solver computes exact minimax values, and the paper's positive-subtraction
// operator.
//
// The paper's schedules have irrational period lengths (e.g. √(cU/p), (3/2)c)
// while exact worst-case evaluation needs a discrete state space. Every
// layer counts time in ticks, with c ticks per setup cost: the paper's
// bounds are functions of U/c and p, so that is the natural unit.
//
// A caller's time goes onto the grid by one rule, and this package is its
// one home: a duration of u units on a grid of n ticks per setup cost c is
// the nearest tick to u/c·n, at least 1, and a NaN, infinite or negative
// duration, or one whose tick count overflows a Tick, is refused.
// GridTicks is the rule for a loop over many values, Grid.Ticks for one
// value whose refusal needs its cause; the root Engine and fleet use no
// other.
package quant

import (
	"fmt"
	"math"
)

// Tick is a point or duration on the discrete time grid used by the exact
// game solver and the simulator. All tick arithmetic is exact.
type Tick = int64

// DefaultTicksPerSetup is the grid resolution the root Engine and fleet
// play on unless told otherwise. It keeps quantization error far below the
// paper's low-order terms.
const DefaultTicksPerSetup = 100

// GridTicks puts a duration of units on a grid of ticksPerSetup ticks per
// setup cost: the nearest tick, at least 1. It reports false for a NaN,
// infinite or negative duration and for one whose tick count overflows a
// Tick, whose tick is then meaningless: converting such a float64 to int64
// gives an implementation-dependent value. It stays small enough to inline
// into a loop over a job's tasks.
func GridTicks(units, setup, ticksPerSetup float64) (Tick, bool) {
	x := math.Round(units / setup * ticksPerSetup)
	return max(Tick(x), 1), units >= 0 && x < math.MaxInt64
}

// Grid is a tick grid in caller units: a setup cost of Setup units, finite
// and > 0, is TicksPerSetup ticks, at least 1.
type Grid struct {
	Setup         float64
	TicksPerSetup Tick
}

// Ticks puts one value of caller units on the grid by GridTicks' rule. A
// value the rule refuses gives an error stating the cause, to which the
// caller prefixes the value's name.
func (g Grid) Ticks(units float64) (Tick, error) {
	t, ok := GridTicks(units, g.Setup, float64(g.TicksPerSetup))
	switch {
	case ok:
		return t, nil
	case !(units >= 0) || math.IsInf(units, 0):
		return 0, fmt.Errorf("must be ≥ 0 and finite, got %g", units)
	default:
		return 0, fmt.Errorf("%g overflows the tick grid", units)
	}
}

// Units converts ticks back to caller units.
func (g Grid) Units(t Tick) float64 {
	return float64(t) / float64(g.TicksPerSetup) * g.Setup
}

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
