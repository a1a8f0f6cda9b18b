package quant

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestPosSub(t *testing.T) {
	cases := []struct {
		x, y, want Tick
	}{
		{0, 0, 0},
		{5, 3, 2},
		{3, 5, 0},
		{5, 5, 0},
		{100, 1, 99},
		{1, 100, 0},
		{-3, -5, 2},
		{-5, -3, 0},
	}
	for _, c := range cases {
		if got := PosSub(c.x, c.y); got != c.want {
			t.Errorf("PosSub(%d, %d) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

// clampTick maps arbitrary quick-generated ticks into the documented domain
// (quantities bounded by a lifespan, far below int64 overflow).
func clampTick(x Tick) Tick { return x % (1 << 40) }

func TestPosSubNeverNegative(t *testing.T) {
	f := func(x, y Tick) bool { return PosSub(clampTick(x), clampTick(y)) >= 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPosSubIdentity(t *testing.T) {
	// x ⊖ y = (x − y) whenever x ≥ y.
	f := func(x, y Tick) bool {
		lo, hi := clampTick(x), clampTick(y)
		if lo > hi {
			lo, hi = hi, lo
		}
		return PosSub(hi, lo) == hi-lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.05, 0.1) {
		t.Error("1.0 ≈ 1.05 within 0.1 should hold")
	}
	if ApproxEqual(1.0, 1.2, 0.1) {
		t.Error("1.0 ≈ 1.2 within 0.1 should fail")
	}
}

// FuzzGridTicks holds the rule's two forms to each other on any value, any
// finite setup > 0 and any ticks per setup ≥ 1: GridTicks fails exactly
// when Grid.Ticks refuses, a refusal states its cause in one of two
// sentences, an accepted value is the nearest tick and at least one, and
// Ticks(Units(t)) is t for every t in [1, 2^48] whose Units is a finite,
// normal float.
func FuzzGridTicks(f *testing.F) {
	f.Add(3.5, 5.0, int64(100), int64(7))
	f.Add(0.0, 1.0, int64(1), int64(0))
	f.Add(math.Copysign(0, -1), 2.0, int64(37), int64(1<<48-1))
	f.Add(math.NaN(), 5.0, int64(100), int64(3))
	f.Add(-1.0, 5.0, int64(100), int64(3))
	f.Add(math.Inf(1), 5.0, int64(100), int64(3))
	f.Add(math.Inf(-1), 5.0, int64(100), int64(3))
	f.Add(1e300, 5.0, int64(100), int64(3))
	f.Add(1e17, 5.0, int64(100), int64(3))
	f.Add(0x1p63, 1.0, int64(1), int64(3))      // the first tick count past the grid
	f.Add(0x1p63-1024, 1.0, int64(1), int64(3)) // and the last one on it
	f.Add(1e-300, 1e-300, int64(math.MaxInt64), int64(-1))
	f.Add(1.0, 1e-320, int64(1), int64(5))
	f.Add(1.0, 1e300, int64(math.MaxInt64), int64(1<<47))
	f.Fuzz(func(t *testing.T, units, setup float64, perSetup, tick int64) {
		if !(setup > 0) || math.IsInf(setup, 0) || perSetup < 1 {
			return
		}
		g := Grid{Setup: setup, TicksPerSetup: perSetup}
		rounded, ok := GridTicks(units, setup, float64(perSetup))
		got, err := g.Ticks(units)
		switch {
		case ok != (err == nil):
			t.Fatalf("GridTicks(%g) reports %v, Ticks error %v", units, ok, err)
		case ok && (got != rounded || float64(got) != max(math.Round(units/setup*float64(perSetup)), 1)):
			t.Fatalf("GridTicks(%g) = %d, Ticks = %d on %+v", units, rounded, got, g)
		case !ok:
			want := fmt.Sprintf("%g overflows the tick grid", units)
			if !(units >= 0) || math.IsInf(units, 0) {
				want = fmt.Sprintf("must be ≥ 0 and finite, got %g", units)
			}
			if err.Error() != want {
				t.Fatalf("Ticks(%g) refused with %q, want %q", units, err, want)
			}
		}
		tk := 1 + Tick(uint64(tick)%(1<<48))
		u := g.Units(tk)
		if math.IsInf(u, 0) || u < 0x1p-1022 {
			return
		}
		if back, err := g.Ticks(u); err != nil || back != tk {
			t.Fatalf("Ticks(Units(%d)) = %d, %v on %+v (Units = %g)", tk, back, err, g, u)
		}
	})
}
