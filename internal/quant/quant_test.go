package quant

import (
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
