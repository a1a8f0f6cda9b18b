package theory

import (
	"math"
	"testing"
	"time"

	"cyclesteal/internal/quant"
)

// The equalization recursion's self-duality: K_p = 1/α_p exactly, because
// the adversary must be indifferent between abstaining (deficit √(2cU)/α_p)
// and interrupting (deficit K_p·√(2cU)).
func TestAlphaKpDuality(t *testing.T) {
	for p := 1; p <= 20; p++ {
		alpha := EqualizedAlpha(p)
		kp := OptimalDeficitCoefficient(p)
		if !quant.ApproxEqual(alpha*kp, 1, 1e-12) {
			t.Errorf("p=%d: α_p·K_p = %.15f, want 1", p, alpha*kp)
		}
	}
}

func TestRecursionDefiningEquation(t *testing.T) {
	// α_p² + K_{p−1}·α_p − 1 = 0.
	for p := 1; p <= 20; p++ {
		alpha := EqualizedAlpha(p)
		kPrev := OptimalDeficitCoefficient(p - 1)
		if got := alpha*alpha + kPrev*alpha - 1; math.Abs(got) > 1e-12 {
			t.Errorf("p=%d: defining equation residual %g", p, got)
		}
	}
}

func TestKnownCoefficients(t *testing.T) {
	// K_1 = 1 (the paper's proven case); K_2 = golden ratio.
	if got := OptimalDeficitCoefficient(1); !quant.ApproxEqual(got, 1, 1e-12) {
		t.Errorf("K_1 = %.15f", got)
	}
	phi := (1 + math.Sqrt(5)) / 2
	if got := OptimalDeficitCoefficient(2); !quant.ApproxEqual(got, phi, 1e-12) {
		t.Errorf("K_2 = %.15f, want golden ratio %.15f", got, phi)
	}
	if got := OptimalDeficitCoefficient(0); got != 0 {
		t.Errorf("K_0 = %g", got)
	}
	if got := EqualizedAlpha(0); got != 0 {
		t.Errorf("α_0 = %g", got)
	}
	if got := EqualizedAlpha(1); !quant.ApproxEqual(got, 1, 1e-12) {
		t.Errorf("α_1 = %g, want 1", got)
	}
}

func TestKpMonotoneAlphaShrinks(t *testing.T) {
	for p := 2; p <= 30; p++ {
		if OptimalDeficitCoefficient(p) <= OptimalDeficitCoefficient(p-1) {
			t.Errorf("K_%d not increasing", p)
		}
		if EqualizedAlpha(p) >= EqualizedAlpha(p-1) {
			t.Errorf("α_%d not decreasing", p)
		}
	}
}

// K_p² ≈ 2p − O(log p): the √(2p) asymptote that makes the adaptive/
// non-adaptive deficit ratio converge back to √2.
func TestKpAsymptote(t *testing.T) {
	for _, p := range []int{10, 50, 200} {
		kp := OptimalDeficitCoefficient(p)
		ratio := kp * kp / (2 * float64(p))
		if ratio < 0.75 || ratio > 1.0 {
			t.Errorf("p=%d: K_p²/(2p) = %g, want → 1⁻", p, ratio)
		}
	}
	// The measured deficit ratio is √2 at p = 1 and decays toward 1: both
	// deficits approach 2√(pcU), so adaptivity's edge concentrates at small p.
	if r1 := DeficitRatioMeasured(1); math.Abs(r1-math.Sqrt2) > 1e-12 {
		t.Errorf("deficit ratio at p=1 = %g, want √2", r1)
	}
	if r200 := DeficitRatioMeasured(200); math.Abs(r200-1) > 0.01 {
		t.Errorf("deficit ratio at p=200 = %g, want → 1", r200)
	}
	prev := math.Inf(1)
	for _, p := range []int{1, 2, 5, 20, 100} {
		r := DeficitRatioMeasured(p)
		if r <= 1 || r > math.Sqrt2+1e-9 {
			t.Errorf("p=%d: measured deficit ratio %g outside (1, √2]", p, r)
		}
		if r >= prev {
			t.Errorf("p=%d: ratio %g not decreasing", p, r)
		}
		prev = r
	}
}

func TestOptimalWorkPredictionShape(t *testing.T) {
	// Decreasing in p, increasing in U, clamped at 0.
	U, c := 10000.0, 1.0
	prev := math.Inf(1)
	for p := 0; p <= 8; p++ {
		w := OptimalWorkPrediction(U, p, c)
		if w > prev {
			t.Errorf("prediction increased at p=%d", p)
		}
		prev = w
	}
	if OptimalWorkPrediction(1, 5, 1) != 0 {
		t.Error("tiny-U prediction should clamp to 0")
	}
	if OptimalWorkPrediction(100, 0, 1) != 99 {
		t.Error("p=0 prediction should be U−c")
	}
}

func TestEqualizedM(t *testing.T) {
	// p=1: m = √(2U/c) — Table 2's schedule length.
	if got, want := EqualizedM(5000, 1, 1), int(math.Round(math.Sqrt(10000))); got != want {
		t.Errorf("m(1) = %d, want %d", got, want)
	}
	if EqualizedM(5000, 0, 1) != 1 {
		t.Error("p=0 m should be 1")
	}
	// Grows with p like K_p.
	if EqualizedM(5000, 4, 1) <= EqualizedM(5000, 1, 1) {
		t.Error("m should grow with p")
	}
}

// kLoop is the recursion as OptimalDeficitCoefficient runs it up to
// deficitLoopMax.
func kLoop(p int) float64 {
	K := 0.0
	for i := 1; i <= p; i++ {
		K += (math.Sqrt(K*K+4) - K) / 2
	}
	return K
}

// K_p past the recursion's range: the expansion agrees with a 200-bit
// math/big run of the recursion (the pinned values) to within 4e-15, the
// loop stays bit for bit up to its bound, and the two meet at the bound
// without a seam: K still rises there by α_{p+1}.
func TestKpLargeP(t *testing.T) {
	pins := []struct {
		p   int
		k   float64
		tol float64
	}{
		{1 << 16, 362.0294053252249, 1e-13}, // the loop's last p
		{1 << 18, 724.07223200164901, 4e-15},
		{1 << 20, 1448.1518925872028, 4e-15},
		{1 << 22, 2896.3078584389814, 4e-15},
	}
	for _, pin := range pins {
		if got := OptimalDeficitCoefficient(pin.p); math.Abs(got-pin.k)/pin.k > pin.tol {
			t.Errorf("K(%d) = %.17g, the 200-bit recursion gives %.17g", pin.p, got, pin.k)
		}
	}
	for _, p := range []int{0, 1, 2, 3, 100, 4097, deficitLoopMax} {
		if got, want := OptimalDeficitCoefficient(p), kLoop(p); got != want {
			t.Errorf("K(%d) = %.17g, the loop gives %.17g", p, got, want)
		}
	}
	p := deficitLoopMax
	lo, hi := OptimalDeficitCoefficient(p), OptimalDeficitCoefficient(p+1)
	if step := hi - lo; !(step > 0) || math.Abs(step-EqualizedAlpha(p+1)) > 1e-9 {
		t.Errorf("K(%d) − K(%d) = %g, want α = %g", p+1, p, step, EqualizedAlpha(p+1))
	}
	// α_p·K_p = 1 holds past the bound too.
	for _, p := range []int{deficitLoopMax + 2, 1 << 40} {
		if got := EqualizedAlpha(p) * OptimalDeficitCoefficient(p); !quant.ApproxEqual(got, 1, 1e-12) {
			t.Errorf("p=%d: α_p·K_p = %.15f, want 1", p, got)
		}
	}
}

// The coefficients cost the same at any p: each answers at math.MaxInt
// within a second, and K_p stays near its √(2p) asymptote.
func TestKpBoundedTime(t *testing.T) {
	done := make(chan [3]float64, 1)
	go func() {
		done <- [3]float64{OptimalDeficitCoefficient(math.MaxInt), EqualizedAlpha(math.MaxInt), float64(EqualizedM(3600, math.MaxInt, 5))}
	}()
	select {
	case got := <-done:
		k := got[0]
		if r := k * k / (2 * float64(math.MaxInt)); !(r > 0.999 && r <= 1) {
			t.Errorf("K(MaxInt)²/(2p) = %g, want just below 1", r)
		}
		if a := got[1]; !(a > 0) || math.Abs(a*k-1) > 1e-9 {
			t.Errorf("α(MaxInt) = %g, want 1/K = %g", a, 1/k)
		}
		if m := got[2]; !(m > 0) {
			t.Errorf("EqualizedM at MaxInt = %g", m)
		}
	case <-time.After(time.Second):
		t.Fatal("the deficit coefficients at p = MaxInt took more than a second")
	}
}
