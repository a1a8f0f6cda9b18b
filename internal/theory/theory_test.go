package theory

import (
	"math"
	"testing"

	"cyclesteal/internal/quant"
)

func TestZeroWorkThreshold(t *testing.T) {
	if got := ZeroWorkThreshold(3, 2); got != 8 {
		t.Errorf("ZeroWorkThreshold(3, 2) = %g, want 8", got)
	}
	// At p = MaxInt, p+1 wraps negative; the threshold must not, or
	// Predictions.ZeroWork reads false for an opportunity the adversary
	// can always empty.
	if got, want := ZeroWorkThreshold(math.MaxInt, 10), 10*(float64(math.MaxInt)+1); got != want {
		t.Errorf("ZeroWorkThreshold(MaxInt, 10) = %g, want %g", got, want)
	}
}

func TestW0(t *testing.T) {
	if got := W0(100, 1); got != 99 {
		t.Errorf("W0(100,1) = %g, want 99", got)
	}
	if got := W0(0.5, 1); got != 0 {
		t.Errorf("W0(0.5,1) = %g, want 0", got)
	}
}

func TestNonAdaptiveM(t *testing.T) {
	// m = ⌊√(pU/c)⌋
	if got := NonAdaptiveM(10000, 1, 1); got != 100 {
		t.Errorf("m = %d, want 100", got)
	}
	if got := NonAdaptiveM(10000, 4, 1); got != 200 {
		t.Errorf("m = %d, want 200", got)
	}
	if got := NonAdaptiveM(10000, 0, 1); got != 1 {
		t.Errorf("p=0: m = %d, want 1", got)
	}
	if got := NonAdaptiveM(0.5, 1, 10); got != 1 {
		t.Errorf("tiny U: m = %d, want 1 (clamped)", got)
	}
}

func TestNonAdaptivePeriod(t *testing.T) {
	// t = √(cU/p)
	if got := NonAdaptivePeriod(10000, 1, 1); got != 100 {
		t.Errorf("period = %g, want 100", got)
	}
	if got := NonAdaptivePeriod(10000, 4, 1); got != 50 {
		t.Errorf("period = %g, want 50", got)
	}
	if got := NonAdaptivePeriod(123, 0, 1); got != 123 {
		t.Errorf("p=0: period = %g, want U", got)
	}
}

func TestNonAdaptiveWorkExactMatchesHandComputation(t *testing.T) {
	// U=10000, p=1, c=1: m=100, per=100, W = 99·99 = 9801.
	if got := NonAdaptiveWorkExact(10000, 1, 1); got != 9801 {
		t.Errorf("W = %g, want 9801", got)
	}
	// Degenerate: m ≤ p ⇒ 0.
	if got := NonAdaptiveWorkExact(4, 3, 1); got != 0 {
		t.Errorf("degenerate W = %g, want 0", got)
	}
}

func TestNonAdaptiveWorkLeadingForms(t *testing.T) {
	U, c := 1e6, 1.0
	p := 1
	lead := NonAdaptiveWorkLeading(U, p, c)
	wantLead := U - 2*math.Sqrt(U) + 1
	if !quant.ApproxEqual(lead, wantLead, 1e-6) {
		t.Errorf("leading form = %g, want %g", lead, wantLead)
	}
	printed := NonAdaptiveWorkAsPrinted(U, p, c)
	wantPrinted := U - math.Sqrt(2*U) + 1
	if !quant.ApproxEqual(printed, wantPrinted, 1e-6) {
		t.Errorf("printed form = %g, want %g", printed, wantPrinted)
	}
	// The exact guideline value must track the recomputed (2√(pcU)) form, not
	// the √(2pcU) reading: at U/c = 10^6 they differ by ≈ 0.59√U.
	exact := NonAdaptiveWorkExact(U, p, c)
	if math.Abs(exact-lead) > 50 { // O(1)-ish at this scale
		t.Errorf("exact %g strays from leading form %g", exact, lead)
	}
	if math.Abs(exact-printed) < 400 {
		t.Errorf("exact %g unexpectedly matches the ambiguous printed form %g", exact, printed)
	}
	// p = 0 falls back to W0 in both.
	if NonAdaptiveWorkLeading(100, 0, 1) != 99 || NonAdaptiveWorkAsPrinted(100, 0, 1) != 99 {
		t.Error("p=0 forms should equal W0")
	}
}

func TestNonAdaptiveWorkClampedAtZero(t *testing.T) {
	if got := NonAdaptiveWorkLeading(4, 4, 1); got < 0 {
		t.Errorf("leading form went negative: %g", got)
	}
	if got := NonAdaptiveWorkAsPrinted(2, 8, 1); got < 0 {
		t.Errorf("printed form went negative: %g", got)
	}
}

func TestAdaptiveDeficitCoefficient(t *testing.T) {
	cases := []struct {
		p    int
		want float64
	}{
		{0, 0}, {1, 1}, {2, 1.5}, {3, 1.75}, {10, 2 - math.Pow(2, -9)},
	}
	for _, c := range cases {
		if got := AdaptiveDeficitCoefficient(c.p); !quant.ApproxEqual(got, c.want, 1e-12) {
			t.Errorf("coeff(p=%d) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestAdaptiveWorkLowerBound(t *testing.T) {
	U, c := 1e6, 1.0
	// p=1: U − √(2cU)
	want := U - math.Sqrt(2*U)
	if got := AdaptiveWorkLowerBound(U, 1, c); !quant.ApproxEqual(got, want, 1e-6) {
		t.Errorf("bound(p=1) = %g, want %g", got, want)
	}
	if got := AdaptiveWorkLowerBound(U, 0, c); got != U-c {
		t.Errorf("bound(p=0) = %g, want %g", got, U-c)
	}
	if got := AdaptiveWorkLowerBound(1, 5, 1); got != 0 {
		t.Errorf("tiny-U bound should clamp to 0, got %g", got)
	}
}

func TestAdaptiveSlackShape(t *testing.T) {
	if got := AdaptiveSlack(10000, 2, 1, 1); !quant.ApproxEqual(got, 12, 1e-9) {
		// c=1: U^{1/4} = 10, pc = 2.
		t.Errorf("slack = %g, want 12", got)
	}
	if got := AdaptiveSlack(10000, 2, 1, 3); !quant.ApproxEqual(got, 36, 1e-9) {
		t.Errorf("slack K-scaling failed: %g", got)
	}
}

func TestGuidelineTailCount(t *testing.T) {
	// ℓ_p = ⌈2p/3⌉
	cases := []struct{ p, want int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 4}, {6, 4}, {9, 6},
	}
	for _, c := range cases {
		if got := GuidelineTailCount(c.p); got != c.want {
			t.Errorf("ℓ_%d = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestGuidelineRampStep(t *testing.T) {
	if got := GuidelineRampStep(1, 2); got != 2 {
		t.Errorf("δ(p=1) = %g, want 2", got)
	}
	if got := GuidelineRampStep(3, 2); got != 0.125 {
		t.Errorf("δ(p=3) = %g, want 0.125", got)
	}
}

func TestGuidelineM(t *testing.T) {
	// Table 2: at p = 1, m = ⌊√(2U/c)⌋ + 2.
	U, c := 5000.0, 1.0
	want := int(math.Floor(math.Sqrt(2*U/c))) + 2
	if got := GuidelineM(U, 1, c); got != want {
		t.Errorf("m(1)[%g] = %d, want %d", U, got, want)
	}
	if got := GuidelineM(U, 0, c); got != 1 {
		t.Errorf("m(0) = %d, want 1", got)
	}
	// p = 2: ⌊2^{3/2}√(U/c)⌋ + 2·2^3.
	want2 := int(math.Floor(2*math.Sqrt2*math.Sqrt(U/c))) + 16
	if got := GuidelineM(U, 2, c); got != want2 {
		t.Errorf("m(2)[%g] = %d, want %d", U, got, want2)
	}
}

func TestOptimalP1M(t *testing.T) {
	// Eq (5.1): m = ⌈√(2U/c − 7/4) − 1/2⌉.
	U, c := 5000.0, 1.0
	want := int(math.Ceil(math.Sqrt(2*U/c-1.75) - 0.5))
	if got := OptimalP1M(U, c); got != want {
		t.Errorf("m = %d, want %d", got, want)
	}
	if got := OptimalP1M(0.1, 1); got != 2 {
		t.Errorf("tiny-U m = %d, want clamp to 2", got)
	}
}

func TestOptimalP1EpsilonInRange(t *testing.T) {
	c := 1.0
	for _, U := range []float64{10, 50, 100, 1000, 12345, 1e6} {
		m := OptimalP1MAdjusted(U, c)
		eps := OptimalP1Epsilon(U, c, m)
		if eps <= 0 || eps > 1 {
			t.Errorf("U=%g: ε = %g outside (0,1] at m=%d", U, eps, m)
		}
	}
}

func TestOptimalP1PeriodsSumToU(t *testing.T) {
	c := 2.0
	for _, U := range []float64{20, 100, 777, 5000} {
		periods := OptimalP1Periods(U, c)
		var sum float64
		for _, p := range periods {
			sum += p
		}
		if !quant.ApproxEqual(sum, U, 1e-6) {
			t.Errorf("U=%g: periods sum to %g", U, sum)
		}
		// Structure: t_m = t_{m−1}, and t_k = t_{k+1} + c for k ≤ m−2.
		m := len(periods)
		if m < 2 {
			t.Fatalf("U=%g: m = %d < 2", U, m)
		}
		if !quant.ApproxEqual(periods[m-1], periods[m-2], 1e-9) {
			t.Errorf("U=%g: terminal periods differ: %g vs %g", U, periods[m-2], periods[m-1])
		}
		for k := 0; k < m-2; k++ {
			if !quant.ApproxEqual(periods[k], periods[k+1]+c, 1e-9) {
				t.Errorf("U=%g: t_%d − t_%d = %g, want c = %g", U, k+1, k+2, periods[k]-periods[k+1], c)
			}
		}
	}
}

func TestOptimalP1TerminalPeriodsInThmRange(t *testing.T) {
	// Theorem 4.2: terminal period lengths lie in (c, 2c].
	c := 3.0
	for _, U := range []float64{30, 300, 3000} {
		periods := OptimalP1Periods(U, c)
		last := periods[len(periods)-1]
		if last <= c || last > 2*c {
			t.Errorf("U=%g: terminal period %g outside (c, 2c] = (%g, %g]", U, last, c, 2*c)
		}
	}
}

func TestOptimalP1WorkApprox(t *testing.T) {
	U, c := 1e6, 1.0
	want := U - math.Sqrt(2*U) - 0.5
	if got := OptimalP1Work(U, c); !quant.ApproxEqual(got, want, 1e-9) {
		t.Errorf("W(1)[U] = %g, want %g", got, want)
	}
	if got := OptimalP1Work(1, 1); got != 0 {
		t.Errorf("tiny-U W should clamp to 0, got %g", got)
	}
}

func TestGuidelineP1Work(t *testing.T) {
	U, c := 10000.0, 1.0
	if got, want := GuidelineP1Work(U, c), U-math.Sqrt(2*U); !quant.ApproxEqual(got, want, 1e-9) {
		t.Errorf("guideline W = %g, want %g", got, want)
	}
}

func TestPeriodApproxFormulas(t *testing.T) {
	U, c := 5000.0, 1.0
	root := math.Sqrt(2 * c * U)
	if got := OptimalP1PeriodApprox(U, c, 3); !quant.ApproxEqual(got, root-3, 1e-9) {
		t.Errorf("opt t_3 = %g, want %g", got, root-3)
	}
	if got := GuidelineP1PeriodApprox(U, c, 3); !quant.ApproxEqual(got, root+0.5, 1e-9) {
		t.Errorf("guideline t_3 = %g, want %g", got, root+0.5)
	}
}

func TestDeficitRatio(t *testing.T) {
	// p=1: √2. p=2: 2√2/(1.5√2) = 4/3.
	if got := DeficitRatio(1); !quant.ApproxEqual(got, math.Sqrt2, 1e-12) {
		t.Errorf("ratio(1) = %g, want √2", got)
	}
	if got := DeficitRatio(2); !quant.ApproxEqual(got, 4.0/3, 1e-12) {
		t.Errorf("ratio(2) = %g, want 4/3", got)
	}
	if got := DeficitRatio(0); got != 1 {
		t.Errorf("ratio(0) = %g, want 1", got)
	}
	// Ratio decreases toward √p·…: it must stay > 1 for all p (adaptivity wins).
	for p := 1; p <= 12; p++ {
		if DeficitRatio(p) <= 1 {
			t.Errorf("ratio(%d) = %g ≤ 1", p, DeficitRatio(p))
		}
	}
}

func TestDeficitCoefficients(t *testing.T) {
	if got := DeficitNonAdaptive(4); !quant.ApproxEqual(got, 4, 1e-12) {
		t.Errorf("non-adaptive deficit coeff(4) = %g, want 4", got)
	}
	if got := DeficitAdaptive(1); !quant.ApproxEqual(got, math.Sqrt2, 1e-12) {
		t.Errorf("adaptive deficit coeff(1) = %g, want √2", got)
	}
}
