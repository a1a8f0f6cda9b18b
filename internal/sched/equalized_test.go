package sched

import (
	"math"
	"math/rand"
	"testing"

	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/theory"
)

func TestEqualizedPeriodsSumToL(t *testing.T) {
	c := 1.0
	for p := 1; p <= 8; p++ {
		for _, L := range []float64{10, 100, 5000, 100000} {
			periods := appendEqualizedUnits(nil, p, L, c)
			var sum float64
			for _, tk := range periods {
				sum += tk
				if tk <= 0 {
					t.Fatalf("p=%d L=%g: nonpositive period", p, L)
				}
			}
			if !quant.ApproxEqual(sum, L, 1e-6) {
				t.Errorf("p=%d L=%g: periods sum to %g", p, L, sum)
			}
		}
	}
}

func TestEqualizedFirstPeriodMatchesAlpha(t *testing.T) {
	c := 1.0
	L := 100000.0
	for p := 1; p <= 6; p++ {
		periods := appendEqualizedUnits(nil, p, L, c)
		want := theory.EqualizedAlpha(p) * math.Sqrt(2*c*L)
		if math.Abs(periods[0]-want) > 0.01*want {
			t.Errorf("p=%d: t_1 = %g, want α_p√(2cL) = %g", p, periods[0], want)
		}
	}
}

func TestEqualizedLengthMatchesKp(t *testing.T) {
	// m ≈ K_p·√(2L/c): the schedule-length/deficit duality.
	c := 1.0
	L := 50000.0
	for p := 1; p <= 5; p++ {
		m := len(appendEqualizedUnits(nil, p, L, c))
		want := theory.EqualizedM(L, p, c)
		if math.Abs(float64(m-want)) > 0.1*float64(want)+10 {
			t.Errorf("p=%d: m = %d, want ≈ %d", p, m, want)
		}
	}
}

func TestEqualizedP1MatchesOptimalLadder(t *testing.T) {
	// At p = 1 the equalization schedule is §5.2's ladder: steps of ≈ c.
	c := 1.0
	periods := appendEqualizedUnits(nil, 1, 20000, c)
	for i := 0; i+1 < len(periods)-3; i++ { // skip the handover tail
		step := periods[i] - periods[i+1]
		if step < 0.5*c || step > 1.5*c {
			t.Errorf("step t_%d−t_%d = %g, want ≈ c", i+1, i+2, step)
		}
	}
}

func TestEqualizedZeroWorkRegime(t *testing.T) {
	if p := appendEqualizedUnits(nil, 3, 3.5, 1); len(p) != 1 {
		t.Errorf("zero-work regime should be a single period, got %v", p)
	}
	if p := appendEqualizedUnits(nil, 0, 100, 1); len(p) != 1 {
		t.Errorf("p=0 should be a single period, got %v", p)
	}
}

func TestAdaptiveEqualizedEpisodeContract(t *testing.T) {
	eq, err := NewAdaptiveEqualized(100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		p := rng.Intn(6)
		L := quant.Tick(1 + rng.Intn(200000))
		ep := eq.Episode(p, L)
		if ep.Total() != L {
			t.Fatalf("p=%d L=%d: episode totals %d", p, L, ep.Total())
		}
		for _, tk := range ep {
			if tk < 1 {
				t.Fatalf("p=%d L=%d: bad period %d", p, L, tk)
			}
		}
	}
	if eq.Episode(1, 0) != nil {
		t.Error("L=0 should be nil")
	}
	if _, err := NewAdaptiveEqualized(0); err == nil {
		t.Error("c=0 accepted")
	}
	if eq.Name() == "" {
		t.Error("empty name")
	}
}

func TestGuidelineVariantMatchesDefault(t *testing.T) {
	c := quant.Tick(50)
	def, err := NewAdaptiveGuideline(c)
	if err != nil {
		t.Fatal(err)
	}
	variant := GuidelineVariant{C: c, Variant: "default"}
	for _, p := range []int{1, 2, 3} {
		for _, L := range []quant.Tick{500, 5000, 50000} {
			a := def.Episode(p, L)
			b := variant.Episode(p, L)
			if len(a) != len(b) {
				t.Fatalf("p=%d L=%d: lengths differ %d vs %d", p, L, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("p=%d L=%d: period %d differs %d vs %d", p, L, i, a[i], b[i])
				}
			}
		}
	}
	if variant.Name() == "" {
		t.Error("empty variant name")
	}
}

func TestGuidelineVariantKnobs(t *testing.T) {
	c := quant.Tick(50)
	L := quant.Tick(50000)
	noTail := GuidelineVariant{C: c, Cfg: GuidelineConfig{TailCount: func(p int) int { return 0 }}}
	ep := noTail.Episode(2, L)
	// Without the (3/2)c tail the final period is the adjustment period.
	if got := ep[len(ep)-1]; got == 75 {
		t.Errorf("no-tail variant still ends with a 1.5c period (%d)", got)
	}
	negTail := GuidelineVariant{C: c, Cfg: GuidelineConfig{TailCount: func(p int) int { return -3 }}}
	if negTail.Episode(2, L).Total() != L {
		t.Error("negative tail count should clamp and still partition L")
	}
	badSlope := GuidelineVariant{C: c, Cfg: GuidelineConfig{RampStep: func(p int, cf float64) float64 { return -1 }}}
	if badSlope.Episode(2, L).Total() != L {
		t.Error("nonpositive slope should clamp and still partition L")
	}
	if (GuidelineVariant{C: c}).Episode(0, 100) == nil {
		t.Error("p=0 should yield the single period")
	}
	if (GuidelineVariant{C: c}).Episode(1, 0) != nil {
		t.Error("L=0 should be nil")
	}
}

func TestNonAdaptiveFromPeriodsValidation(t *testing.T) {
	if _, err := NonAdaptiveFromPeriods(nil, 1, 10); err == nil {
		t.Error("empty periods accepted")
	}
	if _, err := NonAdaptiveFromPeriods(model.TickSchedule{5}, -1, 10); err == nil {
		t.Error("p<0 accepted")
	}
	if _, err := NonAdaptiveFromPeriods(model.TickSchedule{5, 0}, 1, 10); err == nil {
		t.Error("zero period accepted")
	}
}
