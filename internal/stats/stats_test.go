package stats

import (
	"math"
	"math/rand"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{5})
	if s.N != 1 || s.Mean != 5 || s.Min != 5 || s.Max != 5 || s.Median != 5 || s.Std != 0 {
		t.Errorf("single summary: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if !approx(s.Mean, 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", s.Mean)
	}
	// Sample std with n−1: Σ(x−5)² = 32, 32/7 ≈ 4.571, √ ≈ 2.138.
	if !approx(s.Std, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("Std = %g", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("range [%g, %g]", s.Min, s.Max)
	}
	if !approx(s.Median, 4.5, 1e-12) {
		t.Errorf("Median = %g, want 4.5", s.Median)
	}
	if s.CI95Lo >= s.Mean || s.CI95Hi <= s.Mean {
		t.Errorf("CI [%g, %g] does not bracket the mean", s.CI95Lo, s.CI95Hi)
	}
}

func TestSummarizeMedianOdd(t *testing.T) {
	if m := Summarize([]float64{9, 1, 5}).Median; m != 5 {
		t.Errorf("odd median = %g, want 5", m)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestSummaryString(t *testing.T) {
	if Summarize([]float64{1, 2}).String() == "" {
		t.Error("empty String")
	}
}

func TestOLSExactLine(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11} // y = 3 + 2x
	slope, intercept, r2 := OLS(x, y)
	if !approx(slope, 2, 1e-12) || !approx(intercept, 3, 1e-12) || !approx(r2, 1, 1e-12) {
		t.Errorf("OLS = (%g, %g, %g), want (2, 3, 1)", slope, intercept, r2)
	}
}

func TestOLSNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x, y []float64
	for i := 0; i < 500; i++ {
		xv := float64(i)
		x = append(x, xv)
		y = append(y, 1.5*xv-4+rng.NormFloat64()*3)
	}
	slope, intercept, r2 := OLS(x, y)
	if !approx(slope, 1.5, 0.02) {
		t.Errorf("slope = %g, want ≈ 1.5", slope)
	}
	if !approx(intercept, -4, 2) {
		t.Errorf("intercept = %g, want ≈ −4", intercept)
	}
	if r2 < 0.99 {
		t.Errorf("r² = %g, want ≈ 1", r2)
	}
}

func TestOLSDegenerate(t *testing.T) {
	if s, i, r := OLS([]float64{1}, []float64{2}); s != 0 || i != 0 || r != 0 {
		t.Error("single point should yield zeros")
	}
	if s, _, _ := OLS([]float64{2, 2, 2}, []float64{1, 2, 3}); s != 0 {
		t.Error("constant x should yield zero slope")
	}
	if s, _, _ := OLS([]float64{1, 2}, []float64{3}); s != 0 {
		t.Error("mismatched lengths should yield zeros")
	}
	// Constant y: perfect horizontal fit.
	if _, _, r2 := OLS([]float64{1, 2, 3}, []float64{4, 4, 4}); r2 != 1 {
		t.Errorf("constant y r² = %g, want 1", r2)
	}
}

func TestLogLogSlopeRecoverosExponent(t *testing.T) {
	// y = 3·x^0.5: log-log slope 0.5 — the √U deficit law.
	var x, y []float64
	for _, v := range []float64{100, 1000, 10000, 100000} {
		x = append(x, v)
		y = append(y, 3*math.Sqrt(v))
	}
	slope, r2 := LogLogSlope(x, y)
	if !approx(slope, 0.5, 1e-9) || !approx(r2, 1, 1e-9) {
		t.Errorf("LogLogSlope = (%g, %g), want (0.5, 1)", slope, r2)
	}
}

func TestLogLogSlopeSkipsNonPositive(t *testing.T) {
	slope, _ := LogLogSlope([]float64{-1, 10, 100, 1000}, []float64{5, 1, 10, 100})
	if !approx(slope, 1, 1e-9) {
		t.Errorf("slope = %g, want 1 after skipping the negative point", slope)
	}
}
