// Package stats provides the small statistical toolkit the experiments use:
// summaries with confidence intervals for Monte-Carlo runs, and least-squares
// fits for measuring the exponents and coefficients of deficit curves.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample.
type Summary struct {
	N              int
	Mean           float64
	Std            float64 // sample standard deviation (n−1)
	Min, Max       float64
	Median         float64
	P90, P99       float64 // upper-tail quantiles (tail-risk views)
	SE             float64 // standard error of the mean
	CI95Lo, CI95Hi float64 // normal-approximation 95% interval for the mean
}

// Summarize computes a Summary. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(n)
	if n > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(n-1))
		s.SE = s.Std / math.Sqrt(float64(n))
	}
	s.CI95Lo = s.Mean - 1.96*s.SE
	s.CI95Hi = s.Mean + 1.96*s.SE
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	s.P90 = orderStat(sorted, 0.9)
	s.P99 = orderStat(sorted, 0.99)
	return s
}

// orderStat returns the smallest value whose rank is ≥ q·n in a sorted
// sample — the same convention the Sketch uses, so exact and sketched
// summaries agree on what "P99" means.
func orderStat(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g [%.4g, %.4g]", s.N, s.Mean, 1.96*s.SE, s.Min, s.Max)
}

// OLS fits y = intercept + slope·x by ordinary least squares and returns the
// coefficient of determination r². It requires at least two points with
// non-constant x; otherwise it returns zeros.
func OLS(x, y []float64) (slope, intercept, r2 float64) {
	n := len(x)
	if n != len(y) || n < 2 {
		return 0, 0, 0
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return slope, intercept, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return slope, intercept, r2
}

// LogLogSlope fits log(y) against log(x) and returns the power-law exponent —
// the tool for verifying that deficits scale like √U. Points with
// non-positive coordinates are skipped.
func LogLogSlope(x, y []float64) (slope, r2 float64) {
	var lx, ly []float64
	for i := range x {
		if i < len(y) && x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log(x[i]))
			ly = append(ly, math.Log(y[i]))
		}
	}
	s, _, r := OLS(lx, ly)
	return s, r
}
