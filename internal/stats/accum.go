package stats

import "math"

// Accumulator is a single-pass, mergeable statistics accumulator: Welford's
// online algorithm for mean and variance, exact min/max, and an optional
// bounded-error quantile sketch (see Sketch). Partial accumulators built
// over disjoint sample streams combine with Merge (Chan et al.'s parallel
// variance formula), so a replication engine can keep memory proportional to
// its worker count instead of its trial count.
//
// Merging is exact for N, Min and Max; mean and variance are exact up to
// floating-point association order, so a *fixed* partition of the sample into
// accumulators plus a *fixed* merge order yields bit-identical results run
// over run (the property internal/mc builds its determinism contract on).
// Quantiles are stronger still: the sketch merge is a level-wise union, so
// they do not depend on the merge order at all.
type Accumulator struct {
	n        int
	mean, m2 float64
	min, max float64
	sk       *Sketch
}

// NewAccumulator returns an empty accumulator with a quantile sketch of the
// given per-level buffer capacity; capacity ≤ 0 disables quantile tracking.
func NewAccumulator(sketchCap int) *Accumulator {
	if sketchCap <= 0 {
		return &Accumulator{}
	}
	as := &accumSketch{sk: Sketch{k: sketchCapacity(sketchCap)}}
	as.a.sk = &as.sk
	return &as.a
}

// accumSketch co-allocates an accumulator with its sketch: a replication
// study builds one accumulator per metric per shard, so one allocation
// instead of two matters.
type accumSketch struct {
	a  Accumulator
	sk Sketch
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
	if a.sk != nil {
		a.sk.Add(x)
	}
}

// Merge folds another accumulator into this one. The other accumulator is
// left untouched. Merging b into a then c differs from merging c then b only
// by floating-point association; callers wanting reproducibility must fix
// the merge order.
func (a *Accumulator) Merge(b *Accumulator) {
	if b == nil || b.n == 0 {
		return
	}
	if a.n == 0 {
		a.n, a.mean, a.m2, a.min, a.max = b.n, b.mean, b.m2, b.min, b.max
		if a.sk != nil {
			a.sk.Merge(b.sk)
		}
		return
	}
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	na, nb := float64(a.n), float64(b.n)
	d := b.mean - a.mean
	n := na + nb
	a.mean += d * nb / n
	a.m2 += b.m2 + d*d*na*nb/n
	a.n += b.n
	if a.sk != nil {
		a.sk.Merge(b.sk)
	}
}

// N returns the number of observations folded in so far.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the sample variance (n−1 denominator; 0 for n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Quantile estimates the q-quantile from the sketch; it returns 0 when no
// sketch is attached or no observations have been added. The estimate's rank
// error is bounded by the sketch's RankErrorBound (see Sketch), and for a
// merged accumulator it is independent of the order the partials were merged
// in.
func (a *Accumulator) Quantile(q float64) float64 {
	if a.sk == nil {
		return 0
	}
	return a.sk.Quantile(q)
}

// SketchErrorBound returns the guaranteed maximum rank error of the attached
// quantile sketch, in observations (0 when no sketch is attached).
func (a *Accumulator) SketchErrorBound() int64 {
	if a.sk == nil {
		return 0
	}
	return a.sk.RankErrorBound()
}

// Summary freezes the accumulator into the Summary the experiment tables
// consume. Median, P90 and P99 come from the sketch (rank error bounded by
// RankErrorBound; see Sketch) and are 0 when quantile tracking is disabled.
// The confidence interval uses the t-distribution critical value for small
// n, converging to the familiar 1.96 normal approximation as n grows.
func (a *Accumulator) Summary() Summary {
	if a.n == 0 {
		return Summary{}
	}
	s := Summary{
		N:    a.n,
		Mean: a.mean,
		Min:  a.min,
		Max:  a.max,
	}
	if a.n > 1 {
		s.Std = math.Sqrt(a.Variance())
		s.SE = s.Std / math.Sqrt(float64(a.n))
	}
	half := TCritical95(a.n-1) * s.SE
	s.CI95Lo = a.mean - half
	s.CI95Hi = a.mean + half
	if a.sk != nil {
		tails := a.sk.Quantiles(0.5, 0.9, 0.99)
		s.Median, s.P90, s.P99 = tails[0], tails[1], tails[2]
	}
	return s
}

// TCritical95 returns the two-sided 95% critical value of Student's t with
// the given degrees of freedom: exact per-df values through 30, then the
// conservative step values at the standard table breakpoints (40, 60, 120),
// then the normal 1.96 (within 1% of the true value everywhere past
// df = 30). df ≤ 0 returns the normal value, matching Summarize's behaviour
// for degenerate samples.
func TCritical95(df int) float64 {
	var table = [...]float64{
		// df = 1..30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df <= 0:
		return 1.96
	case df <= len(table):
		return table[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.96
	}
}

// The strided quantile reservoir that used to live here was replaced by the
// bounded-error Sketch (see sketch.go): the reservoir's pooled-on-merge
// estimates carried no accuracy guarantee, while the sketch's rank error is
// bounded and merge-order independent.
