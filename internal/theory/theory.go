// Package theory implements every closed form and bound stated in the paper
// as callable predictions, so that experiments can print paper-vs-measured
// rows and tests can assert the measured system tracks the analysis.
//
// All functions work in continuous time units (the paper's domain). The
// symbols follow the paper: U usable lifespan, p interrupt bound, c setup
// cost, m(p)[U] schedule length, W work production.
package theory

import "math"

// ZeroWorkThreshold returns (p+1)c: Prop. 4.1(c) shows no schedule can
// guarantee positive work when U ≤ (p+1)c, because the adversary can kill
// every productive period.
func ZeroWorkThreshold(p int, c float64) float64 {
	return (float64(p) + 1) * c
}

// W0 is Prop. 4.1(d): with no interrupts left the unique optimal schedule is
// the single period of length U, guaranteeing U − c (never negative).
func W0(U, c float64) float64 {
	if U <= c {
		return 0
	}
	return U - c
}

// --- §3.1: the non-adaptive guideline -------------------------------------

// NonAdaptiveM returns the §3.1 schedule length m(p)[U] = ⌊√(pU/c)⌋,
// clamped to at least 1.
func NonAdaptiveM(U float64, p int, c float64) int {
	if p <= 0 {
		return 1
	}
	m := int(math.Floor(math.Sqrt(float64(p) * U / c)))
	if m < 1 {
		return 1
	}
	return m
}

// NonAdaptivePeriod returns the §3.1 common period length √(cU/p).
func NonAdaptivePeriod(U float64, p int, c float64) float64 {
	if p <= 0 {
		return U
	}
	return math.Sqrt(c * U / float64(p))
}

// NonAdaptiveWorkExact returns the exact guaranteed output of the §3.1
// guideline schedule realized as m equal periods of U/m: the adversary kills
// the last p periods at their last instants (the paper's §3.1 analysis), so
// W = (m−p)·(U/m − c), clamped at 0.
func NonAdaptiveWorkExact(U float64, p int, c float64) float64 {
	m := NonAdaptiveM(U, p, c)
	if m <= p {
		return 0
	}
	per := U / float64(m)
	if per <= c {
		return 0
	}
	return float64(m-p) * (per - c)
}

// NonAdaptiveWorkLeading returns the leading-order form of the §3.1 analysis
// as recomputed from the adversary argument: U − 2√(pcU) + pc. The scanned
// paper prints a formula ambiguous between 2√(pcU) and √(2pcU); experiment E3
// discriminates (the measured curve matches 2√(pcU)).
func NonAdaptiveWorkLeading(U float64, p int, c float64) float64 {
	if p <= 0 {
		return W0(U, c)
	}
	w := U - 2*math.Sqrt(float64(p)*c*U) + float64(p)*c
	if w < 0 {
		return 0
	}
	return w
}

// NonAdaptiveWorkAsPrinted returns the alternative reading of the scanned
// §3.1 formula, U − √(2pcU) + pc, kept so E3 can print both candidates next
// to the measured worst case.
func NonAdaptiveWorkAsPrinted(U float64, p int, c float64) float64 {
	if p <= 0 {
		return W0(U, c)
	}
	w := U - math.Sqrt(2*float64(p)*c*U) + float64(p)*c
	if w < 0 {
		return 0
	}
	return w
}

// --- §3.2 / §5.1: the adaptive guideline -----------------------------------

// AdaptiveDeficitCoefficient returns (2 − 2^{1−p}), the coefficient of
// √(2cU) in Theorem 5.1's deficit term for the adaptive guideline Σ_a^(p).
// It grows from 1 at p = 1 toward 2 as p → ∞.
func AdaptiveDeficitCoefficient(p int) float64 {
	if p <= 0 {
		return 0
	}
	return 2 - math.Pow(2, float64(1-p))
}

// AdaptiveWorkLowerBound returns the leading terms of Theorem 5.1:
// U − (2 − 2^{1−p})·√(2cU). The theorem's full statement subtracts a further
// O(U^{1/4} + pc); callers supply their own constant for that slack (see
// AdaptiveSlack).
func AdaptiveWorkLowerBound(U float64, p int, c float64) float64 {
	if p <= 0 {
		return W0(U, c)
	}
	w := U - AdaptiveDeficitCoefficient(p)*math.Sqrt(2*c*U)
	if w < 0 {
		return 0
	}
	return w
}

// AdaptiveSlack returns K·(U^{1/4}·√c + p·c), the shape of Theorem 5.1's
// low-order additive slack with an explicit constant K. The √c factor makes
// the term scale-invariant (the paper states O(U^{1/4} + pc) with c treated
// as a constant; measuring times in units of c gives U^{1/4} ↦ (U/c)^{1/4}·c^{1/4}…
// we adopt the dimensionally consistent form c^{3/4}·U^{1/4}).
func AdaptiveSlack(U float64, p int, c float64, K float64) float64 {
	return K * (math.Pow(c, 0.75)*math.Pow(U, 0.25) + float64(p)*c)
}

// GuidelineTailCount returns ℓ_p = ⌈2p/3⌉, the number of terminal (3/2)c
// periods in the adaptive guideline episode-schedule S_a^(p)[U].
func GuidelineTailCount(p int) int {
	if p <= 0 {
		return 0
	}
	return (2*p + 2) / 3
}

// GuidelineRampStep returns δ = 4^{1−p}·c, the arithmetic step between
// consecutive ramp periods of S_a^(p)[U].
func GuidelineRampStep(p int, c float64) float64 {
	return math.Pow(4, float64(1-p)) * c
}

// GuidelineM returns the §3.2 schedule length m(p)[U] = ⌊2^{p−1/2}·√(U/c)⌋ +
// p·2^{2p−1}. At p = 1 this is ⌊√(2U/c)⌋ + 2, the value Table 2 reports.
func GuidelineM(U float64, p int, c float64) int {
	if p <= 0 {
		return 1
	}
	lead := math.Floor(math.Pow(2, float64(p)-0.5) * math.Sqrt(U/c))
	return int(lead) + p*(1<<(2*p-1))
}

// --- §5.2 / Table 2: optimal schedules for p = 1 ---------------------------

// OptimalP1M returns eq. (5.1): m^(1)[U] = ⌈√(2U/c − 7/4) − 1/2⌉, the period
// count of the optimal 1-interrupt episode-schedule, clamped to at least 2
// (the derivation assumes the two terminal (1+ε)c periods exist).
func OptimalP1M(U, c float64) int {
	arg := 2*U/c - 7.0/4.0
	if arg < 0 {
		return 2
	}
	m := int(math.Ceil(math.Sqrt(arg) - 0.5))
	if m < 2 {
		return 2
	}
	return m
}

// OptimalP1Epsilon returns ε = (U−c)/(mc) − (m−1)/2, the fractional excess
// that makes the optimal p = 1 period lengths sum exactly to U. For m chosen
// by eq. (5.1), ε lands in (0, 1].
func OptimalP1Epsilon(U, c float64, m int) float64 {
	return (U-c)/(float64(m)*c) - float64(m-1)/2
}

// OptimalP1MAdjusted returns eq. (5.1)'s m nudged by at most a step so that
// ε ∈ (0, 1]; integrality of m occasionally pushes the raw formula's ε just
// outside the half-open interval.
func OptimalP1MAdjusted(U, c float64) int {
	m := OptimalP1M(U, c)
	for m > 2 && OptimalP1Epsilon(U, c, m) <= 0 {
		m--
	}
	for OptimalP1Epsilon(U, c, m) > 1 {
		m++
	}
	return m
}

// OptimalP1Periods returns the full period list of S_opt^(1)[U] per §5.2:
// t_m = t_{m−1} = (1+ε)c and t_k = t_{k+1} + c = (m−k+ε)c for k ≤ m−2.
func OptimalP1Periods(U, c float64) []float64 {
	m := OptimalP1MAdjusted(U, c)
	eps := OptimalP1Epsilon(U, c, m)
	out := make([]float64, m)
	for k := 1; k <= m-2; k++ {
		out[k-1] = (float64(m-k) + eps) * c
	}
	out[m-2] = (1 + eps) * c
	out[m-1] = (1 + eps) * c
	return out
}

// OptimalP1PeriodApprox returns Table 2's approximate period length for
// S_opt^(1): t_k ≈ √(2cU) − kc (for 1 ≤ k ≤ m−2).
func OptimalP1PeriodApprox(U, c float64, k int) float64 {
	return math.Sqrt(2*c*U) - float64(k)*c
}

// GuidelineP1PeriodApprox returns Table 2's approximate period length for
// S_a^(1): t_k ≈ √(2cU) − (k − 7/2)c (for 1 ≤ k ≤ m−2).
func GuidelineP1PeriodApprox(U, c float64, k int) float64 {
	return math.Sqrt(2*c*U) - (float64(k)-3.5)*c
}

// OptimalP1Work returns Table 2's W^(1)[U] ≈ U − √(2cU) − c/2, the optimal
// guaranteed output with one potential interrupt.
func OptimalP1Work(U, c float64) float64 {
	w := U - math.Sqrt(2*c*U) - c/2
	if w < 0 {
		return 0
	}
	return w
}

// GuidelineP1Work returns Table 2's row for S_a^(1):
// W ≈ U − √(2cU) − O(U^{1/4} + c); the leading terms coincide with optimal.
func GuidelineP1Work(U, c float64) float64 {
	w := U - math.Sqrt(2*c*U)
	if w < 0 {
		return 0
	}
	return w
}

// --- the equalization recursion ---------------------------------------------
//
// Theorem 4.3 says the optimal episode-schedule equalizes the damage of every
// adversary option. Writing the optimal guaranteed output as
// W(p)[U] ≈ U − K_p·√(2cU) and solving the equalization condition with the
// self-similar ansatz t_k = α_p·√(2c·R_k) (R_k the residual after period k —
// exact for p = 1, where t_k = √(2c·R_k) reproduces §5.2's ladder
// t_k ≈ √(2cU) − kc) yields
//
//	α_p² + K_{p−1}·α_p − 1 = 0,   K_p = K_{p−1} + α_p,   K_0 = 0.
//
// Equivalently K_p = 1/α_p: the adversary is exactly indifferent between
// abstaining (deficit m·c = √(2cU)/α_p) and interrupting anywhere (deficit
// K_p√(2cU)). K_1 = 1 matches the paper's proven p = 1 case; K_2 is the
// golden ratio 1.618…; K_p ~ √(2p) as p → ∞. The exact game solver
// (internal/game) confirms these coefficients to three digits, while the
// scanned paper's printed coefficient (2−2^{1−p}) and printed schedule length
// 2^{p−1/2}√(U/c) are mutually inconsistent for p ≥ 2 and agree with K_p only
// at p = 1 (experiment E4: `cstealtables -experiment equalization`).

// EqualizedAlpha returns α_p, the self-similar period coefficient of the
// equalization schedule: the first period of an episode with residual R and p
// interrupts outstanding is α_p·√(2cR).
func EqualizedAlpha(p int) float64 {
	if p <= 0 {
		return 0
	}
	K := OptimalDeficitCoefficient(p - 1)
	if p-1 > deficitLoopMax {
		// (√(K²+4) − K)/2 cancels as K grows; its conjugate form does not.
		return 2 / (math.Sqrt(K*K+4) + K)
	}
	return (math.Sqrt(K*K+4) - K) / 2
}

// OptimalDeficitCoefficient returns K_p, the measured-and-derived coefficient
// of √(2cU) in the optimal guaranteed-output deficit U − W(p)[U].
// It runs the recursion up to p = 2^16 (about a millisecond) and beyond
// takes the expansion K_p² − K_{p−1}·K_p = 1 implies, K_p = √(2p − ½·ln p +
// C + (ln p − 2C − 1)/(8p)), C fitted to a 200-bit run of the recursion:
// within 3e-15 of it, below the float loop's own drift, at constant cost.
func OptimalDeficitCoefficient(p int) float64 {
	if p > deficitLoopMax {
		const C = -1.1645261082
		fp := float64(p)
		lp := math.Log(fp)
		return math.Sqrt(2*fp - lp/2 + C + (lp-2*C-1)/(8*fp))
	}
	K := 0.0
	for i := 1; i <= p; i++ {
		alpha := (math.Sqrt(K*K+4) - K) / 2
		K += alpha
	}
	return K
}

// deficitLoopMax is the largest p that OptimalDeficitCoefficient loops to.
const deficitLoopMax = 1 << 16

// OptimalWorkPrediction returns the leading-order prediction of the exact
// optimum, U − K_p·√(2cU), clamped at zero.
func OptimalWorkPrediction(U float64, p int, c float64) float64 {
	if p <= 0 {
		return W0(U, c)
	}
	w := U - OptimalDeficitCoefficient(p)*math.Sqrt(2*c*U)
	if w < 0 {
		return 0
	}
	return w
}

// EqualizedM returns the leading-order episode length of the equalization
// schedule, K_p·√(2U/c) — which reproduces Table 2's m ≈ √(2U/c) at p = 1.
func EqualizedM(U float64, p int, c float64) int {
	if p <= 0 {
		return 1
	}
	return int(math.Round(OptimalDeficitCoefficient(p) * math.Sqrt(2*U/c)))
}

// --- comparisons ------------------------------------------------------------

// DeficitNonAdaptive returns the leading deficit coefficient of the §3.1
// guideline in units of √(cU): 2√p (so deficit ≈ 2√(pcU)).
func DeficitNonAdaptive(p int) float64 {
	return 2 * math.Sqrt(float64(p))
}

// DeficitAdaptive returns the leading deficit coefficient of the §3.2
// guideline in units of √(cU): (2−2^{1−p})·√2.
func DeficitAdaptive(p int) float64 {
	return AdaptiveDeficitCoefficient(p) * math.Sqrt2
}

// DeficitRatio returns the asymptotic ratio of non-adaptive to adaptive
// deficit under the paper's printed coefficients,
// 2√p / ((2−2^{1−p})√2): √2 at p = 1, 4/3 at p = 2, …; the factor by
// which adaptivity shrinks the work lost to the adversary.
func DeficitRatio(p int) float64 {
	if p <= 0 {
		return 1
	}
	return DeficitNonAdaptive(p) / DeficitAdaptive(p)
}

// DeficitRatioMeasured returns the same ratio against the equalization
// coefficients K_p that the exact solver confirms: 2√p / (K_p·√2). It equals
// √2 at p = 1 (agreeing with the paper's one proven case) and decays
// monotonically toward 1 as p → ∞ (K_p ~ √(2p), so both deficits approach
// 2√(pcU)): adaptivity buys the most — 41% less deficit — when interrupts
// are few, which is exactly the regime the draconian-laptop story motivates.
// Contrast the printed Theorem 5.1 coefficient, under which this ratio would
// grow unboundedly like √p — a further symptom that the printed constant is
// a scan artifact.
func DeficitRatioMeasured(p int) float64 {
	if p <= 0 {
		return 1
	}
	return DeficitNonAdaptive(p) / (OptimalDeficitCoefficient(p) * math.Sqrt2)
}
