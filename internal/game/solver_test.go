package game

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cyclesteal/internal/quant"
	"cyclesteal/internal/theory"
)

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(-1, 100, 10); err == nil {
		t.Error("P<0 accepted")
	}
	if _, err := Solve(1, -1, 10); err == nil {
		t.Error("U<0 accepted")
	}
	if _, err := Solve(1, 100, 0); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := Solve(1<<20, 1<<20, 10); err == nil {
		t.Error("oversized table accepted")
	}
	// (P+1)(U+1) wraps to 0 in 64 bits at both shapes. A full table refuses
	// both; the fast solvers refuse the lifespan past the cap, and at
	// P = MaxInt, U = 1 store two rows, the second already zero.
	for _, sh := range []struct {
		P int
		U quant.Tick
	}{{math.MaxInt, 1}, {3, 1<<62 - 1}, {math.MaxInt, 1<<62 - 1}} {
		if _, err := SolveReference(sh.P, sh.U, 10); err == nil {
			t.Errorf("P=%d U=%d: SolveReference accepted a table whose size wraps", sh.P, sh.U)
		}
		if sh.U == 1 {
			continue
		}
		if _, err := Solve(sh.P, sh.U, 10); err == nil {
			t.Errorf("P=%d U=%d: table whose size wraps accepted", sh.P, sh.U)
		}
		if _, err := SolveValueRow(sh.P, sh.U, 10); err == nil {
			t.Errorf("P=%d U=%d: SolveValueRow accepted a table whose size wraps", sh.P, sh.U)
		}
	}
	s, err := Solve(math.MaxInt, 1, 10)
	if err != nil || len(s.v) != 2*2 || s.Value(math.MaxInt, 1) != 0 {
		t.Errorf("Solve(MaxInt, 1, 10): %v, storing %d cells", err, len(s.v))
	}
	if row, err := SolveValueRow(math.MaxInt, 1, 10); err != nil || row[1] != 0 {
		t.Errorf("SolveValueRow(MaxInt, 1, 10) = %v, %v; want zero work", row, err)
	}
}

// A table stores rows 0..min(P, ⌈U/c⌉) and reads every later row from its
// last: V(q, L) = 0 for L ≤ (q+1)c and V is nonincreasing in q, so row
// ⌈U/c⌉−1 is already zero on [0, U]. Value, OptimalEpisode and
// SolveValueRow match a full SolveReference table cell for cell, at
// interrupt bounds on both sides of ⌈U/c⌉ and lifespans on and off a
// multiple of c.
func TestZeroRowBoundMatchesFullTable(t *testing.T) {
	for _, sh := range []struct {
		U, c quant.Tick
	}{{60, 7}, {63, 7}, {64, 7}, {20, 1}, {45, 11}, {0, 3}, {2, 5}} {
		k := int((sh.U + sh.c - 1) / sh.c) // ⌈U/c⌉
		for _, P := range []int{0, 1, k - 2, k - 1, k, k + 1, k + 2, 2*k + 5} {
			if P < 0 {
				continue
			}
			fast, err := Solve(P, sh.U, sh.c)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := SolveReference(P, sh.U, sh.c)
			if err != nil {
				t.Fatal(err)
			}
			if rows, want := len(fast.v)/int(sh.U+1), min(P, k)+1; rows != want {
				t.Errorf("U=%d c=%d P=%d: %d rows stored, want min(P, ⌈U/c⌉)+1 = %d", sh.U, sh.c, P, rows, want)
			}
			row, err := SolveValueRow(P, sh.U, sh.c)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p <= P; p++ {
				for L := quant.Tick(0); L <= sh.U; L++ {
					if got, want := fast.Value(p, L), ref.Value(p, L); got != want {
						t.Fatalf("U=%d c=%d P=%d: V(%d,%d) = %d, full table %d", sh.U, sh.c, P, p, L, got, want)
					}
					if got, want := fast.OptimalEpisode(p, L), ref.OptimalEpisode(p, L); !slices.Equal(got, want) {
						t.Fatalf("U=%d c=%d P=%d: episode(%d,%d) = %v, full table %v", sh.U, sh.c, P, p, L, got, want)
					}
				}
			}
			for L, v := range row {
				if want := ref.Value(P, quant.Tick(L)); v != want {
					t.Fatalf("U=%d c=%d P=%d: SolveValueRow[%d] = %d, full table %d", sh.U, sh.c, P, L, v, want)
				}
			}
		}
	}
}

func TestSolverAccessors(t *testing.T) {
	s, err := Solve(2, 500, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.P() != 2 || s.U() != 500 || s.C() != 10 {
		t.Errorf("accessors: P=%d U=%d C=%d", s.P(), s.U(), s.C())
	}
}

func TestValuePanicsOutsideRange(t *testing.T) {
	s, err := Solve(1, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Value outside range did not panic")
		}
	}()
	s.Value(2, 50)
}

// Prop. 4.1(d): V(0, L) = L ⊖ c.
func TestValueP0(t *testing.T) {
	s, err := Solve(0, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for L := quant.Tick(0); L <= 1000; L += 13 {
		if got, want := s.Value(0, L), quant.PosSub(L, 7); got != want {
			t.Fatalf("V(0,%d) = %d, want %d", L, got, want)
		}
	}
}

// Prop. 4.1(a): V(p, ·) nondecreasing; and 1-Lipschitz (each extra tick of
// lifespan adds at most one tick of guaranteed work).
func TestValueMonotoneLipschitzInL(t *testing.T) {
	s, err := Solve(3, 2000, 25)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p <= 3; p++ {
		for L := quant.Tick(1); L <= 2000; L++ {
			d := s.Value(p, L) - s.Value(p, L-1)
			if d < 0 {
				t.Fatalf("V(%d,·) decreased at L=%d", p, L)
			}
			if d > 1 {
				t.Fatalf("V(%d,·) jumped by %d at L=%d (not 1-Lipschitz)", p, d, L)
			}
		}
	}
}

// Prop. 4.1(b): V(·, L) nonincreasing in p.
func TestValueMonotoneInP(t *testing.T) {
	s, err := Solve(4, 1500, 20)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 4; p++ {
		for L := quant.Tick(0); L <= 1500; L += 7 {
			if s.Value(p, L) > s.Value(p-1, L) {
				t.Fatalf("V(%d,%d) = %d > V(%d,%d) = %d", p, L, s.Value(p, L), p-1, L, s.Value(p-1, L))
			}
		}
	}
}

// Prop. 4.1(c): V(p, L) = 0 when L ≤ (p+1)c. On the integer grid the exact
// boundary shifts by p ticks — the smallest productive period is c+1, so zero
// work is guaranteed iff L ≤ (p+1)c + p = (p+1)(c+1) − 1 — which collapses to
// the paper's continuum statement as the quantum refines.
func TestZeroWorkRegimeExact(t *testing.T) {
	c := quant.Tick(11)
	s, err := Solve(3, 400, c)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p <= 3; p++ {
		paper := quant.Tick(p+1) * c
		discrete := paper + quant.Tick(p)
		for L := quant.Tick(0); L <= 400; L++ {
			v := s.Value(p, L)
			if L <= paper && v != 0 {
				t.Fatalf("V(%d,%d) = %d, want 0 (Prop 4.1(c): L ≤ (p+1)c = %d)", p, L, v, paper)
			}
			if L <= discrete && v != 0 {
				t.Fatalf("V(%d,%d) = %d, want 0 (discrete threshold %d)", p, L, v, discrete)
			}
			if L > discrete && v == 0 {
				t.Fatalf("V(%d,%d) = 0, want > 0 (L > discrete threshold %d)", p, L, discrete)
			}
		}
	}
}

func TestFastSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		P := rng.Intn(4)
		U := quant.Tick(50 + rng.Intn(350))
		c := quant.Tick(1 + rng.Intn(20))
		fast, err := Solve(P, U, c)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := SolveReference(P, U, c)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p <= P; p++ {
			for L := quant.Tick(0); L <= U; L++ {
				if fast.Value(p, L) != ref.Value(p, L) {
					t.Fatalf("trial %d (P=%d U=%d c=%d): V(%d,%d) fast %d ≠ ref %d",
						trial, P, U, c, p, L, fast.Value(p, L), ref.Value(p, L))
				}
			}
		}
	}
}

// §5.2 / Table 2: the exact optimum for p = 1 tracks U − √(2cU) − c/2.
func TestValueP1MatchesClosedForm(t *testing.T) {
	c := quant.Tick(10)
	s, err := Solve(1, 40000, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, U := range []quant.Tick{1000, 5000, 10000, 25000, 40000} {
		got := float64(s.Value(1, U))
		want := theory.OptimalP1Work(float64(U), float64(c))
		if math.Abs(got-want) > 2*float64(c) {
			t.Errorf("V(1,%d) = %g, closed form %g (Δ=%g > 2c)", U, got, want, math.Abs(got-want))
		}
	}
}

// Theorem 5.1 as printed holds at p = 1 (the case §5.2 proves):
// V(1, U) ≥ U − √(2cU) − slack.
func TestValueMeetsTheorem51BoundP1(t *testing.T) {
	c := quant.Tick(10)
	s, err := Solve(1, 100000, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, U := range []quant.Tick{5000, 10000, 30000, 100000} {
		got := float64(s.Value(1, U))
		bound := theory.AdaptiveWorkLowerBound(float64(U), 1, float64(c)) -
			theory.AdaptiveSlack(float64(U), 1, float64(c), 1)
		if got < bound {
			t.Errorf("V(1,%d) = %g below Thm 5.1 bound %g", U, got, bound)
		}
	}
}

// The exact optimum tracks the equalization prediction U − K_p·√(2cU) for
// every p: the low-order gap stays within the theorem's O(U^{1/4} + pc) shape
// with a modest constant, and the leading coefficient converges to K_p.
func TestValueTracksEqualizationPrediction(t *testing.T) {
	c := quant.Tick(10)
	s, err := Solve(6, 100000, c)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 6; p++ {
		for _, U := range []quant.Tick{10000, 30000, 100000} {
			got := float64(s.Value(p, U))
			pred := theory.OptimalWorkPrediction(float64(U), p, float64(c))
			slack := theory.AdaptiveSlack(float64(U), p, float64(c), 4)
			if got < pred-slack {
				t.Errorf("V(%d,%d) = %g far below K_p prediction %g (slack %g)", p, U, got, pred, slack)
			}
			if got > pred+slack {
				t.Errorf("V(%d,%d) = %g far above K_p prediction %g (slack %g) — coefficient drift", p, U, got, pred, slack)
			}
		}
	}
}

func TestOptimalEpisodeSumsWithinL(t *testing.T) {
	s, err := Solve(3, 5000, 10)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p <= 3; p++ {
		for _, L := range []quant.Tick{1, 9, 10, 11, 100, 999, 5000} {
			ep := s.OptimalEpisode(p, L)
			if ep.Total() != L {
				t.Errorf("p=%d L=%d: episode totals %d", p, L, ep.Total())
			}
			for i, tk := range ep {
				if tk < 1 {
					t.Errorf("p=%d L=%d: period %d = %d", p, L, i, tk)
				}
			}
		}
	}
	if ep := s.OptimalEpisode(1, 0); ep != nil {
		t.Errorf("L=0 should yield nil, got %v", ep)
	}
}

// An interrupt bound above the solved one is clamped to it, down to a
// solver of P = 0, whose optimal episode is one exhausting period.
func TestOptimalEpisodeClampsInterruptBound(t *testing.T) {
	s, err := Solve(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 1, 3} {
		if ep := s.OptimalEpisode(p, 100); len(ep) != 1 || ep[0] != 100 {
			t.Errorf("P=0 solver: OptimalEpisode(%d, 100) = %v, want [100]", p, ep)
		}
	}
	s, err = Solve(1, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, want := s.OptimalEpisode(3, 1000), s.OptimalEpisode(1, 1000)
	if len(got) != len(want) || got.Total() != want.Total() {
		t.Errorf("P=1 solver: OptimalEpisode(3, 1000) = %v, want the p=1 episode %v", got, want)
	}
}

// The extracted optimal schedule must actually achieve the game value when
// played against the worst-case adversary.
func TestOptimalSchedulerAchievesValue(t *testing.T) {
	c := quant.Tick(10)
	for _, P := range []int{0, 1, 2, 3} {
		U := quant.Tick(3000)
		s, err := Solve(P, U, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Evaluate(s.Scheduler(), P, U, c)
		if err != nil {
			t.Fatal(err)
		}
		if want := s.Value(P, U); got != want {
			t.Errorf("P=%d: evaluate(optimal) = %d, want V = %d", P, got, want)
		}
	}
}

// Theorem 4.2 structure: the terminal *structural* periods of extracted
// optimal episodes sit in (c, 2c]; the very last period is the zero-value
// remainder lump, bounded by the discrete zero-work threshold (p+1)c + p.
func TestOptimalEpisodeTerminalPeriods(t *testing.T) {
	c := quant.Tick(100)
	for _, p := range []int{1, 2, 3} {
		s, err := Solve(p, 20000, c)
		if err != nil {
			t.Fatal(err)
		}
		ep := s.OptimalEpisode(p, 20000)
		if len(ep) < 3 {
			t.Fatalf("p=%d: unexpectedly short optimal episode: %v", p, ep)
		}
		lump := ep[len(ep)-1]
		if lump > quant.Tick(p+1)*c+quant.Tick(p) {
			t.Errorf("p=%d: terminal lump %d exceeds the zero-work threshold %d", p, lump, quant.Tick(p+1)*c+quant.Tick(p))
		}
		structural := ep[len(ep)-2]
		if structural <= c || structural > 2*c {
			t.Errorf("p=%d: last structural period %d outside (c, 2c] = (%d, %d]", p, structural, c, 2*c)
		}
	}
	// Table 2: the optimal p=1 episode steps by ≈ c between consecutive
	// interior periods.
	s, err := Solve(1, 20000, c)
	if err != nil {
		t.Fatal(err)
	}
	ep := s.OptimalEpisode(1, 20000)
	for i := 0; i+2 < len(ep); i++ {
		step := ep[i] - ep[i+1]
		if step < c-2 || step > c+2 {
			t.Errorf("interior step t_%d−t_%d = %d, want ≈ c = %d", i+1, i+2, step, c)
		}
	}
}

// The optimal p=1 episode length matches eq. (5.1) up to rounding.
func TestOptimalEpisodeLengthMatchesEq51(t *testing.T) {
	c := quant.Tick(100)
	s, err := Solve(1, 50000, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, U := range []quant.Tick{5000, 20000, 50000} {
		ep := s.OptimalEpisode(1, U)
		want := theory.OptimalP1MAdjusted(float64(U), float64(c))
		if len(ep) < want-1 || len(ep) > want+1 {
			t.Errorf("U=%d: extracted m = %d, eq(5.1) m = %d", U, len(ep), want)
		}
	}
}
