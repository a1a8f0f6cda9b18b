package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/theory"
)

func TestEqualSplitHelper(t *testing.T) {
	s := equalSplit(10, 3)
	if s.Total() != 10 || len(s) != 3 {
		t.Fatalf("equalSplit(10,3) = %v", s)
	}
	for _, tk := range s {
		if tk < 3 || tk > 4 {
			t.Errorf("uneven split: %v", s)
		}
	}
	if s := equalSplit(5, 0); len(s) != 1 || s[0] != 5 {
		t.Errorf("k=0 should clamp to 1: %v", s)
	}
	if s := equalSplit(3, 10); len(s) != 3 {
		t.Errorf("k>L should clamp to L periods of 1: %v", s)
	}
}

func TestNewNonAdaptiveParameters(t *testing.T) {
	if _, err := NewNonAdaptive(0, 1, 1); err == nil {
		t.Error("U=0 accepted")
	}
	if _, err := NewNonAdaptive(10, -1, 1); err == nil {
		t.Error("p<0 accepted")
	}
	if _, err := NewNonAdaptive(10, 1, 0); err == nil {
		t.Error("c=0 accepted")
	}
}

func TestNonAdaptiveMMatchesGuideline(t *testing.T) {
	// §3.1: m = ⌊√(pU/c)⌋.
	cases := []struct {
		U, c quant.Tick
		p    int
	}{
		{10000, 100, 1},
		{10000, 100, 4},
		{50000, 100, 2},
		{400, 100, 1},
	}
	for _, cs := range cases {
		s, err := NewNonAdaptive(cs.U, cs.p, cs.c)
		if err != nil {
			t.Fatal(err)
		}
		want := theory.NonAdaptiveM(float64(cs.U), cs.p, float64(cs.c))
		if s.M() != want {
			t.Errorf("U=%d p=%d: m = %d, want %d", cs.U, cs.p, s.M(), want)
		}
	}
}

func TestNonAdaptiveP0IsSinglePeriod(t *testing.T) {
	s, err := NewNonAdaptive(5000, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s.M() != 1 {
		t.Errorf("p=0 m = %d, want 1", s.M())
	}
}

func TestNonAdaptivePeriodsPartitionU(t *testing.T) {
	s, err := NewNonAdaptive(10007, 3, 97)
	if err != nil {
		t.Fatal(err)
	}
	periods := s.Periods()
	if err := periods.Validate(10007); err != nil {
		t.Errorf("periods are not an exact partition: %v", err)
	}
	// Equal up to one tick.
	var lo, hi quant.Tick = math.MaxInt64, 0
	for _, tk := range periods {
		if tk < lo {
			lo = tk
		}
		if tk > hi {
			hi = tk
		}
	}
	if hi-lo > 1 {
		t.Errorf("periods not equal within one tick: min %d max %d", lo, hi)
	}
}

func TestNonAdaptiveEpisodeFullAtStart(t *testing.T) {
	s, err := NewNonAdaptive(10000, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	ep := s.Episode(2, 10000)
	if ep.Total() != 10000 || len(ep) != s.M() {
		t.Errorf("initial episode should be the whole schedule, got %d periods totalling %d", len(ep), ep.Total())
	}
}

func TestNonAdaptiveTailSemantics(t *testing.T) {
	s, err := NewNonAdaptive(1000, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	periods := s.Periods()
	prefix := periods.PrefixSums()
	// Interrupt at the end of period 3: residual = U − T_3, tail = periods 4….
	L := 1000 - prefix[3]
	tail := s.Episode(1, L)
	if len(tail) != len(periods)-3 {
		t.Fatalf("tail has %d periods, want %d", len(tail), len(periods)-3)
	}
	for i, tk := range tail {
		if tk != periods[3+i] {
			t.Errorf("tail[%d] = %d, want %d", i, tk, periods[3+i])
		}
	}
	// Mid-period interrupt: elapsed inside period 3 ⇒ tail starts at period 4
	// and undershoots the residual (the skipped remainder is idle).
	Lmid := 1000 - (prefix[2] + 1)
	tailMid := s.Episode(1, Lmid)
	if len(tailMid) != len(periods)-3 {
		t.Fatalf("mid-period tail has %d periods, want %d", len(tailMid), len(periods)-3)
	}
	if tailMid.Total() >= Lmid {
		t.Errorf("mid-period tail should undershoot the residual: %d ≥ %d", tailMid.Total(), Lmid)
	}
}

func TestNonAdaptiveAfterLastInterruptLongPeriod(t *testing.T) {
	s, err := NewNonAdaptive(1000, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	ep := s.Episode(0, 345)
	if len(ep) != 1 || ep[0] != 345 {
		t.Errorf("after p-th interrupt want one long period of 345, got %v", ep)
	}
}

func TestNonAdaptiveEpisodeEdges(t *testing.T) {
	s, err := NewNonAdaptive(100, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ep := s.Episode(1, 0); ep != nil {
		t.Errorf("L=0 should yield nil episode, got %v", ep)
	}
	// Interrupt during the final period: nothing remains.
	if ep := s.Episode(1, 1); len(ep) != 0 {
		t.Errorf("interrupt inside final period leaves no tail, got %v", ep)
	}
	// L > U: excess treated as preceding idle; full schedule returned.
	if ep := s.Episode(1, 200); ep.Total() != 100 {
		t.Errorf("oversized residual should return the full schedule, got %v", ep)
	}
}

func TestGuidelinePeriodsStructure(t *testing.T) {
	c := 1.0
	for p := 1; p <= 6; p++ {
		U := 20000.0
		periods := GuidelinePeriodsUnitsCfg(p, U, c, GuidelineConfig{})
		var sum float64
		for _, tk := range periods {
			sum += tk
			if tk <= 0 {
				t.Fatalf("p=%d: nonpositive period %g", p, tk)
			}
		}
		if !quant.ApproxEqual(sum, U, 1e-6) {
			t.Errorf("p=%d: periods sum to %g, want %g", p, sum, U)
		}
		// Tail: ℓ_p periods of exactly (3/2)c.
		ellp := theory.GuidelineTailCount(p)
		m := len(periods)
		if m < ellp+1 {
			t.Fatalf("p=%d: only %d periods for tail %d", p, m, ellp)
		}
		for i := m - ellp; i < m; i++ {
			if !quant.ApproxEqual(periods[i], 1.5*c, 1e-9) {
				t.Errorf("p=%d: tail period %d = %g, want %g", p, i, periods[i], 1.5*c)
			}
		}
		// Ramp descends monotonically toward the adjustment period.
		for i := 0; i+1 < m-ellp; i++ {
			if periods[i] < periods[i+1]-1e-9 {
				t.Errorf("p=%d: ramp not descending at %d: %g < %g", p, i, periods[i], periods[i+1])
			}
		}
	}
}

func TestGuidelineRampStepMatchesDelta(t *testing.T) {
	// Interior ramp steps equal δ = 4^{1−p}c (first period absorbs residue,
	// so start checking from the second).
	c := 1.0
	for p := 1; p <= 4; p++ {
		periods := GuidelinePeriodsUnitsCfg(p, 50000, c, GuidelineConfig{})
		ellp := theory.GuidelineTailCount(p)
		m := len(periods)
		delta := theory.GuidelineRampStep(p, c)
		for i := 1; i+1 < m-ellp-1; i++ {
			got := periods[i] - periods[i+1]
			if !quant.ApproxEqual(got, delta, 1e-9) {
				t.Fatalf("p=%d: step at %d = %g, want %g", p, i, got, delta)
			}
		}
	}
}

func TestGuidelineP1MatchesTable2Shape(t *testing.T) {
	// Table 2: m ≈ ⌊√(2U/c)⌋ + 2; terminal two periods = (3/2)c. Both the
	// paper's column and our reconstruction are approximations whose period
	// counts drift by O(1) from each other (the paper's own period formulas
	// do not sum exactly to U either); allow a constant-width band.
	c := 1.0
	for _, U := range []float64{1000, 5000, 20000} {
		periods := GuidelinePeriodsUnitsCfg(1, U, c, GuidelineConfig{})
		m := len(periods)
		want := theory.GuidelineM(U, 1, c)
		if m < want-5 || m > want+5 {
			t.Errorf("U=%g: m = %d, want ≈ %d", U, m, want)
		}
		if !quant.ApproxEqual(periods[m-1], 1.5*c, 1e-9) || !quant.ApproxEqual(periods[m-2], 1.5*c, 1e-9) {
			t.Errorf("U=%g: terminal periods %g, %g, want 3c/2", U, periods[m-2], periods[m-1])
		}
	}
}

func TestGuidelineZeroWorkRegimeFallsBack(t *testing.T) {
	periods := GuidelinePeriodsUnitsCfg(3, 3.5, 1, GuidelineConfig{}) // U ≤ (p+1)c
	if len(periods) != 1 {
		t.Errorf("zero-work regime should yield a single period, got %v", periods)
	}
}

func TestGuidelineSmallUFallback(t *testing.T) {
	// Above the zero-work threshold but below the canonical shape.
	p, c := 2, 1.0
	U := 4.0 // (p+1)c = 3 < U < base ≈ 5.5
	periods := GuidelinePeriodsUnitsCfg(p, U, c, GuidelineConfig{})
	var sum float64
	for _, tk := range periods {
		sum += tk
		if tk <= 0 {
			t.Fatalf("nonpositive fallback period in %v", periods)
		}
	}
	if !quant.ApproxEqual(sum, U, 1e-9) {
		t.Errorf("fallback periods sum to %g, want %g", sum, U)
	}
}

func TestAdaptiveGuidelineEpisodeContract(t *testing.T) {
	g, err := NewAdaptiveGuideline(100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := rng.Intn(5)
		L := quant.Tick(1 + rng.Intn(100000))
		ep := g.Episode(p, L)
		if len(ep) == 0 {
			t.Fatalf("p=%d L=%d: empty episode", p, L)
		}
		if got := ep.Total(); got != L {
			t.Fatalf("p=%d L=%d: episode totals %d", p, L, got)
		}
		for i, tk := range ep {
			if tk < 1 {
				t.Fatalf("p=%d L=%d: period %d = %d", p, L, i, tk)
			}
		}
	}
	if ep := g.Episode(2, 0); ep != nil {
		t.Errorf("L=0 should yield nil, got %v", ep)
	}
	if _, err := NewAdaptiveGuideline(0); err == nil {
		t.Error("c=0 accepted")
	}
}

func TestOptimalP1PeriodsUnitsStructure(t *testing.T) {
	c := 1.0
	for _, U := range []float64{10, 100, 1000, 33333} {
		periods := appendOptimalP1Units(nil, U, c)
		var sum float64
		for _, tk := range periods {
			sum += tk
		}
		if !quant.ApproxEqual(sum, U, 1e-6) {
			t.Errorf("U=%g: sum %g", U, sum)
		}
		m := len(periods)
		if U > 2*c {
			wantM := theory.OptimalP1MAdjusted(U, c)
			if m != wantM {
				t.Errorf("U=%g: m = %d, want %d", U, m, wantM)
			}
			if !quant.ApproxEqual(periods[m-1], periods[m-2], 1e-9) {
				t.Errorf("U=%g: last two periods differ", U)
			}
		}
	}
	if periods := appendOptimalP1Units(nil, 1.5, 1); len(periods) != 1 {
		t.Errorf("zero-work regime should be one period, got %v", periods)
	}
}

func TestOptimalP1EpisodeContract(t *testing.T) {
	s, err := NewOptimalP1(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, L := range []quant.Tick{1, 150, 999, 12345, 100000} {
		ep := s.Episode(1, L)
		if ep.Total() != L {
			t.Errorf("L=%d: total %d", L, ep.Total())
		}
	}
	if ep := s.Episode(0, 777); len(ep) != 1 || ep[0] != 777 {
		t.Errorf("p=0 should be one long period, got %v", ep)
	}
	if _, err := NewOptimalP1(0); err == nil {
		t.Error("c=0 accepted")
	}
}

func TestBaselineSchedulers(t *testing.T) {
	var (
		sp SinglePeriod
		es = EqualSplit{M: 4}
		fc = FixedChunk{T: 30}
	)
	if ep := sp.Episode(3, 100); len(ep) != 1 || ep[0] != 100 {
		t.Errorf("single-period: %v", ep)
	}
	if ep := es.Episode(1, 103); len(ep) != 4 || ep.Total() != 103 {
		t.Errorf("equal-split: %v", ep)
	}
	ep := fc.Episode(1, 100)
	if len(ep) != 4 || ep.Total() != 100 {
		t.Errorf("fixed-chunk: %v", ep)
	}
	if ep[0] != 30 || ep[3] != 10 {
		t.Errorf("fixed-chunk shape: %v", ep)
	}
	if ep := fc.Episode(1, 20); len(ep) != 1 || ep[0] != 20 {
		t.Errorf("fixed-chunk smaller than T: %v", ep)
	}
	if ep := (FixedChunk{T: 0}).Episode(0, 3); ep.Total() != 3 {
		t.Errorf("fixed-chunk T=0 clamps to 1: %v", ep)
	}
	if sp.Episode(0, 0) != nil || es.Episode(0, 0) != nil || fc.Episode(0, 0) != nil {
		t.Error("L=0 should yield nil across baselines")
	}
}

func TestSchedulerNames(t *testing.T) {
	na, _ := NewNonAdaptive(100, 1, 10)
	g, _ := NewAdaptiveGuideline(10)
	o, _ := NewOptimalP1(10)
	for _, s := range []model.EpisodeScheduler{na, g, o, SinglePeriod{}, EqualSplit{M: 2}, FixedChunk{T: 5}} {
		if model.NameOf(s) == "" {
			t.Errorf("%T has empty name", s)
		}
	}
}

func TestQuantizeExactFallback(t *testing.T) {
	// Degenerate float schedules must still return a legal partition.
	ts := appendQuantizeExact(nil, []float64{0.0001, 0.0001}, 1)
	if ts.Total() != 1 {
		t.Errorf("fallback total = %d, want 1", ts.Total())
	}
}

// referenceQuantize is appendQuantizeExact as it was built on the float
// schedule layer: quantize at one tick per unit (ToTicks is
// math.Round(t·perUnit)), report a failure as an error, and let the caller
// fall back to the single period L.
func referenceQuantize(dst model.TickSchedule, s []float64, L quant.Tick) model.TickSchedule {
	const perUnit = 1.0
	quantize := func(dst model.TickSchedule) (model.TickSchedule, error) {
		if len(s) == 0 {
			return dst, model.ErrEmptySchedule
		}
		if L < quant.Tick(len(s)) {
			return dst, fmt.Errorf("cannot fit %d periods into %d ticks", len(s), L)
		}
		base := len(dst)
		var sum quant.Tick
		longest := base
		for _, t := range s {
			ticks := quant.Tick(math.Round(t * perUnit))
			if ticks < 1 {
				ticks = 1
			}
			dst = append(dst, ticks)
			sum += ticks
			if dst[len(dst)-1] > dst[longest] {
				longest = len(dst) - 1
			}
		}
		diff := L - sum
		if dst[longest]+diff < 1 {
			return dst[:base], fmt.Errorf("quantization residue %d exceeds schedule capacity", diff)
		}
		dst[longest] += diff
		return dst, nil
	}
	out, err := quantize(dst)
	if err != nil {
		return append(dst, L)
	}
	return out
}

// appendQuantizeExact matches the reference bit for bit on any input, NaN,
// ±Inf, negative and huge periods and L ≤ 0 included, and leaves the
// destination prefix untouched. On inputs in the model's domain the result
// partitions L exactly into periods of at least one tick, one per input
// period, and it falls back to the single period L exactly when there are no
// periods, L is below the period count, or the residue would wipe out the
// longest period.
func TestAppendQuantizeExactMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3.5, -0.4, 0, 0.49, 0.5, 1.5, 2.5, 1e300, -1e300, 9.3e18}
	prefix := model.TickSchedule{11, 22, 33}
	for trial := 0; trial < 20000; trial++ {
		m := rng.Intn(13)
		s := make([]float64, m)
		sane := true
		for i := range s {
			if rng.Intn(8) == 0 {
				s[i] = odd[rng.Intn(len(odd))]
				sane = false
			} else {
				s[i] = rng.Float64()*40 + 0.3
			}
		}
		var L quant.Tick
		switch rng.Intn(4) {
		case 0:
			L = quant.Tick(rng.Intn(2*m+3)) - 2 // around the period count, ≤ 0 included
		default:
			var sum float64
			for _, t := range s {
				sum += t
			}
			L = quant.Tick(sum) + quant.Tick(rng.Intn(11)) - 5
		}
		want := referenceQuantize(append(model.TickSchedule{}, prefix...), s, L)
		got := appendQuantizeExact(append(model.TickSchedule{}, prefix...), s, L)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %v, L=%d: got %v, want %v", trial, s, L, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: %v, L=%d: got %v, want %v", trial, s, L, got, want)
			}
		}
		if got[0] != 11 || got[1] != 22 || got[2] != 33 {
			t.Fatalf("trial %d: prefix clobbered: %v", trial, got)
		}
		if !sane {
			continue
		}
		var sum, longest quant.Tick
		for _, x := range s {
			tk := max(quant.Tick(math.Round(x)), 1)
			sum += tk
			longest = max(longest, tk)
		}
		tail := got[len(prefix):]
		if m == 0 || L < quant.Tick(m) || longest+L-sum < 1 {
			if len(tail) != 1 || tail[0] != L {
				t.Fatalf("trial %d: %v, L=%d: got %v, want the fallback [%d]", trial, s, L, tail, L)
			}
			continue
		}
		if len(tail) != m {
			t.Fatalf("trial %d: %d periods from %d", trial, len(tail), m)
		}
		if err := tail.Validate(L); err != nil {
			t.Fatalf("trial %d: %v, L=%d: %v", trial, s, L, err)
		}
	}
	for _, c := range []struct {
		s []float64
		L quant.Tick
	}{
		{nil, 10},               // no periods
		{[]float64{1, 1, 1}, 2}, // fewer ticks than periods
		{[]float64{5, 5, 1}, 3}, // residue −8 wipes out a 5-tick period
	} {
		got := appendQuantizeExact(append(model.TickSchedule{}, prefix...), c.s, c.L)
		if len(got) != len(prefix)+1 || got[len(prefix)] != c.L {
			t.Errorf("%v into %d ticks: got %v, want the prefix and the single period %d", c.s, c.L, got, c.L)
		}
	}
}

// Every scheduler's AppendEpisode must emit exactly its Episode — the append
// paths are the hot-loop implementations, and any drift would silently change
// simulation results fleet-wide. Lifespans up to 10⁶ ticks give the adaptive
// schedulers episodes longer than episodeCap, which spill to the heap.
func TestAppendEpisodeMatchesEpisode(t *testing.T) {
	c := quant.Tick(10)
	ag, _ := NewAdaptiveGuideline(c)
	eq, _ := NewAdaptiveEqualized(c)
	op, _ := NewOptimalP1(c)
	na, _ := NewNonAdaptive(5000, 2, c)
	nf, _ := NonAdaptiveFromPeriods(model.TickSchedule{700, 800, 3500}, 2, c)
	schedulers := []model.EpisodeScheduler{
		ag, eq, op, na, nf,
		SinglePeriod{},
		EqualSplit{M: 7},
		FixedChunk{T: 250},
		GuidelineVariant{C: c, Cfg: GuidelineConfig{DumpResidue: true}, Variant: "dump"},
	}
	rng := rand.New(rand.NewSource(3))
	spilled := map[string]bool{} // by scheduler name
	for _, maxL := range []int64{5000, 1_000_000} {
		for _, s := range schedulers {
			for trial := 0; trial < 200; trial++ {
				p := rng.Intn(4)
				L := quant.Tick(1 + rng.Int63n(maxL))
				want := s.Episode(p, L)
				if len(want) > episodeCap {
					spilled[model.NameOf(s)] = true
				}
				prefix := model.TickSchedule{1, 2}
				got := model.AppendEpisode(s, append(model.TickSchedule{}, prefix...), p, L)
				if len(got) < 2 || got[0] != 1 || got[1] != 2 {
					t.Fatalf("%s: prefix clobbered: %v", model.NameOf(s), got)
				}
				tail := got[2:]
				if len(tail) != len(want) {
					t.Fatalf("%s (p=%d L=%d): append emitted %d periods, Episode %d",
						model.NameOf(s), p, L, len(tail), len(want))
				}
				for i := range want {
					if tail[i] != want[i] {
						t.Fatalf("%s (p=%d L=%d): period %d = %d, want %d",
							model.NameOf(s), p, L, i, tail[i], want[i])
					}
				}
			}
		}
	}
	for _, s := range []model.EpisodeScheduler{ag, eq, op} {
		if !spilled[model.NameOf(s)] {
			t.Errorf("%s: no episode longer than %d periods; the spill path went untested", model.NameOf(s), episodeCap)
		}
	}
}

// A never-used adaptive scheduler appends an episode that fits episodeCap
// into a warm destination with zero allocations: the periods are built on
// the stack, so an instance has nothing to warm.
func TestAppendEpisodeZeroAllocFreshInstance(t *testing.T) {
	const c, p, L = quant.Tick(10), 2, quant.Tick(4321)
	builders := map[string]func() model.EpisodeAppender{
		"equalized":  func() model.EpisodeAppender { s, _ := NewAdaptiveEqualized(c); return s },
		"guideline":  func() model.EpisodeAppender { s, _ := NewAdaptiveGuideline(c); return s },
		"optimal-p1": func() model.EpisodeAppender { s, _ := NewOptimalP1(c); return s },
	}
	for name, build := range builders {
		if n := len(build().(model.EpisodeScheduler).Episode(p, L)); n > episodeCap {
			t.Fatalf("%s: episode has %d periods, more than episodeCap", name, n)
		}
		const runs = 50
		fresh := make([]model.EpisodeAppender, runs+1) // AllocsPerRun adds a warm-up call
		for i := range fresh {
			fresh[i] = build()
		}
		dst := make(model.TickSchedule, 0, episodeCap)
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			dst = fresh[next].AppendEpisode(dst[:0], p, L)
			next++
		})
		if allocs != 0 {
			t.Errorf("%s: a fresh instance's AppendEpisode allocates %.1f times per episode", name, allocs)
		}
	}
}

// Schedulers are routinely shared across goroutines (E8 hands one instance
// to every mc trial worker), so episodes must be race-free: each call builds
// its periods in its own stack frame. Run under -race in CI.
func TestSharedSchedulerConcurrentEpisodes(t *testing.T) {
	c := quant.Tick(10)
	eq, _ := NewAdaptiveEqualized(c)
	ag, _ := NewAdaptiveGuideline(c)
	op, _ := NewOptimalP1(c)
	want := map[string]model.TickSchedule{}
	schedulers := map[string]model.EpisodeScheduler{"equalized": eq, "guideline": ag, "optimalp1": op}
	for name, s := range schedulers {
		want[name] = s.Episode(2, 4321)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make(model.TickSchedule, 0, 256)
			for i := 0; i < 200; i++ {
				for name, s := range schedulers {
					buf = model.AppendEpisode(s, buf[:0], 2, 4321)
					if len(buf) != len(want[name]) {
						errs <- name
						return
					}
					for j := range buf {
						if buf[j] != want[name][j] {
							errs <- name
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("%s: concurrent episode diverged from serial", name)
	}
}
