package cyclesteal

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclesteal/internal/quant"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/task"
)

func engine(t *testing.T, o Opportunity, opts ...Option) *Engine {
	t.Helper()
	e, err := New(o, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Opportunity{Lifespan: 0, Interrupts: 1, Setup: 1}); err == nil {
		t.Error("U=0 accepted")
	}
	if _, err := New(Opportunity{Lifespan: 10, Interrupts: -1, Setup: 1}); err == nil {
		t.Error("p<0 accepted")
	}
	if _, err := New(Opportunity{Lifespan: 10, Interrupts: 1, Setup: 0}); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := New(Opportunity{Lifespan: 10, Interrupts: 1, Setup: 1}, WithTicksPerSetup(0)); err == nil {
		t.Error("bad resolution accepted")
	}
	// A lifespan whose tick count overflows the grid is refused, not played
	// as one tick.
	for _, o := range []Opportunity{
		{Lifespan: 1e300, Interrupts: 1, Setup: 1},
		{Lifespan: 1e18, Interrupts: 1, Setup: 1},
	} {
		if _, err := New(o); err == nil || !strings.Contains(err.Error(), "lifespan") {
			t.Errorf("lifespan %g at 100 ticks per setup: New = %v, want an error naming the lifespan", o.Lifespan, err)
		}
	}
}

// A constructor value the engine cannot play is refused where it is used:
// GuaranteedWork, WorstCase and Simulate return an error naming the
// constructor and the value, where they once played a chunk or interval
// the grid cannot hold as 1 tick, a NaN Poisson mean as an owner who never
// returns and a NaN probability as one who always interrupts. The edge
// values each constructor takes still play.
func TestConstructorsRefuseBadValues(t *testing.T) {
	e := engine(t, Opportunity{Lifespan: 100, Interrupts: 1, Setup: 1})
	eq, err := e.AdaptiveEqualized()
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	gridBad := []float64{nan, inf, -inf, -5, 1e300}
	check := func(name string, v float64, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), fmt.Sprintf("%g", v)) {
			t.Errorf("%s(%g): error %v, want one naming %s and the value", name, v, err, name)
		}
	}
	for _, v := range gridBad {
		s := e.FixedChunk(v)
		_, err := e.GuaranteedWork(s)
		check("FixedChunk", v, err)
		_, _, err = e.WorstCase(s)
		check("FixedChunk", v, err)
		_, err = e.Simulate(s, e.NoAdversary(), SimOptions{})
		check("FixedChunk", v, err)
		_, err = e.Simulate(eq, e.PeriodicAdversary(v), SimOptions{})
		check("PeriodicAdversary", v, err)
	}
	for _, v := range []float64{nan, -inf, -5} {
		_, err := e.Simulate(eq, e.PoissonAdversary(v, 1), SimOptions{})
		check("PoissonAdversary", v, err)
	}
	for _, v := range []float64{nan, inf, -inf, -0.5, 1.5} {
		_, err := e.Simulate(eq, e.RandomAdversary(v, 1), SimOptions{})
		check("RandomAdversary", v, err)
	}
	for _, adv := range []Adversary{
		e.PeriodicAdversary(0), e.PoissonAdversary(0, 1), e.PoissonAdversary(inf, 1),
		e.RandomAdversary(0, 1), e.RandomAdversary(1, 1),
	} {
		if _, err := e.Simulate(e.FixedChunk(0), adv, SimOptions{}); err != nil {
			t.Errorf("%T at an edge value: %v", adv, err)
		}
	}
}

// Scaling every caller-unit input by a power of two scales every caller-unit
// output by exactly that factor and leaves every count equal: the grid
// counts time in setup costs, so U and c scale together.
func TestScaleUAndCTogether(t *testing.T) {
	type outputs struct {
		Guaranteed, Optimal float64
		Sim                 Result
	}
	run := func(k float64) outputs {
		e := engine(t, Opportunity{Lifespan: 1500 * k, Interrupts: 2, Setup: 5 * k})
		eq, err := e.AdaptiveEqualized()
		if err != nil {
			t.Fatal(err)
		}
		var out outputs
		if out.Guaranteed, err = e.GuaranteedWork(eq); err != nil {
			t.Fatal(err)
		}
		if out.Optimal, err = e.OptimalWork(); err != nil {
			t.Fatal(err)
		}
		durations := make([]float64, 200)
		for i := range durations {
			durations[i] = (2.5 + float64(i%7)) * k
		}
		if out.Sim, err = e.Simulate(eq, e.PoissonAdversary(500*k, 3), SimOptions{TaskDurations: durations}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := run(1)
	if base.Sim.Interrupts == 0 || base.Sim.TasksCompleted == 0 {
		t.Fatalf("degenerate base run: %+v", base.Sim)
	}
	for _, k := range []float64{0.25, 2, 1024} {
		checkScaled(t, reflect.ValueOf(base), reflect.ValueOf(run(k)), k, fmt.Sprintf("k=%g", k))
	}
}

// checkScaled fails unless every float64 in got is exactly k times the one
// in base, and every int is equal.
func checkScaled(t *testing.T, base, got reflect.Value, k float64, path string) {
	t.Helper()
	switch base.Kind() {
	case reflect.Struct:
		for i := 0; i < base.NumField(); i++ {
			checkScaled(t, base.Field(i), got.Field(i), k, path+"."+base.Type().Field(i).Name)
		}
	case reflect.Float64:
		if got.Float() != k*base.Float() {
			t.Errorf("%s = %v, want exactly %g × %v", path, got.Float(), k, base.Float())
		}
	case reflect.Int:
		if got.Int() != base.Int() {
			t.Errorf("%s = %d, want %d", path, got.Int(), base.Int())
		}
	default:
		t.Fatalf("%s: unexpected kind %s", path, base.Kind())
	}
}

func TestTickGridMapping(t *testing.T) {
	e := engine(t, Opportunity{Lifespan: 3600, Interrupts: 1, Setup: 5}, WithTicksPerSetup(50))
	U, c := e.Ticks()
	if c != 50 {
		t.Errorf("c = %d ticks, want 50", c)
	}
	if U != 36000 { // 3600/5 × 50
		t.Errorf("U = %d ticks, want 36000", U)
	}
	if got := e.Units(c); math.Abs(got-5) > 1e-9 {
		t.Errorf("Units(c) = %g, want 5", got)
	}
	if got := e.Opportunity().Lifespan; got != 3600 {
		t.Errorf("Opportunity lost: %g", got)
	}
}

func TestGuaranteedWorkOrdering(t *testing.T) {
	e := engine(t, Opportunity{Lifespan: 2000, Interrupts: 2, Setup: 2}, WithTicksPerSetup(50))
	eq, err := e.AdaptiveEqualized()
	if err != nil {
		t.Fatal(err)
	}
	na, err := e.NonAdaptive()
	if err != nil {
		t.Fatal(err)
	}
	wEq, err := e.GuaranteedWork(eq)
	if err != nil {
		t.Fatal(err)
	}
	wNa, err := e.GuaranteedWork(na)
	if err != nil {
		t.Fatal(err)
	}
	wSp, err := e.GuaranteedWork(e.SinglePeriod())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := e.OptimalWork()
	if err != nil {
		t.Fatal(err)
	}
	if !(wSp == 0 && wNa > 0 && wEq > wNa && opt >= wEq) {
		t.Errorf("ordering violated: single=%g < nonadaptive=%g < equalized=%g ≤ optimal=%g", wSp, wNa, wEq, opt)
	}
	// The optimum must be close to the K_p prediction.
	pred := e.Predict()
	if math.Abs(opt-pred.AdaptiveWork) > 0.05*pred.AdaptiveWork {
		t.Errorf("optimal %g strays from prediction %g", opt, pred.AdaptiveWork)
	}
}

func TestOptimalScheduleShape(t *testing.T) {
	e := engine(t, Opportunity{Lifespan: 1000, Interrupts: 1, Setup: 1})
	periods, err := e.OptimalSchedule()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range periods {
		sum += p
	}
	if math.Abs(sum-1000) > 0.1 {
		t.Errorf("optimal schedule sums to %g, want 1000", sum)
	}
	// ≈ √(2·1000) ≈ 45 periods.
	if len(periods) < 35 || len(periods) > 55 {
		t.Errorf("m = %d, want ≈ 45", len(periods))
	}
}

func TestEpisodeInspection(t *testing.T) {
	e := engine(t, Opportunity{Lifespan: 500, Interrupts: 1, Setup: 1})
	op1, err := e.OptimalP1()
	if err != nil {
		t.Fatal(err)
	}
	ep := e.Episode(op1)
	if len(ep) == 0 {
		t.Fatal("empty episode")
	}
	var sum float64
	for _, p := range ep {
		sum += p
	}
	if math.Abs(sum-500) > 0.1 {
		t.Errorf("episode sums to %g", sum)
	}
}

func TestWorstCaseReplay(t *testing.T) {
	e := engine(t, Opportunity{Lifespan: 600, Interrupts: 2, Setup: 1})
	g, err := e.AdaptiveGuideline()
	if err != nil {
		t.Fatal(err)
	}
	floor, adv, err := e.WorstCase(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Simulate(g, adv, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Work-floor) > 1e-9 {
		t.Errorf("replay %g ≠ floor %g", res.Work, floor)
	}
	if res.Interrupts == 0 {
		t.Error("worst case used no interrupts against an interruptible schedule")
	}
}

func TestSimulateAgainstStochasticOwners(t *testing.T) {
	e := engine(t, Opportunity{Lifespan: 1000, Interrupts: 2, Setup: 2})
	eq, err := e.AdaptiveEqualized()
	if err != nil {
		t.Fatal(err)
	}
	floor, err := e.GuaranteedWork(eq)
	if err != nil {
		t.Fatal(err)
	}
	for name, adv := range map[string]Adversary{
		"none":     e.NoAdversary(),
		"last":     e.LastPeriodAdversary(),
		"greedy":   e.GreedyAdversary(),
		"poisson":  e.PoissonAdversary(300, 7),
		"random":   e.RandomAdversary(0.8, 8),
		"periodic": e.PeriodicAdversary(333),
	} {
		res, err := e.Simulate(eq, adv, SimOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Work < floor-1e-9 {
			t.Errorf("%s: realized %g below guaranteed floor %g", name, res.Work, floor)
		}
		total := res.Work + res.SetupTime + res.KilledTime + res.IdleTime
		if math.Abs(total-1000) > 0.5 {
			t.Errorf("%s: lifespan conservation broken: %g", name, total)
		}
	}
}

func TestSimulateWithTasks(t *testing.T) {
	e := engine(t, Opportunity{Lifespan: 800, Interrupts: 1, Setup: 4})
	eq, err := e.AdaptiveEqualized()
	if err != nil {
		t.Fatal(err)
	}
	durations := make([]float64, 100)
	for i := range durations {
		durations[i] = 6
	}
	res, err := e.Simulate(eq, e.GreedyAdversary(), SimOptions{TaskDurations: durations})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted == 0 {
		t.Fatal("no tasks completed")
	}
	if res.TasksCompleted+res.TasksRemaining != 100 {
		t.Errorf("tasks leaked: %d + %d ≠ 100", res.TasksCompleted, res.TasksRemaining)
	}
	if res.TaskWork > res.Work+1e-9 {
		t.Errorf("task work %g exceeds fluid work %g", res.TaskWork, res.Work)
	}
	// A duration the grid cannot hold is refused, naming its task, not
	// played as a 1-tick task.
	for _, bad := range []float64{math.NaN(), math.Inf(1), -5, 1e300} {
		durations[7] = bad
		if _, err := e.Simulate(eq, e.GreedyAdversary(), SimOptions{TaskDurations: durations}); err == nil || !strings.Contains(err.Error(), "task 7") {
			t.Errorf("duration %g: Simulate = %v, want an error naming task 7", bad, err)
		}
	}
}

func TestPredictions(t *testing.T) {
	e := engine(t, Opportunity{Lifespan: 10000, Interrupts: 1, Setup: 1})
	p := e.Predict()
	if p.ZeroWork {
		t.Error("large opportunity flagged zero-work")
	}
	// Table 2: W ≈ U − √(2U) − ½.
	want := 10000 - math.Sqrt(20000) - 0.5
	if math.Abs(p.OptimalP1Work-want) > 1e-9 {
		t.Errorf("OptimalP1Work = %g, want %g", p.OptimalP1Work, want)
	}
	if math.Abs(p.AdaptiveWork-(10000-math.Sqrt(20000))) > 1 {
		t.Errorf("AdaptiveWork = %g (K_1 = 1)", p.AdaptiveWork)
	}
	if p.DeficitRatio < 1.3 || p.DeficitRatio > 1.5 {
		t.Errorf("DeficitRatio = %g, want ≈ √2", p.DeficitRatio)
	}
	if p.NonAdaptivePeriods != 100 || math.Abs(p.NonAdaptivePeriodLength-100) > 1e-9 {
		t.Errorf("non-adaptive parameters: m=%d t=%g, want 100/100", p.NonAdaptivePeriods, p.NonAdaptivePeriodLength)
	}
	tiny := engine(t, Opportunity{Lifespan: 1.5, Interrupts: 2, Setup: 1})
	if !tiny.Predict().ZeroWork {
		t.Error("U ≤ (p+1)c not flagged zero-work")
	}
}

// At Interrupts = math.MaxInt, where p+1 wraps negative, the engine
// evaluates the equalized schedule's floor of 0 at once; with the wrapped
// bound its first episode walked an α recursion of p steps.
func TestEngineAtMaxInterrupts(t *testing.T) {
	e := engine(t, Opportunity{Lifespan: 3600, Interrupts: math.MaxInt, Setup: 5})
	eq, err := e.AdaptiveEqualized()
	if err != nil {
		t.Fatal(err)
	}
	var w float64
	done := make(chan struct{})
	go func() {
		defer close(done)
		w, err = e.GuaranteedWork(eq)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("GuaranteedWork of the equalized schedule at p = MaxInt had not returned after 10s")
	}
	if err != nil || w != 0 {
		t.Errorf("GuaranteedWork at p = MaxInt = %g, %v; want 0", w, err)
	}
}

// Predict answers at any interrupt bound: at p = MaxInt it returns within a
// second, and the paper's Prop. 4.1(c) says no work is guaranteed.
func TestPredictAtMaxInterrupts(t *testing.T) {
	e := engine(t, Opportunity{Lifespan: 3600, Interrupts: math.MaxInt, Setup: 5})
	done := make(chan Predictions, 1)
	go func() { done <- e.Predict() }()
	select {
	case pr := <-done:
		if !pr.ZeroWork || pr.AdaptiveWork != 0 || pr.NonAdaptiveWork != 0 || !(pr.DeficitRatio >= 1) {
			t.Errorf("Predict at p = MaxInt = %+v, want zero work and a deficit ratio ≥ 1", pr)
		}
	case <-time.After(time.Second):
		t.Fatal("Predict at p = MaxInt had not returned after 1s")
	}
}

// OptimalWork answers 0 past the zero-work threshold at any interrupt
// bound, within a deadline: at Lifespan 100 and Setup 1 the game table
// stops at its zero row (p = ⌈U/c⌉ = 100), however large p is.
func TestOptimalWorkPastZeroWork(t *testing.T) {
	for _, p := range []int{99, 100, 1000, 100000, 1 << 30, math.MaxInt} {
		e := engine(t, Opportunity{Lifespan: 100, Interrupts: p, Setup: 1})
		type answer struct {
			w   float64
			err error
		}
		done := make(chan answer, 1)
		go func() {
			w, err := e.OptimalWork()
			done <- answer{w, err}
		}()
		select {
		case a := <-done:
			if a.w != 0 || a.err != nil {
				t.Errorf("OptimalWork at p = %d = %g, %v; want 0, nil", p, a.w, a.err)
			}
			if !e.Predict().ZeroWork {
				t.Errorf("Predict at p = %d does not report zero work", p)
			}
		case <-time.After(time.Second):
			t.Fatalf("OptimalWork at p = %d had not returned after 1s", p)
		}
	}
}

// Predict's ZeroWork is the paper's continuum threshold U ≤ (p+1)c, and on
// the tick grid OptimalWork stays 0 up to (p+1)c + p ticks: at Setup 1,
// p = 99 and the default grid the two agree at Lifespan 100 and 101 and
// part between them. ZeroWork implies an OptimalWork of 0, and OptimalWork
// is 0 exactly when U in ticks is at most (p+1)c + p.
func TestZeroWorkOnTheGrid(t *testing.T) {
	const p = 99
	for _, c := range []struct {
		lifespan float64
		zeroWork bool
		optimal  float64
	}{
		{100, true, 0},
		{100.5, false, 0},
		{100.99, false, 0},
		{101, false, 0.01},
	} {
		e := engine(t, Opportunity{Lifespan: c.lifespan, Interrupts: p, Setup: 1})
		w, err := e.OptimalWork()
		if err != nil {
			t.Fatal(err)
		}
		zero := e.Predict().ZeroWork
		if zero != c.zeroWork || w != c.optimal {
			t.Errorf("lifespan %g: ZeroWork %v, OptimalWork %g; want %v, %g", c.lifespan, zero, w, c.zeroWork, c.optimal)
		}
		if zero && w != 0 {
			t.Errorf("lifespan %g: ZeroWork, but OptimalWork is %g", c.lifespan, w)
		}
		U, ticksC := e.Ticks()
		if threshold := (p+1)*ticksC + p; (w == 0) != (U <= threshold) {
			t.Errorf("lifespan %g: OptimalWork %g at %d ticks, grid threshold %d", c.lifespan, w, U, threshold)
		}
	}
}

func TestFixedChunkAndEqualSplit(t *testing.T) {
	e := engine(t, Opportunity{Lifespan: 100, Interrupts: 1, Setup: 1})
	fc := e.FixedChunk(10)
	ep := e.Episode(fc)
	if len(ep) != 10 {
		t.Errorf("fixed 10-unit chunks over 100 units: %d periods", len(ep))
	}
	es := e.EqualSplit(4)
	if got := e.Episode(es); len(got) != 4 {
		t.Errorf("equal split: %d periods", len(got))
	}
	if e.FixedChunk(0) == nil {
		t.Error("degenerate chunk should clamp, not nil")
	}
}

// The opportunity benchmark's shape (p = 2, c = 5, U/c ∈ {500, 750, 1000})
// pinned by value: the optimum, the optimal first episode and both guideline
// floors, in ticks of the default grid (100 ticks per setup).
func TestEnginePinnedValues(t *testing.T) {
	for _, pin := range []struct {
		ratio                         float64
		optimal, guideline, equalized quant.Tick
		schedule                      []quant.Tick
	}{
		{500, 44918, 43959, 44842, []quant.Tick{
			1934, 1896, 1858, 1820, 1781, 1743, 1705, 1667, 1628, 1589, 1551, 1513, 1475, 1437, 1399, 1360, 1322,
			1284, 1246, 1208, 1169, 1131, 1093, 1055, 1017, 978, 940, 902, 864, 826, 787, 749, 711, 672, 635, 596,
			558, 520, 481, 444, 405, 367, 330, 290, 253, 216, 174, 140, 281}},
		{750, 68767, 67553, 68694, []quant.Tick{
			2374, 2335, 2298, 2259, 2220, 2182, 2144, 2106, 2067, 2029, 1991, 1953, 1915, 1877, 1838, 1800, 1762,
			1723, 1686, 1647, 1609, 1571, 1532, 1495, 1456, 1418, 1380, 1341, 1303, 1265, 1227, 1189, 1151, 1112,
			1074, 1036, 998, 960, 921, 883, 845, 807, 769, 730, 693, 654, 616, 578, 539, 502, 464, 424, 388, 348,
			310, 273, 231, 196, 158, 116, 232}},
		{1000, 92797, 91357, 92727, []quant.Tick{
			2744, 2706, 2668, 2630, 2592, 2553, 2514, 2476, 2438, 2399, 2362, 2323, 2285, 2247, 2209, 2171, 2132,
			2094, 2056, 2018, 1980, 1941, 1903, 1865, 1827, 1788, 1750, 1712, 1674, 1636, 1597, 1560, 1521, 1483,
			1445, 1406, 1369, 1330, 1292, 1254, 1215, 1177, 1139, 1100, 1063, 1025, 986, 948, 910, 872, 834, 795,
			758, 719, 681, 643, 604, 567, 528, 489, 452, 413, 375, 338, 297, 262, 223, 184, 150, 101, 202}},
	} {
		e := engine(t, Opportunity{Lifespan: pin.ratio * 5, Interrupts: 2, Setup: 5})
		opt, err := e.OptimalWork()
		if err != nil {
			t.Fatal(err)
		}
		if want := e.Units(pin.optimal); opt != want {
			t.Errorf("U/c=%g: OptimalWork = %v, pinned %v", pin.ratio, opt, want)
		}
		sch, err := e.OptimalSchedule()
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(pin.schedule))
		for i, ticks := range pin.schedule {
			want[i] = e.Units(ticks)
		}
		if !reflect.DeepEqual(sch, want) {
			t.Errorf("U/c=%g: OptimalSchedule = %v, pinned %v", pin.ratio, sch, want)
		}
		guide, err := e.AdaptiveGuideline()
		if err != nil {
			t.Fatal(err)
		}
		eq, err := e.AdaptiveEqualized()
		if err != nil {
			t.Fatal(err)
		}
		for _, floor := range []struct {
			name  string
			s     Scheduler
			ticks quant.Tick
		}{{"guideline", guide, pin.guideline}, {"equalized", eq, pin.equalized}} {
			got, err := e.GuaranteedWork(floor.s)
			if err != nil {
				t.Fatal(err)
			}
			if want := e.Units(floor.ticks); got != want {
				t.Errorf("U/c=%g: GuaranteedWork(%s) = %v, pinned %v", pin.ratio, floor.name, got, want)
			}
		}
	}

	// The task-bag simulation at U/c = 750: BenchmarkEngineSimulate's 750
	// durations under the equalized schedule, 200 Poisson owners at seeds
	// 0–199, summed over the trials (task work in ticks).
	e, eq, opts, mean := engineSimulateShape(t)
	_, c := e.Ticks()
	type bagSums struct{ completed, remaining, episodes, interrupts, taskTicks int }
	var sum bagSums
	for seed := int64(0); seed < 200; seed++ {
		res, err := e.Simulate(eq, e.PoissonAdversary(mean, seed), opts)
		if err != nil {
			t.Fatal(err)
		}
		sum.completed += res.TasksCompleted
		sum.remaining += res.TasksRemaining
		sum.episodes += res.Episodes
		sum.interrupts += res.Interrupts
		sum.taskTicks += int(math.Round(res.TaskWork / e.Opportunity().Setup * float64(c)))
	}
	if want := (bagSums{62175, 87825, 547, 347, 14090675}); sum != want {
		t.Errorf("task-bag runs: sums %+v, pinned %+v", sum, want)
	}
}

// Goroutines released together on one fresh Engine (so they also race to
// build its solver) must each get exactly what a serial caller gets. The
// odd goroutines share one task list and the even ones each simulate their
// own task count, so a pooled scratch passes between goroutines both with
// the list it converted last and with another: scratch leaking between
// Simulate calls, or a converted list played where the bag writes it,
// would show as a wrong result.
func TestEngineConcurrentUse(t *testing.T) {
	opp := Opportunity{Lifespan: 2000, Interrupts: 2, Setup: 5}
	sharedTasks := make([]float64, 150)
	for i := range sharedTasks {
		sharedTasks[i] = float64(1 + (i*5)%13)
	}
	type outcome struct {
		optimal, floor float64
		sims           []Result
	}
	run := func(e *Engine, g int) (outcome, error) {
		var o outcome
		var err error
		if o.optimal, err = e.OptimalWork(); err != nil {
			return o, err
		}
		eq, err := e.AdaptiveEqualized()
		if err != nil {
			return o, err
		}
		if o.floor, err = e.GuaranteedWork(eq); err != nil {
			return o, err
		}
		durations := sharedTasks
		if g%2 == 0 {
			durations = make([]float64, 40+60*g)
			for i := range durations {
				durations[i] = float64(1 + (i*7+g)%12)
			}
		}
		for k := 0; k < 4; k++ {
			res, err := e.Simulate(eq, e.PoissonAdversary(700, int64(10*g+k)), SimOptions{TaskDurations: durations})
			if err != nil {
				return o, err
			}
			o.sims = append(o.sims, res)
		}
		return o, nil
	}
	const goroutines = 8
	serial := engine(t, opp)
	want := make([]outcome, goroutines)
	for g := range want {
		var err error
		if want[g], err = run(serial, g); err != nil {
			t.Fatal(err)
		}
	}
	shared := engine(t, opp)
	got := make([]outcome, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g], errs[g] = run(shared, g)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(got[g], want[g]) {
			t.Errorf("goroutine %d: concurrent %+v, serial %+v", g, got[g], want[g])
		}
	}
}

// A Poisson owner whose mean absence is huge or infinite never returns in
// time, so it must simulate exactly like the owner who never interrupts —
// not overflow the conversion of its draw to ticks.
func TestPoissonHugeMeanSimulatesLikeNoAdversary(t *testing.T) {
	e := engine(t, Opportunity{Lifespan: 3000, Interrupts: 2, Setup: 5})
	eq, err := e.AdaptiveEqualized()
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Simulate(eq, e.NoAdversary(), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mean := range []float64{1e20, 1e300, math.Inf(1)} {
		for seed := int64(1); seed <= 3; seed++ {
			got, err := e.Simulate(eq, e.PoissonAdversary(mean, seed), SimOptions{})
			if err != nil {
				t.Fatalf("mean %g, seed %d: %v", mean, seed, err)
			}
			if got != want {
				t.Errorf("mean %g, seed %d: %+v, want the benign owner's %+v", mean, seed, got, want)
			}
		}
	}
}

// Simulate on pooled scratch must match a run on fresh buffers and a fresh
// bag, call after call: as the task count grows, shrinks and drops to none;
// as one list repeats, changes in place, shrinks and regrows in place; after
// a refused list, or one whose total overflows the grid; and as Engines on
// three grids take turns with one list.
// On one goroutine consecutive calls mostly borrow the same scratch, so a
// converted list kept too long, or played where the bag can write it,
// shows as a wrong result.
func TestSimulatePooledMatchesFreshRun(t *testing.T) {
	e := engine(t, Opportunity{Lifespan: 3000, Interrupts: 2, Setup: 5})
	seed := int64(0)
	check := func(e *Engine, durations []float64, what string) {
		t.Helper()
		eq, err := e.AdaptiveEqualized()
		if err != nil {
			t.Fatal(err)
		}
		seed++
		got, err := e.Simulate(eq, e.PoissonAdversary(1000, seed), SimOptions{TaskDurations: durations})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		U, c := e.Ticks()
		tasks := make([]task.Task, len(durations))
		for i, d := range durations {
			ticks, ok := quant.GridTicks(d, e.Opportunity().Setup, float64(c))
			if !ok {
				t.Fatalf("%s: task %d duration %g is off the grid", what, i, d)
			}
			tasks[i] = task.Task{ID: i, Duration: ticks}
		}
		var cfg sim.Config
		bag := task.NewBag(tasks)
		if len(tasks) > 0 {
			cfg.Bag = bag
		}
		opp := sim.Opportunity{U: U, P: e.Opportunity().Interrupts, C: c}
		res, err := sim.Run(eq, e.PoissonAdversary(1000, seed), opp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := Result{
			Work:           e.Units(res.Work),
			TaskWork:       e.Units(res.TaskWork),
			TasksCompleted: res.TasksCompleted,
			TasksRemaining: bag.Remaining(),
			Episodes:       res.Episodes,
			Interrupts:     res.Interrupts,
			SetupTime:      e.Units(res.SetupTicks),
			KilledTime:     e.Units(res.KilledTicks),
			IdleTime:       e.Units(res.IdleTicks),
		}
		if got != want {
			t.Errorf("%s, %d tasks: pooled %+v, fresh %+v", what, len(durations), got, want)
		}
	}
	refuse := func(durations []float64, want string) {
		t.Helper()
		eq, err := e.AdaptiveEqualized()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			if _, err := e.Simulate(eq, e.NoAdversary(), SimOptions{TaskDurations: durations}); err == nil || err.Error() != want {
				t.Errorf("refused list, call %d: Simulate = %v, want %q", k, err, want)
			}
		}
	}
	list := func(n, k int) []float64 {
		durations := make([]float64, n)
		for i := range durations {
			durations[i] = e.Units(quant.Tick(50 + (37*i+11*k)%351))
		}
		return durations
	}

	for k, n := range []int{300, 40, 0, 500, 7} {
		durations := list(n, k)
		for call := 1; call <= 3; call++ {
			check(e, durations, fmt.Sprintf("list %d, call %d", k, call))
		}
	}

	durations := list(500, 9)
	check(e, durations, "before the changes in place")
	durations[7] = 11.5
	check(e, durations, "one duration changed in place")
	durations[123] = 0.4 // below every other duration: the shortest drops
	check(e, durations, "shortest duration dropped in place")
	durations = durations[:200]
	check(e, durations, "shortened in place")
	for i := 200; i < 500; i++ {
		durations = append(durations, e.Units(quant.Tick(60+(13*i)%200)))
	}
	check(e, durations, "regrown in place with a new tail")

	bad := slices.Clone(durations)
	bad[0], bad[300] = 2.25, math.NaN()
	refuse(bad, "cyclesteal: task 300 duration must be ≥ 0 and finite, got NaN")
	check(e, durations, "the list converted before a refusal")
	bad[300] = 1e300
	refuse(bad, "cyclesteal: task 300 duration 1e+300 overflows the tick grid")
	check(e, durations, "the list converted before an overflow")
	refuse([]float64{1, 3e17, 3e17}, "cyclesteal: task 2: the job's total duration overflows the tick grid")
	check(e, durations, "the list converted before an overflowing total")

	engines := []*Engine{
		e,
		engine(t, Opportunity{Lifespan: 1800, Interrupts: 2, Setup: 3}),
		engine(t, Opportunity{Lifespan: 3000, Interrupts: 2, Setup: 5}, WithTicksPerSetup(37)),
	}
	for round := 0; round < 3; round++ {
		for i, e := range engines {
			check(e, durations, fmt.Sprintf("round %d, engine %d", round, i))
		}
	}
}
