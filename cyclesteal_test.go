package cyclesteal

import (
	"math"
	"reflect"
	"sync"
	"testing"

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
}

// Goroutines released together on one fresh Engine (so they also race to
// build its solver) must each get exactly what a serial caller gets. Every
// goroutine simulates its own task count, so scratch leaking between pooled
// Simulate calls would show as a wrong result.
func TestEngineConcurrentUse(t *testing.T) {
	opp := Opportunity{Lifespan: 2000, Interrupts: 2, Setup: 5}
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
		durations := make([]float64, 40+60*g)
		for i := range durations {
			durations[i] = float64(1 + (i*7+g)%12)
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
// bag, call after call, as the task count grows, shrinks and drops to none.
func TestSimulatePooledMatchesFreshRun(t *testing.T) {
	e := engine(t, Opportunity{Lifespan: 3000, Interrupts: 2, Setup: 5})
	eq, err := e.AdaptiveEqualized()
	if err != nil {
		t.Fatal(err)
	}
	U, c := e.Ticks()
	for k, n := range []int{300, 40, 0, 500, 7} {
		durations := make([]float64, n)
		tasks := make([]task.Task, n)
		for i := range tasks {
			ticks := quant.Tick(50 + (37*i+11*k)%351)
			durations[i] = e.Units(ticks)
			tasks[i] = task.Task{ID: i, Duration: ticks}
		}
		seed := int64(k + 1)
		got, err := e.Simulate(eq, e.PoissonAdversary(1000, seed), SimOptions{TaskDurations: durations})
		if err != nil {
			t.Fatal(err)
		}
		var cfg sim.Config
		bag := task.NewBag(tasks)
		if n > 0 {
			cfg.Bag = bag
		}
		res, err := sim.Run(eq, e.PoissonAdversary(1000, seed), sim.Opportunity{U: U, P: 2, C: c}, cfg)
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
			t.Errorf("%d tasks: pooled %+v, fresh %+v", n, got, want)
		}
	}
}
