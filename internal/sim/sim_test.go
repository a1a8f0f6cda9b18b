package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cyclesteal/internal/adversary"
	"cyclesteal/internal/game"
	"cyclesteal/internal/lazyrand"
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/task"
)

// uniform returns n tasks with IDs 0..n−1 and durations uniform in
// [lo, hi] ticks, drawn from one seeded stream.
func uniform(n int, lo, hi quant.Tick, seed int64) []task.Task {
	rng := lazyrand.New(seed)
	out := make([]task.Task, n)
	for i := range out {
		out[i] = task.Task{ID: i, Duration: lo + rng.Int63n(hi-lo+1)}
	}
	return out
}

func TestOpportunityValidate(t *testing.T) {
	if err := (Opportunity{U: 0, P: 0, C: 1}).Validate(); err == nil {
		t.Error("U=0 accepted")
	}
	if err := (Opportunity{U: 10, P: -1, C: 1}).Validate(); err == nil {
		t.Error("P<0 accepted")
	}
	if err := (Opportunity{U: 10, P: 0, C: 0}).Validate(); err == nil {
		t.Error("C=0 accepted")
	}
	if err := (Opportunity{U: 10, P: 1, C: 1}).Validate(); err != nil {
		t.Errorf("valid opportunity rejected: %v", err)
	}
}

func TestRunNoInterrupts(t *testing.T) {
	res, err := Run(sched.SinglePeriod{}, adversary.None{}, Opportunity{U: 1000, P: 2, C: 10}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Work != 990 {
		t.Errorf("Work = %d, want 990", res.Work)
	}
	if res.Episodes != 1 || res.Interrupts != 0 {
		t.Errorf("Episodes=%d Interrupts=%d, want 1/0", res.Episodes, res.Interrupts)
	}
	if res.SetupTicks != 10 || res.IdleTicks != 0 || res.KilledTicks != 0 {
		t.Errorf("accounting: setup=%d idle=%d killed=%d", res.SetupTicks, res.IdleTicks, res.KilledTicks)
	}
}

func TestRunSinglePeriodKilledAtLastInstant(t *testing.T) {
	res, err := Run(sched.SinglePeriod{}, adversary.LastPeriod{}, Opportunity{U: 1000, P: 1, C: 10}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// First episode [1000] killed at its last instant: residual 0.
	if res.Work != 0 {
		t.Errorf("Work = %d, want 0", res.Work)
	}
	if res.Interrupts != 1 || res.KilledTicks != 1000 {
		t.Errorf("Interrupts=%d KilledTicks=%d, want 1/1000", res.Interrupts, res.KilledTicks)
	}
}

func TestRunScriptedMidPeriodInterrupt(t *testing.T) {
	// Two periods of 500; interrupt at offset 700 (inside period 2).
	na, err := sched.NonAdaptiveFromPeriods(model.TickSchedule{500, 500}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	adv := &adversary.Scripted{Offsets: []quant.Tick{700}}
	res, err := Run(na, adv, Opportunity{U: 1000, P: 1, C: 10}, Config{RecordPeriods: true})
	if err != nil {
		t.Fatal(err)
	}
	// Period 1 completes (490); period 2 dies with 200 ticks of progress.
	// Residual after interrupt: 300, rescheduled as one long period (p=0):
	// banks 290.
	if res.Work != 780 {
		t.Errorf("Work = %d, want 780", res.Work)
	}
	if res.KilledTicks != 200 {
		t.Errorf("KilledTicks = %d, want 200", res.KilledTicks)
	}
	if res.Episodes != 2 || res.Interrupts != 1 {
		t.Errorf("Episodes=%d Interrupts=%d, want 2/1", res.Episodes, res.Interrupts)
	}
	if len(res.Periods) != 3 {
		t.Fatalf("period log has %d rows, want 3", len(res.Periods))
	}
	if res.Periods[0].Outcome != Completed || res.Periods[1].Outcome != Killed || res.Periods[2].Outcome != Completed {
		t.Errorf("outcomes: %v %v %v", res.Periods[0].Outcome, res.Periods[1].Outcome, res.Periods[2].Outcome)
	}
	if res.Periods[1].Start != 500 || res.Periods[2].Start != 700 {
		t.Errorf("absolute starts: %d, %d; want 500, 700", res.Periods[1].Start, res.Periods[2].Start)
	}
}

func TestRunUnreachedPeriods(t *testing.T) {
	na, err := sched.NonAdaptiveFromPeriods(model.TickSchedule{100, 100, 100}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	adv := &adversary.Scripted{Offsets: []quant.Tick{50}}
	res, err := Run(na, adv, Opportunity{U: 300, P: 1, C: 10}, Config{RecordPeriods: true})
	if err != nil {
		t.Fatal(err)
	}
	// Interrupt at 50 kills period 1; periods 2,3 of episode 1 are unreached;
	// residual 250 rescheduled as one long period (240 work).
	if res.Work != 240 {
		t.Errorf("Work = %d, want 240", res.Work)
	}
	var unreached int
	for _, r := range res.Periods {
		if r.Outcome == Unreached {
			unreached++
		}
	}
	if unreached != 2 {
		t.Errorf("unreached rows = %d, want 2", unreached)
	}
}

// With RecordPeriods off, Run leaves an episode at the period a kill ends.
// The result equals the recording run's in everything but the log, and so
// does the bag it leaves; the log still lists every period of every
// episode, each unreached one after its episode's kill. The grid covers the
// library schedulers; Poisson, random and scripted interrupters, one
// scripted run interrupting in trailing idle time; runs with and without a
// bag; and fixed checkpoints with save and restart costs.
func TestRecordPeriodsChangesOnlyTheLog(t *testing.T) {
	c := quant.Tick(10)
	ag, err := sched.NewAdaptiveGuideline(c)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := sched.NewAdaptiveEqualized(c)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := sched.NewOptimalP1(c)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := sched.NonAdaptiveFromPeriods(model.TickSchedule{400, 400, 200}, 2, c)
	if err != nil {
		t.Fatal(err)
	}
	interrupters := []func(seed int64, U quant.Tick, P int) Interrupter{
		func(seed int64, U quant.Tick, P int) Interrupter {
			return &adversary.Poisson{Rng: rand.New(rand.NewSource(seed)), Mean: float64(U) / float64(P+1)}
		},
		func(seed int64, U quant.Tick, P int) Interrupter {
			return &adversary.Random{Rng: rand.New(rand.NewSource(seed)), Prob: 0.8}
		},
		func(seed int64, U quant.Tick, P int) Interrupter {
			rng := rand.New(rand.NewSource(seed))
			offsets := make([]quant.Tick, P)
			for i := range offsets {
				offsets[i] = 1 + rng.Int63n(U)
			}
			return &adversary.Scripted{Offsets: offsets}
		},
	}
	type shape struct {
		s      model.EpisodeScheduler
		adv    func() Interrupter
		opp    Opportunity
		cfg    Config
		tasks  []task.Task
		idleAt bool // an interrupt falls in trailing idle time
	}
	// TestInterruptInTrailingIdle's run: the second interrupt, at 700,
	// falls after the 600-tick tail of the first episode's kill.
	shapes := []shape{{
		s:      tail,
		adv:    func() Interrupter { return &adversary.Scripted{Offsets: []quant.Tick{100, 700}} },
		opp:    Opportunity{U: 1000, P: 2, C: c},
		tasks:  uniform(80, 5, 60, 1),
		idleAt: true,
	}}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 420; trial++ {
		opp := Opportunity{U: quant.Tick(50 + rng.Int63n(6000)), P: rng.Intn(5), C: c}
		na, err := sched.NewNonAdaptive(opp.U, opp.P, c)
		if err != nil {
			t.Fatal(err)
		}
		schedulers := []model.EpisodeScheduler{ag, eq, p1, na, sched.SinglePeriod{}, sched.EqualSplit{M: 7}, sched.FixedChunk{T: 3 * c}}
		sh := shape{s: schedulers[trial%len(schedulers)], opp: opp}
		mk, seed := interrupters[trial/len(schedulers)%len(interrupters)], rng.Int63()
		sh.adv = func() Interrupter { return mk(seed, opp.U, opp.P) }
		if rng.Intn(2) == 0 {
			sh.tasks = uniform(150, 1, 80, seed)
		}
		if rng.Intn(2) == 0 {
			sh.cfg.Checkpoint = 1 + rng.Int63n(60)
			sh.cfg.CheckpointSave = rng.Int63n(15)
			sh.cfg.CheckpointRestart = rng.Int63n(15)
		}
		shapes = append(shapes, sh)
	}
	var killed, unreached, idle int
	for i, sh := range shapes {
		run := func(record bool) (Result, []task.Task) {
			cfg := sh.cfg
			cfg.RecordPeriods = record
			var bag *task.Bag
			if sh.tasks != nil {
				bag = task.NewBag(sh.tasks)
				cfg.Bag = bag
			}
			res, err := Run(sh.s, sh.adv(), sh.opp, cfg)
			if err != nil {
				t.Fatalf("shape %d (%s, %+v): %v", i, model.NameOf(sh.s), sh.opp, err)
			}
			if bag == nil {
				return res, nil
			}
			return res, bag.Steal(bag.Remaining())
		}
		logged, loggedLeft := run(true)
		plain, plainLeft := run(false)
		if plain.Periods != nil {
			t.Fatalf("shape %d: a run without RecordPeriods logged %d periods", i, len(plain.Periods))
		}
		log := logged.Periods
		logged.Periods = nil
		if !reflect.DeepEqual(plain, logged) || !reflect.DeepEqual(plainLeft, loggedLeft) {
			t.Fatalf("shape %d (%s, %+v, %+v): without the log\n%+v, %d tasks left\nwith it\n%+v, %d tasks left",
				i, model.NameOf(sh.s), sh.opp, sh.cfg, plain, len(plainLeft), logged, len(loggedLeft))
		}
		// The log holds every episode's whole schedule, as the scheduler
		// gives it at that episode's start, and a period is unreached
		// exactly when its episode's kill came earlier.
		at, kills := 0, 0
		for e := 0; e < logged.Episodes; e++ {
			if at >= len(log) {
				t.Fatalf("shape %d: the log ends before episode %d", i, e)
			}
			ep := model.AppendEpisode(sh.s, nil, sh.opp.P-e, sh.opp.U-log[at].Start)
			dead := false
			for j, length := range ep {
				if at+j >= len(log) {
					t.Fatalf("shape %d: the log ends inside episode %d", i, e)
				}
				r := log[at+j]
				if r.Episode != e || r.Index != j || r.Length != length || (r.Outcome == Unreached) != dead {
					t.Fatalf("shape %d: episode %d period %d logged as %+v, scheduled %d ticks, after a kill: %v", i, e, j, r, length, dead)
				}
				switch r.Outcome {
				case Killed:
					dead = true
					kills++
				case Unreached:
					unreached++
				}
			}
			at += len(ep)
		}
		if at != len(log) {
			t.Fatalf("shape %d: %d log rows past the last episode's schedule", i, len(log)-at)
		}
		if sh.idleAt {
			idle = plain.Interrupts - kills
		}
		killed += kills
	}
	if killed == 0 || unreached == 0 || idle != 1 {
		t.Fatalf("the grid killed %d periods and left %d unreached, and its trailing-idle run interrupted idle time %d times, want 1", killed, unreached, idle)
	}
}

// Conservation: every tick of lifespan is banked as work, spent on setup,
// destroyed by a kill, or idled away.
func TestLifespanConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := quant.Tick(10)
	ag, err := sched.NewAdaptiveGuideline(c)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := sched.NewAdaptiveEqualized(c)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		U := quant.Tick(100 + rng.Int63n(20000))
		P := rng.Intn(4)
		na, err := sched.NewNonAdaptive(U, P, c)
		if err != nil {
			t.Fatal(err)
		}
		schedulers := []model.EpisodeScheduler{ag, eq, na, sched.SinglePeriod{}, sched.EqualSplit{M: 7}}
		s := schedulers[rng.Intn(len(schedulers))]
		adv := &adversary.Random{Rng: rng, Prob: 0.7}
		res, err := Run(s, adv, Opportunity{U: U, P: P, C: c}, Config{})
		if err != nil {
			t.Fatalf("trial %d (%s U=%d P=%d): %v", trial, model.NameOf(s), U, P, err)
		}
		total := res.Work + res.SetupTicks + res.KilledTicks + res.IdleTicks
		if total != U {
			t.Fatalf("trial %d (%s U=%d P=%d): conservation broken: %d+%d+%d+%d = %d ≠ %d",
				trial, model.NameOf(s), U, P, res.Work, res.SetupTicks, res.KilledTicks, res.IdleTicks, total, U)
		}
		if res.Interrupts > P {
			t.Fatalf("trial %d: %d interrupts exceed budget %d", trial, res.Interrupts, P)
		}
	}
}

// Replaying the minimax best response through the simulator reproduces the
// evaluator's guaranteed work exactly — the evaluators and the simulator
// agree on the model.
func TestBestResponseReplayMatchesEvaluator(t *testing.T) {
	c := quant.Tick(10)
	U := quant.Tick(5000)
	for _, P := range []int{0, 1, 2, 3} {
		ag, err := sched.NewAdaptiveGuideline(c)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := sched.NewAdaptiveEqualized(c)
		if err != nil {
			t.Fatal(err)
		}
		na, err := sched.NewNonAdaptive(U, P, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []model.EpisodeScheduler{ag, eq, na} {
			want, br, err := game.EvaluateWithStrategy(s, P, U, c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(s, br, Opportunity{U: U, P: P, C: c}, Config{})
			if err != nil {
				t.Fatalf("%s: %v", model.NameOf(s), err)
			}
			if got := res.Work; got != want {
				t.Errorf("P=%d %s: replay %d ≠ evaluator %d", P, model.NameOf(s), got, want)
			}
		}
	}
}

// Against any adversary, realized work is at least the guaranteed work.
func TestRealizedAtLeastGuaranteed(t *testing.T) {
	c := quant.Tick(10)
	U := quant.Tick(3000)
	P := 2
	eq, err := sched.NewAdaptiveEqualized(c)
	if err != nil {
		t.Fatal(err)
	}
	guaranteed, err := game.Evaluate(eq, P, U, c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	advs := []Interrupter{
		adversary.None{},
		adversary.LastPeriod{},
		adversary.GreedyEqualization{C: c},
		&adversary.Random{Rng: rng, Prob: 0.9},
		&adversary.Poisson{Rng: rng, Mean: 500},
		adversary.Periodic{U: U, Every: 700},
	}
	for _, adv := range advs {
		for trial := 0; trial < 20; trial++ {
			res, err := Run(eq, adv, Opportunity{U: U, P: P, C: c}, Config{})
			if err != nil {
				t.Fatalf("%T: %v", adv, err)
			}
			if res.Work < guaranteed {
				t.Errorf("%T: realized %d < guaranteed %d", adv, res.Work, guaranteed)
			}
		}
	}
}

func TestRunWithTaskBag(t *testing.T) {
	c := quant.Tick(10)
	bag := task.NewBag(task.Fixed(100, 25))
	eq, err := sched.NewAdaptiveEqualized(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(eq, adversary.None{}, Opportunity{U: 2000, P: 1, C: c}, Config{Bag: bag})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted == 0 {
		t.Fatal("no tasks completed")
	}
	if res.TaskWork != quant.Tick(res.TasksCompleted)*25 {
		t.Errorf("TaskWork = %d for %d tasks of 25", res.TaskWork, res.TasksCompleted)
	}
	// Task work can never exceed fluid work (packing loses, never gains).
	if res.TaskWork > res.Work {
		t.Errorf("TaskWork %d > fluid Work %d", res.TaskWork, res.Work)
	}
	if bag.Remaining()+res.TasksCompleted != 100 {
		t.Errorf("tasks leaked: %d remaining + %d done ≠ 100", bag.Remaining(), res.TasksCompleted)
	}
}

func TestKilledPeriodReturnsTasks(t *testing.T) {
	c := quant.Tick(10)
	bag := task.NewBag(task.Fixed(50, 20))
	na, err := sched.NonAdaptiveFromPeriods(model.TickSchedule{500, 500}, 1, c)
	if err != nil {
		t.Fatal(err)
	}
	adv := &adversary.Scripted{Offsets: []quant.Tick{500}} // kill period 1 at last instant
	res, err := Run(na, adv, Opportunity{U: 1000, P: 1, C: c}, Config{Bag: bag})
	if err != nil {
		t.Fatal(err)
	}
	// Period 1's tasks died with it; period 2 and the long tail bank tasks.
	if bag.Remaining()+res.TasksCompleted != 50 {
		t.Errorf("tasks leaked after a kill: %d + %d ≠ 50", bag.Remaining(), res.TasksCompleted)
	}
	if res.TasksCompleted == 0 {
		t.Error("no tasks completed in surviving periods")
	}
}

func TestRunContractViolations(t *testing.T) {
	over := model.EpisodeFunc(func(p int, L quant.Tick) model.TickSchedule {
		return model.TickSchedule{L + 1}
	})
	if _, err := Run(over, adversary.None{}, Opportunity{U: 100, P: 0, C: 10}, Config{}); err == nil {
		t.Error("overcommitting scheduler accepted")
	}
	zero := model.EpisodeFunc(func(p int, L quant.Tick) model.TickSchedule {
		return model.TickSchedule{0}
	})
	if _, err := Run(zero, adversary.None{}, Opportunity{U: 100, P: 0, C: 10}, Config{}); err == nil {
		t.Error("zero-length period accepted")
	}
	// Interrupter fires with no budget.
	eager := interrupterFunc(func(p int, L quant.Tick, ep model.TickSchedule) (quant.Tick, bool) {
		return 1, true
	})
	if _, err := Run(sched.SinglePeriod{}, eager, Opportunity{U: 100, P: 0, C: 10}, Config{}); err == nil {
		t.Error("budgetless interrupt accepted")
	}
	// Interrupter fires beyond the residual lifespan.
	far := interrupterFunc(func(p int, L quant.Tick, ep model.TickSchedule) (quant.Tick, bool) {
		return L + 1, true
	})
	if _, err := Run(sched.SinglePeriod{}, far, Opportunity{U: 100, P: 1, C: 10}, Config{}); err == nil {
		t.Error("beyond-lifespan interrupt accepted")
	}
	if _, err := Run(sched.SinglePeriod{}, adversary.None{}, Opportunity{U: 0, P: 0, C: 1}, Config{}); err == nil {
		t.Error("invalid opportunity accepted")
	}
}

type interrupterFunc func(p int, L quant.Tick, ep model.TickSchedule) (quant.Tick, bool)

func (f interrupterFunc) NextInterrupt(p int, L quant.Tick, ep model.TickSchedule) (quant.Tick, bool) {
	return f(p, L, ep)
}

func TestInterruptInTrailingIdle(t *testing.T) {
	// Non-adaptive tail undershoots after a mid-period interrupt; a second
	// interrupt into the idle gap must kill nothing.
	na, err := sched.NonAdaptiveFromPeriods(model.TickSchedule{400, 400, 200}, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	// First interrupt mid-period-1 at 100: tail = periods 2,3 (600 ticks),
	// residual 900 → 300 ticks of trailing idle. Second interrupt at 700
	// falls into... 600 < 700 ≤ 900: trailing idle.
	adv := &adversary.Scripted{Offsets: []quant.Tick{100, 700}}
	res, err := Run(na, adv, Opportunity{U: 1000, P: 2, C: 10}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Periods 2 (390) and 3 (190) complete; after the idle interrupt,
	// residual 200 is rescheduled as one long period (p exhausted): 190.
	if res.Work != 770 {
		t.Errorf("Work = %d, want 770", res.Work)
	}
	if res.KilledTicks != 100 {
		t.Errorf("KilledTicks = %d, want 100", res.KilledTicks)
	}
	if res.IdleTicks != 100 {
		t.Errorf("IdleTicks = %d, want 100 (idle before the second interrupt)", res.IdleTicks)
	}
}

func TestPeriodOutcomeString(t *testing.T) {
	for _, o := range []PeriodOutcome{Completed, Killed, Unreached, PeriodOutcome(42)} {
		if o.String() == "" {
			t.Errorf("empty String for %d", int(o))
		}
	}
}

func TestRunEmptyEpisodeIdlesOut(t *testing.T) {
	empty := model.EpisodeFunc(func(p int, L quant.Tick) model.TickSchedule { return nil })
	res, err := Run(empty, adversary.None{}, Opportunity{U: 500, P: 1, C: 10}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.IdleTicks != 500 || res.Work != 0 {
		t.Errorf("idle=%d work=%d, want 500/0", res.IdleTicks, res.Work)
	}
}

// auditSource records every ship (TakeInto) and Return so tests can pin the
// single-shot shipping contract: each killed period returns exactly the
// slice it shipped at period start, never a rescan's worth.
type auditSource struct {
	bag     *task.Bag
	ships   [][]task.Task
	returns [][]task.Task
}

func (a *auditSource) Take(capacity quant.Tick) []task.Task {
	return a.TakeInto(nil, capacity)
}

func (a *auditSource) TakeInto(dst []task.Task, capacity quant.Tick) []task.Task {
	base := len(dst)
	dst = a.bag.TakeInto(dst, capacity)
	a.ships = append(a.ships, append([]task.Task(nil), dst[base:]...))
	return dst
}

func (a *auditSource) Return(tasks []task.Task) {
	a.returns = append(a.returns, append([]task.Task(nil), tasks...))
	a.bag.Return(tasks)
}

// Single-shot shipping: every period ships exactly once (at period start),
// and a killed period's Return carries exactly the tasks that ship handed
// it — the draconian-kill semantics are structural now, not a property of
// scan timing.
func TestSingleShotShippingReturnsExactlyShippedTasks(t *testing.T) {
	c := quant.Tick(10)
	src := &auditSource{bag: task.NewBag(task.Fixed(50, 20))}
	na, err := sched.NonAdaptiveFromPeriods(model.TickSchedule{300, 300, 400}, 1, c)
	if err != nil {
		t.Fatal(err)
	}
	// Kill period 2 mid-flight; period 1 completes, period 3 is unreached,
	// then the residual reschedules as one long period.
	adv := &adversary.Scripted{Offsets: []quant.Tick{450}}
	res, err := Run(na, adv, Opportunity{U: 1000, P: 1, C: c}, Config{Bag: src})
	if err != nil {
		t.Fatal(err)
	}
	// Ships: period 1, period 2 (killed), long tail. Unreached period 3 must
	// not ship.
	if len(src.ships) != 3 {
		t.Fatalf("ships = %d, want 3 (unreached periods must not ship)", len(src.ships))
	}
	if len(src.returns) != 1 {
		t.Fatalf("returns = %d, want 1 (only the killed period)", len(src.returns))
	}
	killedShip := src.ships[1]
	returned := src.returns[0]
	if len(killedShip) != len(returned) {
		t.Fatalf("killed period shipped %d tasks but returned %d", len(killedShip), len(returned))
	}
	for i := range killedShip {
		if killedShip[i].ID != returned[i].ID {
			t.Fatalf("returned task %d has ID %d, shipped ID %d", i, returned[i].ID, killedShip[i].ID)
		}
	}
	if src.bag.Remaining()+res.TasksCompleted != 50 {
		t.Errorf("tasks leaked: %d remaining + %d done ≠ 50", src.bag.Remaining(), res.TasksCompleted)
	}
}

// Reusing one Buffers across opportunities must not change any result — the
// per-station scratch the farm engine threads through is invisible.
func TestRunBuffersReuseBitIdentical(t *testing.T) {
	c := quant.Tick(10)
	eq, err := sched.NewAdaptiveEqualized(c)
	if err != nil {
		t.Fatal(err)
	}
	shared := &Buffers{}
	rngA := rand.New(rand.NewSource(42))
	rngB := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		U := quant.Tick(100 + rngA.Int63n(5000))
		_ = rngB.Int63n(5000) // keep streams aligned
		advA := &adversary.Random{Rng: rngA, Prob: 0.7}
		advB := &adversary.Random{Rng: rngB, Prob: 0.7}
		bagA := task.NewBag(uniform(60, 5, 40, int64(trial)))
		bagB := task.NewBag(uniform(60, 5, 40, int64(trial)))
		resA, errA := Run(eq, advA, Opportunity{U: U, P: 2, C: c}, Config{Bag: bagA, Buffers: shared})
		resB, errB := Run(eq, advB, Opportunity{U: U, P: 2, C: c}, Config{Bag: bagB})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: error mismatch %v vs %v", trial, errA, errB)
		}
		if fmt.Sprintf("%+v", resA) != fmt.Sprintf("%+v", resB) {
			t.Fatalf("trial %d: shared-buffers result diverged:\n%+v\nvs\n%+v", trial, resA, resB)
		}
		if bagA.Remaining() != bagB.Remaining() {
			t.Fatalf("trial %d: bag state diverged: %d vs %d", trial, bagA.Remaining(), bagB.Remaining())
		}
	}
}

// The hot path must be allocation-free once warm: warm Buffers, a scheduler
// with an append path, no audit log.
func TestRunZeroAllocWhenWarm(t *testing.T) {
	c := quant.Tick(10)
	eq, err := sched.NewAdaptiveEqualized(c)
	if err != nil {
		t.Fatal(err)
	}
	bufs := &Buffers{}
	opp := Opportunity{U: 4000, P: 2, C: c}
	if _, err := Run(eq, adversary.None{}, opp, Config{Buffers: bufs}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Run(eq, adversary.None{}, opp, Config{Buffers: bufs}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Run allocates %.1f per opportunity", allocs)
	}
}

func TestCheckpointPlanMath(t *testing.T) {
	cases := []struct {
		t, c, k         quant.Tick
		saves, capacity quant.Tick
	}{
		{100, 10, 0, 0, 90},  // checkpointing off: capacity is exactly t ⊖ c
		{100, 10, 20, 2, 70}, // saves at work-offsets 30, 60; 89/30 = 2
		{40, 10, 20, 0, 30},  // w=30 = k+c exactly: the save would land at the period end; dropped
		{41, 10, 20, 1, 21},  // w=31: one interior save
		{10, 10, 5, 0, 0},    // period ≤ c: no work, no saves
		{12, 10, 1, 0, 2},    // w=2, k+c=11: save would overrun the period
	}
	for _, tc := range cases {
		// Save cost = setup cost: the pre-split pricing.
		saves, capacity := checkpointPlan(tc.t, tc.c, tc.k, tc.c)
		if saves != tc.saves || capacity != tc.capacity {
			t.Errorf("checkpointPlan(%d,%d,%d) = (%d,%d), want (%d,%d)",
				tc.t, tc.c, tc.k, saves, capacity, tc.saves, tc.capacity)
		}
	}
	// A save is banked only strictly after its last tick.
	if q := checkpointSaved(40, 10, 20, 10); q != 0 {
		t.Errorf("kill at e=40 (save ends at 40) saved %d, want 0", q)
	}
	if q := checkpointSaved(41, 10, 20, 10); q != 1 {
		t.Errorf("kill at e=41 saved %d, want 1", q)
	}
	if q := checkpointSaved(75, 10, 20, 10); q != 2 {
		t.Errorf("kill at e=75 saved %d, want 2", q)
	}
	if q := checkpointSaved(10, 10, 20, 10); q != 0 {
		t.Errorf("kill inside the setup saved %d, want 0", q)
	}
}

func TestCheckpointSplitCostsMath(t *testing.T) {
	// A cheap save cost packs more saves into the same period: t=100, c=10,
	// k=20, s=2 → w=90, saves = 89/22 = 4, capacity = 90 − 8 = 82.
	if saves, capacity := checkpointPlan(100, 10, 20, 2); saves != 4 || capacity != 82 {
		t.Errorf("cheap-save plan = (%d,%d), want (4,82)", saves, capacity)
	}
	// checkpointSaved strides by k+s, not k+c: kill at e=33 is strictly past
	// c + (k+s) = 32, banking one save.
	if q := checkpointSaved(33, 10, 20, 2); q != 1 {
		t.Errorf("kill at e=33 with s=2 saved %d, want 1", q)
	}
	if q := checkpointSaved(32, 10, 20, 2); q != 0 {
		t.Errorf("kill at e=32 with s=2 saved %d, want 0", q)
	}
}

// TestCheckpointZeroCostsPinPreSplit pins the split-cost zero values to the
// pre-split behavior: CheckpointSave=0 prices saves at c, CheckpointRestart=0
// makes restarts free, so a Config that never names them runs bit-identically.
func TestCheckpointZeroCostsPinPreSplit(t *testing.T) {
	na, err := sched.NonAdaptiveFromPeriods(model.TickSchedule{100, 100}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	opp := Opportunity{U: 200, P: 1, C: 10}
	adv := adversary.Scripted{Offsets: []quant.Tick{75}}
	base, err := Run(na, &adv, opp, Config{Checkpoint: 20, RecordPeriods: true})
	if err != nil {
		t.Fatal(err)
	}
	adv2 := adversary.Scripted{Offsets: []quant.Tick{75}}
	explicit, err := Run(na, &adv2, opp, Config{Checkpoint: 20, CheckpointSave: 10, RecordPeriods: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, explicit) {
		t.Errorf("explicit save cost = setup cost diverged from the zero value:\n%+v\n%+v", base, explicit)
	}
}

// TestCheckpointRestartCharged verifies the restart surcharge: after a kill
// banks saves, the next reached period's setup segment grows by the restart
// cost, shrinking its capacity and growing SetupTicks by exactly that cost.
func TestCheckpointRestartCharged(t *testing.T) {
	na, err := sched.NonAdaptiveFromPeriods(model.TickSchedule{100, 100}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	opp := Opportunity{U: 200, P: 1, C: 10}
	run := func(restart quant.Tick) Result {
		adv := adversary.Scripted{Offsets: []quant.Tick{75}}
		res, err := Run(na, &adv, opp, Config{Checkpoint: 20, CheckpointRestart: restart, RecordPeriods: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free, priced := run(0), run(6)
	// Kill at e=75 in period 1 banks 2 saves (40 fluid ticks) either way.
	if free.Periods[0].Work != 40 || priced.Periods[0].Work != 40 {
		t.Fatalf("killed period banked %d/%d, want 40/40", free.Periods[0].Work, priced.Periods[0].Work)
	}
	// The episode-2 period (after the unreached row) resumes the saves: its
	// setup is 10+6, so capacity drops by 6.
	if got, want := priced.Periods[2].Work, free.Periods[2].Work-6; got != want {
		t.Errorf("restarted period banked %d, want %d", got, want)
	}
	if got, want := priced.SetupTicks, free.SetupTicks+6; got != want {
		t.Errorf("SetupTicks = %d, want %d", got, want)
	}
	if got, want := priced.Work, free.Work-6; got != want {
		t.Errorf("Work = %d, want %d", got, want)
	}
}

func TestCheckpointCompletedPeriodPaysSaves(t *testing.T) {
	na, err := sched.NonAdaptiveFromPeriods(model.TickSchedule{100}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(na, adversary.None{}, Opportunity{U: 100, P: 0, C: 10}, Config{Checkpoint: 20})
	if err != nil {
		t.Fatal(err)
	}
	// w = 90, two interior saves at work-offsets 30 and 60: capacity 70.
	if res.Work != 70 {
		t.Errorf("Work = %d, want 70", res.Work)
	}
	if res.SetupTicks != 30 {
		t.Errorf("SetupTicks = %d, want 30 (setup + 2 saves)", res.SetupTicks)
	}
	if res.KilledTicks != 0 || res.IdleTicks != 0 {
		t.Errorf("killed=%d idle=%d, want 0/0", res.KilledTicks, res.IdleTicks)
	}
}

func TestCheckpointKillSavesPrefix(t *testing.T) {
	na, err := sched.NonAdaptiveFromPeriods(model.TickSchedule{100}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	adv := &adversary.Scripted{Offsets: []quant.Tick{75}}
	res, err := Run(na, adv, Opportunity{U: 100, P: 1, C: 10}, Config{Checkpoint: 20, RecordPeriods: true})
	if err != nil {
		t.Fatal(err)
	}
	// Kill at e=75: both saves (work-offsets 30, 60 → elapsed 40, 70) banked.
	// The killed period banks 2·20 = 40 with setup 10 + 2 saves = 30
	// productive and only 5 ticks dead; the residual 25 reschedules as one
	// period (w=15, too short for a save): +15 work, +10 setup.
	if res.Work != 55 {
		t.Errorf("Work = %d, want 55", res.Work)
	}
	if res.SetupTicks != 40 {
		t.Errorf("SetupTicks = %d, want 40", res.SetupTicks)
	}
	if res.KilledTicks != 5 {
		t.Errorf("KilledTicks = %d, want 5", res.KilledTicks)
	}
	if res.IdleTicks != 0 {
		t.Errorf("IdleTicks = %d, want 0", res.IdleTicks)
	}
	// Lifespan conservation: every tick is setup, banked, killed or idle.
	if got := res.Work + res.SetupTicks + res.KilledTicks + res.IdleTicks; got != 100 {
		t.Errorf("accounted lifespan = %d, want 100", got)
	}
	if res.Periods[0].Outcome != Killed || res.Periods[0].Work != 40 {
		t.Errorf("period record = %+v, want Killed with Work 40", res.Periods[0])
	}
}

func TestCheckpointKillBanksTaskPrefix(t *testing.T) {
	na, err := sched.NonAdaptiveFromPeriods(model.TickSchedule{100}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	bag := task.NewBag([]task.Task{
		{ID: 0, Duration: 15}, {ID: 1, Duration: 20}, {ID: 2, Duration: 30}, {ID: 3, Duration: 40},
	})
	adv := &adversary.Scripted{Offsets: []quant.Tick{41}}
	res, err := Run(na, adv, Opportunity{U: 100, P: 1, C: 10}, Config{Checkpoint: 20, Bag: bag})
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 70 ships tasks 0,1,2 (first-fit: 15+20+30). Kill at e=41 banks
	// one save (20 work ticks): only task 0 completed inside it; tasks 1,2
	// return to the bag's front ahead of task 3 (+20 work, +20 setup, 1 tick
	// dead). The residual 59 reschedules as one period with its own interior
	// save (capacity 39), which ships and completes task 1 (first-fit: 30
	// and 40 no longer fit behind it).
	if res.Work != 20+39 || res.TasksCompleted != 2 || res.TaskWork != 35 {
		t.Errorf("Work=%d TasksCompleted=%d TaskWork=%d, want 59/2/35", res.Work, res.TasksCompleted, res.TaskWork)
	}
	if res.KilledTicks != 1 {
		t.Errorf("KilledTicks = %d, want 1", res.KilledTicks)
	}
	if res.SetupTicks != 40 {
		t.Errorf("SetupTicks = %d, want 40", res.SetupTicks)
	}
	if bag.Remaining() != 2 || bag.RemainingWork() != 70 {
		t.Errorf("bag after run: %d tasks, %d work; want 2/70", bag.Remaining(), bag.RemainingWork())
	}
}

func TestCheckpointHugeIntervalIsDraconian(t *testing.T) {
	// An interval no period can reach places no saves: results must be
	// bit-identical to the pure draconian contract.
	na, err := sched.NonAdaptiveFromPeriods(model.TickSchedule{500, 500}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ck quant.Tick) Result {
		bag := task.NewBag(task.Fixed(50, 25))
		adv := &adversary.Scripted{Offsets: []quant.Tick{700}}
		res, err := Run(na, adv, Opportunity{U: 1000, P: 1, C: 10}, Config{Checkpoint: ck, Bag: bag, RecordPeriods: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, huge := run(0), run(1<<40)
	if !reflect.DeepEqual(base, huge) {
		t.Errorf("huge checkpoint interval diverged from draconian baseline:\n%+v\n%+v", base, huge)
	}
}
