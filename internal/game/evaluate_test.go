package game

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/theory"
)

func TestEvaluateValidation(t *testing.T) {
	if _, err := Evaluate(sched.SinglePeriod{}, -1, 100, 10); err == nil {
		t.Error("P<0 accepted")
	}
	if _, err := Evaluate(sched.SinglePeriod{}, 1, 100, 0); err == nil {
		t.Error("c=0 accepted")
	}
}

// A single long period is worth U−c with no interrupts and exactly 0 against
// one malicious interrupt (killed at the last instant).
func TestEvaluateSinglePeriod(t *testing.T) {
	w, err := Evaluate(sched.SinglePeriod{}, 0, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if w != 990 {
		t.Errorf("p=0 single period = %d, want 990", w)
	}
	w, err = Evaluate(sched.SinglePeriod{}, 1, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0 {
		t.Errorf("p=1 single period = %d, want 0", w)
	}
}

// Hand-computable case: two equal periods, p=1, the adversary kills the
// larger... they're equal, so killing either costs U/2; then the survivor is
// rescheduled as one long period of U/2, worth U/2 − c.
func TestEvaluateEqualSplitHandCase(t *testing.T) {
	// U=1000, c=10, periods [500, 500]. Interrupt at end of period 1:
	// banked 0, residual 500, rescheduled single period → 490.
	// Interrupt at end of period 2: banked 490, residual 0 → 490.
	// No interrupt: 980. Worst case 490.
	na, err := sched.NonAdaptiveFromPeriods(model.TickSchedule{500, 500}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Evaluate(na, 1, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if w != 490 {
		t.Errorf("worst case = %d, want 490", w)
	}
}

func TestEvaluateOvercommittingSchedulerErrors(t *testing.T) {
	bad := model.EpisodeFunc(func(p int, L quant.Tick) model.TickSchedule {
		return model.TickSchedule{L + 1}
	})
	if _, err := Evaluate(bad, 1, 100, 10); err == nil {
		t.Error("overcommitting scheduler accepted")
	}
	zero := model.EpisodeFunc(func(p int, L quant.Tick) model.TickSchedule {
		return model.TickSchedule{0, L}
	})
	if _, err := Evaluate(zero, 1, 100, 10); err == nil {
		t.Error("zero-length period accepted")
	}
}

// A scheduler that breaks its contract only at residuals L ≤ c, which are
// worth 0, still fails every evaluator, as the simulator refuses to play
// it: with no interrupt budget at a lifespan of one setup, and at a leaf
// that only an interrupt reaches, with a setup of 2 ticks and of 600.
func TestEvaluateChecksLeaves(t *testing.T) {
	// leafBad returns {L, 1} at every L ≤ c, which overcommits; from a
	// longer lifespan its episode {L−r, r} is sound, and an interrupt at
	// the end of the first period leaves the residual r.
	leafBad := func(c, r quant.Tick) model.EpisodeScheduler {
		return model.EpisodeFunc(func(p int, L quant.Tick) model.TickSchedule {
			if L <= c {
				return model.TickSchedule{L, 1}
			}
			return model.TickSchedule{L - r, r}
		})
	}
	firstPeriodEnd := interruptAt(func(ep model.TickSchedule) quant.Tick { return ep[0] })
	for _, tc := range []struct {
		P       int
		U, c, r quant.Tick
		at      sim.Interrupter // reaches the bad leaf in the simulator
	}{
		{P: 0, U: 1, c: 1, r: 1, at: interruptAt(nil)},
		{P: 1, U: 10, c: 2, r: 1, at: firstPeriodEnd},
		{P: 1, U: 1500, c: 600, r: 550, at: firstPeriodEnd},
	} {
		name := fmt.Sprintf("P=%d U=%d c=%d r=%d", tc.P, tc.U, tc.c, tc.r)
		sch := leafBad(tc.c, tc.r)
		if w, err := Evaluate(sch, tc.P, tc.U, tc.c); err == nil || !strings.Contains(err.Error(), "overcommitted") {
			t.Errorf("%s: Evaluate = %d, %v; want an overcommit error", name, w, err)
		}
		if w, _, err := EvaluateWithStrategy(sch, tc.P, tc.U, tc.c); err == nil || !strings.Contains(err.Error(), "overcommitted") {
			t.Errorf("%s: EvaluateWithStrategy = %d, %v; want an overcommit error", name, w, err)
		}
		if w, err := EvaluateExhaustive(sch, tc.P, tc.U, tc.c); err == nil || !strings.Contains(err.Error(), "overcommitted") {
			t.Errorf("%s: EvaluateExhaustive = %d, %v; want an overcommit error", name, w, err)
		}
		if _, _, err := refEvaluate(sch, tc.P, tc.U, tc.c, false); err == nil {
			t.Errorf("%s: the reference evaluator accepts the scheduler", name)
		}
		if _, err := sim.Run(sch, tc.at, sim.Opportunity{U: tc.U, P: tc.P, C: tc.c}, sim.Config{}); err == nil || !strings.Contains(err.Error(), "overcommitted") {
			t.Errorf("%s: sim.Run error %v, want an overcommit error", name, err)
		}
		// With a budget, the bad leaf is reached only through an
		// interrupt: played out, the opportunity keeps the contract.
		if _, err := sim.Run(sch, interruptAt(nil), sim.Opportunity{U: tc.U, P: tc.P, C: tc.c}, sim.Config{}); tc.P > 0 && err != nil {
			t.Errorf("%s: uninterrupted play: %v", name, err)
		}
	}
}

// interruptAt is an interrupter that kills each episode at the offset
// at(ep), or never when at is nil.
type interruptAt func(ep model.TickSchedule) quant.Tick

func (f interruptAt) NextInterrupt(p int, L quant.Tick, ep model.TickSchedule) (quant.Tick, bool) {
	if f == nil || p == 0 {
		return 0, false
	}
	return f(ep), true
}

// No scheduler can beat the game value (optimality of the DP).
func TestNoSchedulerBeatsGameValue(t *testing.T) {
	c := quant.Tick(10)
	U := quant.Tick(2000)
	for _, P := range []int{1, 2, 3} {
		s, err := Solve(P, U, c)
		if err != nil {
			t.Fatal(err)
		}
		na, err := sched.NewNonAdaptive(U, P, c)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := sched.NewAdaptiveGuideline(c)
		if err != nil {
			t.Fatal(err)
		}
		op1, err := sched.NewOptimalP1(c)
		if err != nil {
			t.Fatal(err)
		}
		schedulers := []model.EpisodeScheduler{
			na, ag, op1,
			sched.SinglePeriod{},
			sched.EqualSplit{M: 10},
			sched.FixedChunk{T: 150},
		}
		for _, sc := range schedulers {
			w, err := Evaluate(sc, P, U, c)
			if err != nil {
				t.Fatalf("%s: %v", model.NameOf(sc), err)
			}
			if v := s.Value(P, U); w > v {
				t.Errorf("P=%d: %s guarantees %d > game value %d", P, model.NameOf(sc), w, v)
			}
		}
	}
}

// The generic minimax evaluator on the tail-semantics wrapper must agree
// exactly with the direct non-adaptive kill-set DP.
func TestNonAdaptiveEvaluatorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		c := quant.Tick(1 + rng.Intn(15))
		m := 1 + rng.Intn(10)
		periods := make(model.TickSchedule, m)
		for i := range periods {
			periods[i] = quant.Tick(1 + rng.Intn(60))
		}
		P := rng.Intn(4)
		na, err := sched.NonAdaptiveFromPeriods(periods, P, c)
		if err != nil {
			t.Fatal(err)
		}
		generic, err := Evaluate(na, P, periods.Total(), c)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := EvaluateNonAdaptive(periods, P, c)
		if err != nil {
			t.Fatal(err)
		}
		if generic != direct {
			t.Fatalf("trial %d (c=%d P=%d periods=%v): generic %d ≠ direct %d",
				trial, c, P, periods, generic, direct)
		}
	}
}

// Brute force over every interrupt subset, for small schedules, as a third
// independent implementation of the non-adaptive worst case.
func bruteForceNonAdaptive(periods model.TickSchedule, P int, c quant.Tick) quant.Tick {
	m := len(periods)
	U := periods.Total()
	prefix := periods.PrefixSums()
	gains := make([]quant.Tick, m)
	var full quant.Tick
	for i, tk := range periods {
		gains[i] = quant.PosSub(tk, c)
		full += gains[i]
	}
	best := full
	// Enumerate subsets by bitmask (m ≤ ~14).
	for mask := 1; mask < 1<<m; mask++ {
		a := 0
		last := -1
		var killed quant.Tick
		for i := 0; i < m; i++ {
			if mask>>i&1 == 1 {
				a++
				last = i
				killed += gains[i]
			}
		}
		if a > P {
			continue
		}
		var w quant.Tick
		if a < P {
			w = full - killed
		} else {
			// Work before the last interrupt, minus earlier kills, plus the
			// long replacement period.
			var before quant.Tick
			for i := 0; i < last; i++ {
				if mask>>i&1 == 0 {
					before += gains[i]
				}
			}
			w = before + quant.PosSub(U-prefix[last+1], c)
		}
		if w < best {
			best = w
		}
	}
	return best
}

func TestEvaluateNonAdaptiveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 400; trial++ {
		c := quant.Tick(1 + rng.Intn(10))
		m := 1 + rng.Intn(9)
		periods := make(model.TickSchedule, m)
		for i := range periods {
			periods[i] = quant.Tick(1 + rng.Intn(40))
		}
		P := rng.Intn(4)
		got, err := EvaluateNonAdaptive(periods, P, c)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceNonAdaptive(periods, P, c)
		if got != want {
			t.Fatalf("trial %d (c=%d P=%d periods=%v): got %d, brute force %d",
				trial, c, P, periods, got, want)
		}
	}
}

func TestEvaluateNonAdaptiveValidation(t *testing.T) {
	if _, err := EvaluateNonAdaptive(nil, 1, 10); err == nil {
		t.Error("empty periods accepted")
	}
	if _, err := EvaluateNonAdaptive(model.TickSchedule{5}, -1, 10); err == nil {
		t.Error("P<0 accepted")
	}
	if _, err := EvaluateNonAdaptive(model.TickSchedule{0}, 1, 10); err == nil {
		t.Error("zero period accepted")
	}
}

// §3.1 analysis: the guideline's guaranteed output equals (m−p)(t−c) up to
// the tick-remainder spread, and the worst case really is killing the last p
// periods.
func TestNonAdaptiveGuidelineWorstCase(t *testing.T) {
	c := quant.Tick(100)
	for _, tc := range []struct {
		U quant.Tick
		p int
	}{
		{100000, 1}, {100000, 2}, {100000, 4}, {250000, 3},
	} {
		na, err := sched.NewNonAdaptive(tc.U, tc.p, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateNonAdaptive(na.Periods(), tc.p, c)
		if err != nil {
			t.Fatal(err)
		}
		want := theory.NonAdaptiveWorkExact(float64(tc.U), tc.p, float64(c))
		slack := float64(na.M()) // remainder spread: ≤ 1 tick per period
		if d := float64(got) - want; d > slack || d < -slack {
			t.Errorf("U=%d p=%d: worst case %d vs closed form %g (slack %g)", tc.U, tc.p, got, want, slack)
		}
	}
}

// Observation (a): allowing the adversary to interrupt at every tick (not
// just last instants) changes nothing against the paper's schedulers.
func TestExhaustiveMatchesBoundaryAdversary(t *testing.T) {
	c := quant.Tick(5)
	U := quant.Tick(300)
	for _, P := range []int{1, 2} {
		na, err := sched.NewNonAdaptive(U, P, c)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := sched.NewAdaptiveGuideline(c)
		if err != nil {
			t.Fatal(err)
		}
		op1, err := sched.NewOptimalP1(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []model.EpisodeScheduler{na, ag, op1} {
			boundary, err := Evaluate(sc, P, U, c)
			if err != nil {
				t.Fatalf("%s: %v", model.NameOf(sc), err)
			}
			exhaustive, err := EvaluateExhaustive(sc, P, U, c)
			if err != nil {
				t.Fatalf("%s: %v", model.NameOf(sc), err)
			}
			if boundary != exhaustive {
				t.Errorf("P=%d %s: boundary adversary %d ≠ exhaustive adversary %d",
					P, model.NameOf(sc), boundary, exhaustive)
			}
		}
	}
}

// The exhaustive adversary can never do worse (from its own perspective) than
// the boundary adversary: its option set is a superset.
func TestExhaustiveNeverAboveBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		c := quant.Tick(1 + rng.Intn(6))
		U := quant.Tick(40 + rng.Intn(160))
		P := 1 + rng.Intn(2)
		m := 1 + rng.Intn(5)
		sc := sched.EqualSplit{M: m}
		boundary, err := Evaluate(sc, P, U, c)
		if err != nil {
			t.Fatal(err)
		}
		exhaustive, err := EvaluateExhaustive(sc, P, U, c)
		if err != nil {
			t.Fatal(err)
		}
		if exhaustive > boundary {
			t.Fatalf("trial %d: exhaustive %d > boundary %d (c=%d U=%d P=%d m=%d)",
				trial, exhaustive, boundary, c, U, P, m)
		}
	}
}

func TestEvaluateWithStrategyRecordsChoices(t *testing.T) {
	c := quant.Tick(10)
	U := quant.Tick(1000)
	na, err := sched.NewNonAdaptive(U, 2, c)
	if err != nil {
		t.Fatal(err)
	}
	w, br, err := EvaluateWithStrategy(na, 2, U, c)
	if err != nil {
		t.Fatal(err)
	}
	if br == nil || br.States() == 0 {
		t.Fatal("no strategy recorded")
	}
	// The root state must be recorded, and against the §3.1 guideline the
	// adversary certainly interrupts (Observation (b)).
	at, ok := br.NextInterrupt(2, U, nil)
	if !ok {
		t.Fatal("adversary abstains at the root against the non-adaptive guideline")
	}
	if at < 1 || at > U {
		t.Errorf("interrupt offset %d outside episode", at)
	}
	_ = w
}

// Replaying the recorded best response through the work accounting reproduces
// the evaluated guaranteed work exactly.
func TestBestResponseReplayReproducesValue(t *testing.T) {
	c := quant.Tick(10)
	U := quant.Tick(2000)
	for _, P := range []int{1, 2, 3} {
		ag, err := sched.NewAdaptiveGuideline(c)
		if err != nil {
			t.Fatal(err)
		}
		want, br, err := EvaluateWithStrategy(ag, P, U, c)
		if err != nil {
			t.Fatal(err)
		}
		// Manual replay of the game.
		var work quant.Tick
		L := U
		p := P
		for L > 0 {
			ep := ag.Episode(p, L)
			if len(ep) == 0 {
				break
			}
			at, interrupt := br.NextInterrupt(p, L, ep)
			if !interrupt || p == 0 {
				work += ep.UninterruptedWork(c)
				break
			}
			// Bank completed periods strictly before the interrupt offset.
			var elapsed quant.Tick
			for _, tk := range ep {
				if elapsed+tk > at-1 {
					break
				}
				elapsed += tk
				work += quant.PosSub(tk, c)
			}
			L -= at
			p--
		}
		if work != want {
			t.Errorf("P=%d: replay banked %d, evaluator said %d", P, work, want)
		}
	}
}

// --- reference evaluator -------------------------------------------------------

// stateKey packs (p, L) for the reference evaluator's memo.
type stateKey struct {
	p int
	l quant.Tick
}

// refChoice is the reference evaluator's record of the adversary's
// minimizing move in one state.
type refChoice struct {
	interrupt bool
	at        quant.Tick
}

// refEpisode fetches and validates an episode as the evaluator did before it
// memoized per level: a fresh Episode call per state, checked with the
// library's error texts.
func refEpisode(sch model.EpisodeScheduler, p int, L quant.Tick) model.TickSchedule {
	ep := sch.Episode(p, L)
	var total quant.Tick
	for i, t := range ep {
		if t < 1 {
			panic(schedulerError{fmt.Errorf("game: scheduler %s emitted period %d of %d ticks at (p=%d, L=%d)", model.NameOf(sch), i+1, t, p, L)})
		}
		total += t
	}
	if total > L {
		panic(schedulerError{fmt.Errorf("game: scheduler %s overcommitted %d ticks into residual %d at p=%d", model.NameOf(sch), total, L, p)})
	}
	return ep
}

// refEvaluate is the evaluator as it stood before it memoized per level: one
// map keyed by (p, L), a fresh episode per state. It is the reference the
// differential tests hold Evaluate, EvaluateWithStrategy and
// EvaluateExhaustive (exhaustive = true) to. Like them it checks the
// episode at every reached residual 1 ≤ L ≤ c, which is worth 0; it
// fetches that episode on every visit, where they check it once.
func refEvaluate(sch model.EpisodeScheduler, P int, U, c quant.Tick, exhaustive bool) (work quant.Tick, choices map[stateKey]refChoice, err error) {
	if c < 1 || U < 0 || P < 0 {
		return 0, nil, fmt.Errorf("game: bad evaluation parameters P=%d U=%d c=%d", P, U, c)
	}
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(schedulerError)
			if !ok {
				panic(r)
			}
			work, choices, err = 0, nil, se.err
		}
	}()
	memo := make(map[stateKey]quant.Tick)
	choices = make(map[stateKey]refChoice)
	var eval func(p int, L quant.Tick) quant.Tick
	eval = func(p int, L quant.Tick) quant.Tick {
		if L <= c {
			if L >= 1 {
				refEpisode(sch, p, L) // worth 0, but the episode must keep the contract
			}
			return 0
		}
		key := stateKey{p, L}
		if v, ok := memo[key]; ok {
			return v
		}
		ep := refEpisode(sch, p, L)
		best := ep.UninterruptedWork(c)
		choice := refChoice{}
		if p > 0 {
			var banked, elapsed quant.Tick
			for _, t := range ep {
				if exhaustive {
					for tau := elapsed; tau < elapsed+t; tau++ {
						if cand := banked + eval(p-1, L-tau); cand < best {
							best = cand
						}
					}
				}
				elapsed += t
				if cand := banked + eval(p-1, L-elapsed); cand < best {
					best = cand
					choice = refChoice{interrupt: true, at: elapsed}
				}
				banked += quant.PosSub(t, c)
			}
		}
		memo[key] = best
		choices[key] = choice
		return best
	}
	return eval(P, U), choices, nil
}

// diffSchedulers returns every scheduler the differential tests cover, each
// built for (P, U, c).
func diffSchedulers(t *testing.T, P int, U, c quant.Tick) []model.EpisodeScheduler {
	t.Helper()
	eq, err := sched.NewAdaptiveEqualized(c)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := sched.NewAdaptiveGuideline(c)
	if err != nil {
		t.Fatal(err)
	}
	op1, err := sched.NewOptimalP1(c)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Solve(P, U, c)
	if err != nil {
		t.Fatal(err)
	}
	out := []model.EpisodeScheduler{
		eq, ag, op1,
		sched.SinglePeriod{},
		sched.EqualSplit{M: 5},
		sched.FixedChunk{T: max(2*c+1, U/64)},
		s.Scheduler(),
		// Overcommits only at the residual c, which is worth 0 and is
		// reached only through an interrupt, from the second period on.
		model.EpisodeFunc(func(p int, L quant.Tick) model.TickSchedule {
			switch {
			case L == c:
				return model.TickSchedule{L, 1}
			case L <= c:
				return model.TickSchedule{L}
			case L > 2*c+1:
				return model.TickSchedule{c + 1, L - 2*c - 1, c}
			}
			return model.TickSchedule{L}
		}),
		// Overcommits at lifespans in (c, 3c). From a longer lifespan it
		// opens with up to 20 periods of c+1 ticks, so an interrupt can leave
		// such a residual and the error surfaces from inside the recursion.
		model.EpisodeFunc(func(p int, L quant.Tick) model.TickSchedule {
			switch {
			case L <= c:
				return model.TickSchedule{L}
			case L < 3*c:
				return model.TickSchedule{L, 1}
			}
			var ep model.TickSchedule
			rest := L
			for len(ep) < 20 && rest > c+1 {
				ep = append(ep, c+1)
				rest -= c + 1
			}
			return append(ep, rest)
		}),
	}
	if U >= 1 {
		na, err := sched.NewNonAdaptive(U, P, c)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, na)
	}
	return out
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// The per-level evaluator must reproduce the reference map evaluator on
// every scheduler: the value, every recorded choice and the state count,
// the floor its best response replays through the simulator, and the error
// text of a scheduler that breaks its contract.
func TestEvaluateMatchesReference(t *testing.T) {
	var failed, replayed int
	for _, c := range []quant.Tick{1, 7, 50} {
		for _, U := range []quant.Tick{0, 1, c, c + 1, 2*c + 3, 97, 1000, 5000} {
			for P := 0; P <= 3; P++ {
				for _, sc := range diffSchedulers(t, P, U, c) {
					name := fmt.Sprintf("%s P=%d U=%d c=%d", model.NameOf(sc), P, U, c)
					want, ref, refErr := refEvaluate(sc, P, U, c, false)
					got, err := Evaluate(sc, P, U, c)
					if !sameErr(err, refErr) || got != want {
						t.Fatalf("%s: Evaluate = %d, %v; reference %d, %v", name, got, err, want, refErr)
					}
					got, br, err := EvaluateWithStrategy(sc, P, U, c)
					if !sameErr(err, refErr) || got != want {
						t.Fatalf("%s: EvaluateWithStrategy = %d, %v; reference %d, %v", name, got, err, want, refErr)
					}
					if err != nil {
						if br != nil {
							t.Fatalf("%s: a failed evaluation returned a strategy", name)
						}
						failed++
						continue
					}
					if br.States() != len(ref) {
						t.Fatalf("%s: strategy covers %d states, reference %d", name, br.States(), len(ref))
					}
					for key, ch := range ref {
						at, ok := br.NextInterrupt(key.p, key.l, nil)
						if ok != ch.interrupt || (ok && at != ch.at) {
							t.Fatalf("%s: state (%d, %d) plays (%d, %v), reference (%d, %v)", name, key.p, key.l, at, ok, ch.at, ch.interrupt)
						}
					}
					if U < 1 {
						continue
					}
					res, err := sim.Run(sc, br, sim.Opportunity{U: U, P: P, C: c}, sim.Config{})
					if err != nil {
						t.Fatalf("%s: replay: %v", name, err)
					}
					if res.Work != want {
						t.Fatalf("%s: replayed best response banked %d, reference value %d", name, res.Work, want)
					}
					replayed++
				}
			}
		}
	}
	if failed == 0 || replayed == 0 {
		t.Fatalf("grid ran %d failing and %d replayed evaluations; want some of each", failed, replayed)
	}
}

// EvaluateExhaustive on the per-level memo must equal the reference's
// every-tick adversary, value and error text alike.
func TestEvaluateExhaustiveMatchesReference(t *testing.T) {
	for _, c := range []quant.Tick{1, 7, 50} {
		for _, U := range []quant.Tick{0, 1, c + 1, 2*c + 3, 97, 300} {
			for P := 0; P <= 3; P++ {
				for _, sc := range diffSchedulers(t, P, U, c) {
					want, _, refErr := refEvaluate(sc, P, U, c, true)
					got, err := EvaluateExhaustive(sc, P, U, c)
					if !sameErr(err, refErr) || got != want {
						t.Fatalf("%s P=%d U=%d c=%d: EvaluateExhaustive = %d, %v; reference %d, %v",
							model.NameOf(sc), P, U, c, got, err, want, refErr)
					}
				}
			}
		}
	}
}

// A best response knows only the levels it was computed for: a state
// outside [0, P] lets the episode run out, as a state it never reached does.
func TestBestResponseOutsideLevels(t *testing.T) {
	const P, U, c = 2, 1000, 10
	ag, err := sched.NewAdaptiveGuideline(c)
	if err != nil {
		t.Fatal(err)
	}
	_, br, err := EvaluateWithStrategy(ag, P, U, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := br.NextInterrupt(P, U, nil); !ok {
		t.Fatal("the root state does not interrupt against the adaptive guideline")
	}
	for _, p := range []int{-1, P + 1} {
		if at, ok := br.NextInterrupt(p, U, nil); ok {
			t.Errorf("NextInterrupt(%d, %d) = %d, true; want false outside [0, %d]", p, U, at, P)
		}
	}
	if at, ok := br.NextInterrupt(P, U+1, nil); ok {
		t.Errorf("NextInterrupt at an unreached lifespan = %d, true; want false", at)
	}
}

// Memory follows the states the evaluation reaches, not the interrupt bound,
// which no caller caps: a last-instant interrupt uses up at least one tick
// and nothing is memoized at L ≤ c, so at most U − c levels are reached
// however large P is. Working state sized by P would take terabytes here.
func TestEvaluateHugeInterruptBound(t *testing.T) {
	const U, c = 1000, 10
	ag, err := sched.NewAdaptiveGuideline(c)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := sched.NewAdaptiveEqualized(c)
	if err != nil {
		t.Fatal(err)
	}
	op1, err := sched.NewOptimalP1(c)
	if err != nil {
		t.Fatal(err)
	}
	scheds := []model.EpisodeScheduler{ag, eq, op1, sched.SinglePeriod{}, sched.EqualSplit{M: 5}, sched.FixedChunk{T: 2*c + 1}}
	for _, P := range []int{1 << 20, 1 << 40, math.MaxInt} {
		for _, sc := range scheds {
			name := fmt.Sprintf("%s P=%d", model.NameOf(sc), P)
			want, ref, refErr := refEvaluate(sc, P, U, c, false)
			if refErr != nil {
				t.Fatalf("%s: reference: %v", name, refErr)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := Evaluate(sc, P, U, c)
			gotS, br, errS := EvaluateWithStrategy(sc, P, U, c)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Fatalf("%s: evaluating allocated %d bytes, want at most 1 MiB", name, alloc)
			}
			if err != nil || errS != nil || got != want || gotS != want {
				t.Fatalf("%s: Evaluate = %d, %v; EvaluateWithStrategy = %d, %v; reference %d", name, got, err, gotS, errS, want)
			}
			if br.States() != len(ref) {
				t.Fatalf("%s: strategy covers %d states, reference %d", name, br.States(), len(ref))
			}
			for key, ch := range ref {
				at, ok := br.NextInterrupt(key.p, key.l, nil)
				if ok != ch.interrupt || (ok && at != ch.at) {
					t.Fatalf("%s: state (%d, %d) plays (%d, %v), reference (%d, %v)", name, key.p, key.l, at, ok, ch.at, ch.interrupt)
				}
			}
		}
	}
}
