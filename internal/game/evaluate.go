package game

import (
	"fmt"

	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
)

// BestResponse is the adversary strategy extracted by EvaluateWithStrategy:
// for each reachable game state it knows the minimizing move against the
// scheduler it was computed for. It implements the simulator's Interrupter
// contract (see internal/sim); replaying it in the simulator reproduces the
// guaranteed-work value exactly.
type BestResponse struct {
	// p is the interrupt bound the strategy was computed for.
	p int
	// at[d][L] is the episode-relative elapsed time T_k at whose end the
	// owner interrupts in state (p−d, L), or 0 to let the episode run out
	// (every period is at least one tick, so an interrupt is never at 0).
	// It holds the levels the evaluation reached, indexed by depth d.
	at []map[quant.Tick]quant.Tick
}

// NextInterrupt returns the episode-relative time at which the owner
// interrupts in state (p, L), or ok = false to let the episode run out.
// States the strategy does not cover, p outside [0, P] included, let it
// run out.
func (b *BestResponse) NextInterrupt(p int, L quant.Tick, _ model.TickSchedule) (quant.Tick, bool) {
	if p < 0 || p > b.p || b.p-p >= len(b.at) {
		return 0, false
	}
	at := b.at[b.p-p][L]
	return at, at > 0
}

// States returns the number of game states the strategy covers, over every
// interrupt level.
func (b *BestResponse) States() int {
	n := 0
	for _, level := range b.at {
		n += len(level)
	}
	return n
}

// schedulerError is the panic payload used to surface contract violations
// from deep inside the memoized recursion.
type schedulerError struct{ err error }

// Evaluate returns the exact guaranteed output of scheduler sch in an
// opportunity of U ticks with at most P interrupts and setup cost c: the
// minimum, over all adversary strategies that interrupt only at last instants
// of periods (Observation (a)), of the work the schedule banks.
//
// It returns an error if the scheduler violates its contract (a period < 1
// tick, or an episode exceeding the residual lifespan) at any state the
// adversary can reach, including a residual L ≤ c, where no period banks
// anything but the simulator still plays the episode.
func Evaluate(sch model.EpisodeScheduler, P int, U, c quant.Tick) (quant.Tick, error) {
	w, _, err := evaluate(sch, P, U, c, false)
	return w, err
}

// EvaluateWithStrategy is Evaluate, additionally returning the adversary's
// minimizing strategy for replay.
func EvaluateWithStrategy(sch model.EpisodeScheduler, P int, U, c quant.Tick) (quant.Tick, *BestResponse, error) {
	return evaluate(sch, P, U, c, true)
}

// levels is the evaluators' working state, one level per interrupt level the
// recursion reaches, indexed by depth d = P − p. The recursion steps down one
// level at a time, so a level is appended when first reached: memory follows
// the states reached, not P, which no caller caps. A state at depth d
// recurses only into deeper levels, so the recursion holds at most one live
// episode per level and level d's buffer stays intact while its own state's
// loop runs.
type levels struct {
	sch    model.EpisodeScheduler
	record bool
	depth  []level
}

// level is one interrupt level p's working state.
type level struct {
	memo map[quant.Tick]quant.Tick // V_sch(p, ·) by residual lifespan (Go's 64-bit map fast path)
	at   map[quant.Tick]quant.Tick // the adversary's choices, when recording
	buf  model.TickSchedule        // the episode buffer every state of the level reuses
}

// reach returns level d's memo, appending the level when the recursion
// first reaches it, one below the deepest level so far.
func (ls *levels) reach(d int) map[quant.Tick]quant.Tick {
	if d == len(ls.depth) {
		l := level{memo: make(map[quant.Tick]quant.Tick)}
		if ls.record {
			l.at = make(map[quant.Tick]quant.Tick)
		}
		ls.depth = append(ls.depth, l)
	}
	return ls.depth[d].memo
}

// leaf checks the episode the scheduler emits at a state (P−d, L) with
// L ≤ c, once per level and residual. No period fitting in L banks
// anything, so the state is worth 0 whatever the episode, and no adversary
// choice is recorded for it; but the simulator plays that episode and
// refuses it when it breaks the contract, so the evaluator checks it too.
// The level's memo marks a checked leaf with its value, 0. L = 0 has no
// episode.
func (ls *levels) leaf(d, p int, L quant.Tick) {
	if L < 1 {
		return
	}
	memo := ls.reach(d)
	if _, ok := memo[L]; ok {
		return
	}
	memo[L] = 0
	ls.episode(d, p, L)
}

// episode fetches the scheduler's episode for state (p, L) into the buffer of
// depth d and validates it: periods ≥ 1 tick, total at most the residual
// lifespan (shortfall is idle time).
func (ls *levels) episode(d, p int, L quant.Tick) model.TickSchedule {
	ep := model.AppendEpisode(ls.sch, ls.depth[d].buf[:0], p, L)
	ls.depth[d].buf = ep
	var total quant.Tick
	for i, t := range ep {
		if t < 1 {
			panic(schedulerError{fmt.Errorf("game: scheduler %s emitted period %d of %d ticks at (p=%d, L=%d)", model.NameOf(ls.sch), i+1, t, p, L)})
		}
		total += t
	}
	if total > L {
		panic(schedulerError{fmt.Errorf("game: scheduler %s overcommitted %d ticks into residual %d at p=%d", model.NameOf(ls.sch), total, L, p)})
	}
	return ep
}

// recoverSchedulerError turns a schedulerError panic into *err and re-panics
// anything else.
func recoverSchedulerError(err *error) {
	if r := recover(); r != nil {
		se, ok := r.(schedulerError)
		if !ok {
			panic(r)
		}
		*err = se.err
	}
}

func evaluate(sch model.EpisodeScheduler, P int, U, c quant.Tick, record bool) (work quant.Tick, br *BestResponse, err error) {
	if c < 1 || U < 0 || P < 0 {
		return 0, nil, fmt.Errorf("game: bad evaluation parameters P=%d U=%d c=%d", P, U, c)
	}
	defer recoverSchedulerError(&err)
	ls := &levels{sch: sch, record: record}

	// eval returns the value of state (P−d, L).
	var eval func(d int, L quant.Tick) quant.Tick
	eval = func(d int, L quant.Tick) quant.Tick {
		if L <= c {
			ls.leaf(d, P-d, L)
			return 0 // no period fitting in L can bank anything
		}
		memo := ls.reach(d)
		if v, ok := memo[L]; ok {
			return v
		}
		p := P - d
		ep := ls.episode(d, p, L)
		best := ep.UninterruptedWork(c)
		var at quant.Tick
		if p > 0 {
			var banked, elapsed quant.Tick
			for _, t := range ep {
				elapsed += t
				// Interrupt at the last instant of this period: the work in
				// progress dies, periods 1..k-1 stay banked, residual L−T_k.
				if cand := banked + eval(d+1, L-elapsed); cand < best {
					best, at = cand, elapsed
				}
				banked += quant.PosSub(t, c)
			}
		}
		memo[L] = best
		if record {
			ls.depth[d].at[L] = at
		}
		return best
	}

	work = eval(0, U)
	if record {
		br = &BestResponse{p: P, at: make([]map[quant.Tick]quant.Tick, len(ls.depth))}
		for d, l := range ls.depth {
			br.at[d] = l.at
		}
	}
	return work, br, nil
}

// EvaluateExhaustive returns the guaranteed output of sch against an
// adversary allowed to interrupt at *every* tick of the lifespan, not only at
// last instants of periods. Observation (a) asserts the two coincide; tests
// verify that on the paper's schedulers. It memoizes per interrupt level as
// Evaluate does. Runtime is O(states × U); use small lifespans.
func EvaluateExhaustive(sch model.EpisodeScheduler, P int, U, c quant.Tick) (work quant.Tick, err error) {
	if c < 1 || U < 0 || P < 0 {
		return 0, fmt.Errorf("game: bad evaluation parameters P=%d U=%d c=%d", P, U, c)
	}
	defer recoverSchedulerError(&err)
	ls := &levels{sch: sch}

	// eval returns the value of state (P−d, L).
	var eval func(d int, L quant.Tick) quant.Tick
	eval = func(d int, L quant.Tick) quant.Tick {
		if L <= c {
			ls.leaf(d, P-d, L)
			return 0
		}
		memo := ls.reach(d)
		if v, ok := memo[L]; ok {
			return v
		}
		// An adversary interrupting at elapsed time 0 revisits lifespan L
		// one level deeper, which is finite because p strictly decreases.
		p := P - d
		ep := ls.episode(d, p, L)
		best := ep.UninterruptedWork(c)
		if p > 0 {
			var banked, start quant.Tick
			for _, t := range ep {
				// Interrupt anywhere in [start, start+t): period dies,
				// residual L−τ. The worst τ within the period is its last
				// tick offset, but we scan all placements on the grid.
				for tau := start; tau < start+t; tau++ {
					best = min(best, banked+eval(d+1, L-tau))
				}
				// The continuum's last-instant limit τ → T_k is represented
				// on the grid by residual exactly L−T_k.
				best = min(best, banked+eval(d+1, L-start-t))
				start += t
				banked += quant.PosSub(t, c)
			}
			// Interrupts during trailing idle time are dominated: the full
			// episode work is already banked, so the value can only rise.
		}
		memo[L] = best
		return best
	}
	return eval(0, U), nil
}
