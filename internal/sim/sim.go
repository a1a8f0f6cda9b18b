// Package sim executes cycle-stealing opportunities: it binds an adaptive
// scheduler (model.EpisodeScheduler), an interrupt strategy (Interrupter) and
// optionally a bag of data-parallel tasks, and plays out the draconian
// contract of §1–2 tick by tick:
//
//   - each period starts by paying the setup cost c (shipping work to B) and
//     ends with B returning results — the checkpoint;
//   - an interrupt kills the period in progress, losing all its work (and
//     returning its in-flight tasks to the bag);
//   - interrupts consume no lifespan themselves; the residual lifespan after
//     an interrupt at elapsed time τ is L − τ;
//   - after each interrupt the scheduler is asked for a fresh episode.
//
// The simulator is the ground truth the analytical evaluators are tested
// against: replaying game.BestResponse through Run reproduces the minimax
// guaranteed work exactly, and stochastic Interrupters give the Monte-Carlo
// expected-output view (experiment E8).
package sim

import (
	"fmt"

	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/task"
)

// Interrupter decides when the owner of the borrowed workstation reclaims
// it. At the start of each episode it sees the remaining interrupt budget p,
// the residual lifespan L, and the episode about to run; it returns the
// episode-relative elapsed time at which it will interrupt (1 ≤ at ≤ L), or
// ok = false to let the episode run out. Returning at > episode total means
// the interrupt falls into trailing idle time: it kills nothing but still
// consumes budget and lifespan.
//
// The episode slice is only valid for the duration of the call: the
// simulator reuses one episode buffer across a run's episodes, so an
// implementation that needs the schedule later must copy it.
type Interrupter interface {
	NextInterrupt(p int, L quant.Tick, episode model.TickSchedule) (at quant.Tick, ok bool)
}

// Opportunity is a cycle-stealing opportunity on the tick grid.
type Opportunity struct {
	U quant.Tick // usable lifespan
	P int        // interrupt budget
	C quant.Tick // per-period setup cost
}

// Validate reports whether the opportunity is well-formed.
func (o Opportunity) Validate() error {
	if o.U < 1 || o.P < 0 || o.C < 1 {
		return fmt.Errorf("sim: bad opportunity U=%d P=%d C=%d", o.U, o.P, o.C)
	}
	return nil
}

// PeriodOutcome classifies what happened to one scheduled period.
type PeriodOutcome int

// Period outcomes.
const (
	Completed PeriodOutcome = iota // ran to the end; work banked
	Killed                         // interrupted; work destroyed
	Unreached                      // episode ended (by interrupt) before it started
)

// String implements fmt.Stringer.
func (o PeriodOutcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case Killed:
		return "killed"
	case Unreached:
		return "unreached"
	default:
		return fmt.Sprintf("PeriodOutcome(%d)", int(o))
	}
}

// PeriodRecord is one row of the audit log.
type PeriodRecord struct {
	Episode int        // episode index, 0-based
	Index   int        // period index within the episode, 0-based
	Start   quant.Tick // absolute elapsed lifespan at period start
	Length  quant.Tick // scheduled length
	Outcome PeriodOutcome
	Work    quant.Tick // fluid work banked (capacity if completed, saved checkpoints if killed)
	Tasks   int        // tasks completed in this period (bag runs only)
}

// Result aggregates one opportunity run.
type Result struct {
	Work           quant.Tick // fluid work banked: Σ (t ⊖ c) over completed periods
	TaskWork       quant.Tick // total duration of completed tasks (bag runs)
	TasksCompleted int
	Episodes       int        // episodes started
	Interrupts     int        // interrupts that actually occurred
	SetupTicks     quant.Tick // lifespan spent on productive setups and checkpoint saves
	KilledTicks    quant.Tick // lifespan destroyed by kills (progress past the last save)
	IdleTicks      quant.Tick // lifespan never scheduled (tail slack, post-schedule gaps)
	Periods        []PeriodRecord
}

// TaskSource supplies indivisible tasks to pack into periods. *task.Bag
// implements it directly; the farm engine plays each station group against
// its own queue, wrapped in a completion tracker when the resident service
// needs to attribute finished tasks to jobs. The simulator itself is
// indifferent: a take that returns nothing simply packs no tasks into the
// period, and killed periods hand their in-flight tasks back through Return.
type TaskSource interface {
	// TakeInto removes tasks fitting within capacity (first-fit) and
	// appends them to dst, returning the extended slice (dst unchanged when
	// nothing fits). The simulator's hot loop takes into one warm buffer
	// per station instead of a fresh slice per period.
	TakeInto(dst []task.Task, capacity quant.Tick) []task.Task
	// Return puts killed tasks back for rescheduling. Implementations must
	// copy what they need: the slice is the caller's reusable shipping
	// buffer and will be overwritten by the next period's take.
	Return(tasks []task.Task)
}

// Buffers is the reusable scratch one station threads through its
// opportunity runs: the episode buffer the scheduler appends into and the
// task buffer periods ship from. A zero Buffers is ready to use; after a few
// episodes the buffers are warm and Run stops allocating on the hot path.
// One goroutine owns a Buffers at a time.
type Buffers struct {
	episode model.TickSchedule
	tasks   []task.Task
}

// ReserveTasks grows the shipping buffer to hold n tasks, so that no
// period shipping at most n tasks grows it.
func (b *Buffers) ReserveTasks(n int) {
	if cap(b.tasks) < n {
		b.tasks = make([]task.Task, 0, n)
	}
}

// Config controls optional simulator features.
type Config struct {
	// RecordPeriods turns on the per-period audit log.
	RecordPeriods bool
	// Bag, when non-nil, runs the opportunity against a real task source:
	// each period's capacity t−c is packed with tasks; killed periods return
	// their tasks.
	Bag TaskSource
	// Checkpoint, when ≥ 1, softens the draconian contract with intra-period
	// checkpointing (the arXiv:0711.3949 scheme): after every Checkpoint
	// ticks of useful work inside a period, the station pays the setup cost
	// again to save partial results. A completed period then banks t ⊖ c
	// minus the save overhead; a killed period banks everything up to its
	// last completed save — fluid work, and the prefix of its shipped tasks
	// that ran to completion by then — returning only the unsaved suffix to
	// the bag. 0 (the zero value) is the paper's pure draconian contract,
	// bit-identical to a Config without the field.
	Checkpoint quant.Tick
	// CheckpointSave, when ≥ 1, prices each intra-period checkpoint save
	// separately from the setup cost — the Young/Daly save overhead δ. 0 (the
	// zero value) prices saves at the setup cost c, bit-identical to the
	// behavior before the costs were split.
	CheckpointSave quant.Tick
	// CheckpointRestart, when ≥ 1, prices resuming from a saved checkpoint:
	// after a kill that banked intra-period saves, the next period reached
	// pays this on top of its setup cost before doing useful work (reloading
	// the saved state onto the borrowed workstation). 0 (the zero value)
	// makes restarts free, bit-identical to the behavior before the costs
	// were split.
	CheckpointRestart quant.Tick
	// Buffers, when non-nil, supplies the reusable episode/task scratch —
	// the farm engine passes one per station so replaying thousands of
	// opportunities allocates nothing per episode. Nil means Run uses
	// throwaway buffers.
	Buffers *Buffers
}

// Run plays one opportunity to completion and returns the accounting. It
// errors if the scheduler or interrupter violates its contract.
//
// Task flow is single-shot (see DESIGN.md): a reached period takes its tasks
// from the bag exactly once, at period start, into the run's reusable
// shipping buffer. A completed period banks that set; a killed period
// returns the very slice it holds. The in-flight set is therefore fixed at
// ship time — a concurrent station can never drain a period's tasks out from
// under it, and a kill can never return tasks the period did not hold.
func Run(s model.EpisodeScheduler, adv Interrupter, opp Opportunity, cfg Config) (Result, error) {
	if err := opp.Validate(); err != nil {
		return Result{}, err
	}
	var res Result
	L := opp.U
	p := opp.P
	bufs := cfg.Buffers
	if bufs == nil {
		bufs = &Buffers{}
	}
	ep := bufs.episode
	saveCost := cfg.CheckpointSave
	if saveCost < 1 {
		saveCost = opp.C
	}
	restartCost := cfg.CheckpointRestart
	if restartCost < 1 {
		restartCost = 0
	}
	restartDue := false // a kill banked saves; the next reached period pays the restart

	for L > 0 {
		ep = model.AppendEpisode(s, ep[:0], p, L)
		if len(ep) == 0 {
			// Scheduler has nothing to run (e.g. a non-adaptive tail after a
			// final-period interrupt): the rest of the lifespan idles away.
			res.IdleTicks += L
			break
		}
		total, err := validateEpisode(s, ep, p, L)
		if err != nil {
			return Result{}, err
		}
		res.Episodes++

		at, interrupted := adv.NextInterrupt(p, L, ep)
		if interrupted {
			if p <= 0 {
				return Result{}, fmt.Errorf("sim: interrupter %T fired with no budget left", adv)
			}
			if at < 1 || at > L {
				return Result{}, fmt.Errorf("sim: interrupter %T returned offset %d outside (0, %d]", adv, at, L)
			}
		}

		// Play the episode's periods against the (possible) interrupt.
		var elapsed quant.Tick // episode-relative
		killedInEpisode := false
		for i, t := range ep {
			start := elapsed
			end := elapsed + t
			rec := PeriodRecord{Episode: res.Episodes - 1, Index: i, Start: opp.U - L + start, Length: t}
			reached := !interrupted || at > start
			// A period resuming checkpointed work pays the restart surcharge
			// as part of its setup segment (setup stays opp.C when restarts
			// are free or no saves are pending resumption).
			setup := opp.C
			if reached && restartDue {
				setup += restartCost
				restartDue = false
			}
			// Interior checkpoints eat into the period's useful capacity:
			// with Checkpoint off (saves = 0) capacity is exactly t ⊖ setup.
			saves, capacity := checkpointPlan(t, setup, cfg.Checkpoint, saveCost)
			// Single-shot shipping: a period that begins takes its tasks
			// once, here; the outcome below decides bank vs return.
			shipped := 0
			if cfg.Bag != nil && reached && capacity > 0 {
				bufs.tasks = cfg.Bag.TakeInto(bufs.tasks[:0], capacity)
				shipped = len(bufs.tasks)
			}
			switch {
			case !reached:
				// Interrupt fell before this period began.
				rec.Outcome = Unreached
			case interrupted && at <= end:
				// Interrupt lands inside (or at the last instant of) this
				// period: its work and in-flight tasks die — except what an
				// intra-period checkpoint already saved. The unsaved tasks it
				// shipped at start go back in the bag for rescheduling
				// (draconian kill, not task loss) — exactly the held slice,
				// no second bag scan.
				rec.Outcome = Killed
				killedInEpisode = true
				e := at - start
				var q quant.Tick
				if saves > 0 {
					q = checkpointSaved(e, setup, cfg.Checkpoint, saveCost)
				}
				if q > 0 {
					// The kill loses only work since the last completed save:
					// q·k fluid ticks are banked, with the tasks that ran to
					// completion inside them; the setup and q saves were
					// productive overhead, and only the tail burns. Resuming
					// the banked saves will cost the next period a restart.
					saved := q * cfg.Checkpoint
					rec.Work = saved
					res.Work += saved
					res.SetupTicks += setup + q*saveCost
					res.KilledTicks += e - setup - q*(cfg.Checkpoint+saveCost)
					restartDue = true
					if shipped > 0 {
						nDone := task.CompletedPrefix(bufs.tasks, saved)
						if nDone > 0 {
							rec.Tasks = nDone
							res.TasksCompleted += nDone
							res.TaskWork += task.Durations(bufs.tasks[:nDone])
						}
						if nDone < shipped {
							cfg.Bag.Return(bufs.tasks[nDone:])
						}
					}
				} else {
					res.KilledTicks += e
					if shipped > 0 {
						cfg.Bag.Return(bufs.tasks)
					}
				}
			default:
				rec.Outcome = Completed
				work := capacity
				rec.Work = work
				res.Work += work
				if work > 0 {
					res.SetupTicks += setup + saves*saveCost
				} else {
					res.SetupTicks += t // a period ≤ c is pure overhead
				}
				if shipped > 0 {
					rec.Tasks = shipped
					res.TasksCompleted += shipped
					res.TaskWork += task.Durations(bufs.tasks)
				}
			}
			if cfg.RecordPeriods {
				res.Periods = append(res.Periods, rec)
			} else if rec.Outcome == Killed {
				// Every later period is unreached: it takes no tasks, banks
				// nothing and leaves restartDue alone, so only the audit
				// log needs it.
				break
			}
			elapsed = end
		}

		if !interrupted {
			// Episode ran out; any shortfall between the schedule and the
			// residual lifespan is idle tail time, and the opportunity ends
			// (an adaptive scheduler always consumes L exactly; only
			// non-adaptive tails undershoot, and they do so terminally).
			res.IdleTicks += L - total
			L = 0
			break
		}

		res.Interrupts++
		if at > total {
			// Interrupt fell into trailing idle time after the episode
			// completed: nothing killed, but lifespan up to `at` is gone.
			res.IdleTicks += at - total
		} else if !killedInEpisode {
			return Result{}, fmt.Errorf("sim: internal accounting: interrupt at %d killed nothing in episode of %d", at, total)
		}
		L -= at
		p--
	}
	bufs.episode = ep // hand the grown buffer back for the next opportunity
	return res, nil
}

// checkpointPlan places the interior checkpoints of a period of length t:
// with interval k ≥ 1, after every k ticks of useful work the station pays
// the save cost s to save partial results. It returns the number of interior
// saves and the useful capacity left (t ⊖ c minus the save overhead), where
// c is the period's setup segment (including any restart surcharge). A save
// that would land exactly at the period end is dropped — the period end
// banks everything anyway — which is why the save count divides w−1, not w.
// With k < 1 checkpointing is off: no saves, capacity exactly t ⊖ c.
func checkpointPlan(t, c, k, s quant.Tick) (saves, capacity quant.Tick) {
	w := quant.PosSub(t, c)
	if k < 1 || w < 1 {
		return 0, w
	}
	saves = (w - 1) / (k + s)
	return saves, w - saves*s
}

// checkpointSaved counts the interior saves a kill at period-relative
// elapsed e has banked: save j occupies the work-span ticks
// (j·(k+s) − s, j·(k+s)] after the setup, so it is safe only when the kill
// lands strictly beyond c + j·(k+s). Since e never exceeds the period
// length, the result never exceeds checkpointPlan's save count.
func checkpointSaved(e, c, k, s quant.Tick) quant.Tick {
	if e <= c {
		return 0
	}
	return (e - c - 1) / (k + s)
}

func validateEpisode(s model.EpisodeScheduler, ep model.TickSchedule, p int, L quant.Tick) (quant.Tick, error) {
	var total quant.Tick
	for i, t := range ep {
		if t < 1 {
			return 0, fmt.Errorf("sim: scheduler %s emitted period %d of length %d at (p=%d, L=%d)",
				model.NameOf(s), i+1, t, p, L)
		}
		total += t
	}
	if total > L {
		return 0, fmt.Errorf("sim: scheduler %s overcommitted %d ticks into residual %d",
			model.NameOf(s), total, L)
	}
	return total, nil
}
