package farm

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"cyclesteal/internal/fault"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/station"
	"cyclesteal/internal/task"
)

// runner is the persistent per-station state the Core drives: the
// workstation model, its deterministic contract stream, and the
// accumulating report. A runner outlives any one call — the resident
// service plays the same runners round after round as jobs come and go —
// and exactly one goroutine touches a runner at a time (round barriers
// order the handoffs between workers).
type runner struct {
	ws   station.Workstation
	rng  *rand.Rand
	rep  StationReport
	err  error // sticky: an erred runner never plays again
	left bool  // departed mid-run (service churn); its report remains
}

// newRunner builds one station's persistent state.
func newRunner(ws station.Workstation, seed int64) runner {
	return runner{ws: ws, rng: station.RNG(seed, ws.ID), rep: StationReport{Station: ws.ID}}
}

// Core is the event-driven round engine, the repo's one station loop: a
// standing set of station runners partitioned into group queues, advanced
// one round at a time, with joins, leaves and task arrivals applied only at
// round barriers. RunDeterministic is a thin batch driver over it (join the
// fleet, add the job, play bounded rounds); the fleet package's resident
// service is the long-lived driver (jobs stream in, stations churn, rounds
// play for as long as there is work).
//
// Every mutation is ordered by (round, group, station slot): within a round
// each group queue is touched by exactly one sequential station chain, and
// queues rebalance by stealing only at the barrier, in deterministic cyclic
// order — so the whole evolution is a pure function of the construction
// parameters and the barrier-stamped event sequence, bit-identical at any
// worker count.
//
// Stations occupy slots in join order, forever: slot s belongs to group
// s mod groups, a leave marks the slot dormant without renumbering anyone,
// and a later join opens a fresh slot (fresh station ID, fresh rng stream) —
// reusing a slot would replay a departed station's contract stream from the
// start. With the initial fleet joined as slots 0..n−1 this reproduces the
// batch engine's "station i in group i mod groups" partition exactly.
type Core struct {
	opts    Farm // engine knobs: checkpoint policy, topology
	factory station.SchedulerFactory
	seed    int64

	groups, clusters, perCluster int
	scaledLatency                int64

	runners []runner
	liveIn  []int // live runners per group
	live    int

	queues  []*task.Bag
	sources []sim.TaskSource // what runners play against: queues, or trackers
	track   []*trackSource   // non-nil when completion tracking is on
	// scratch holds each group's simulator buffers. One goroutine plays a
	// group per round, its stations in slot order, and round barriers order
	// the handoffs between workers, so no two goroutines touch one at once.
	scratch []sim.Buffers

	next   atomic.Int64   // PlayRound's group-claim counter
	stride int            // claim k plays group k·stride mod groups (claimStride)
	wg     sync.WaitGroup // PlayRound's helper workers

	flight      task.Flight
	playedTicks quant.Tick
	pending     []int64 // per-group outstanding cross-cluster request maturity
	steals      int
	total       int // tasks ever added

	// Fault state (SetFaults): the injector realizing the run's fault plan,
	// and — in loss-aware mode only — the per-group cross-steal robustness
	// machinery. With no injector (or no loss axis) none of it is allocated
	// and the barrier reduces exactly to the fault-free engine.
	faults      *fault.Injector
	retries     int
	tasksLost   int
	lostbuf     []task.Task // lost tasks for job attribution; tracking mode only
	awaiting    []bool      // per-group: a cross-cluster request is outstanding
	crossFails  []int       // per-group consecutive lost cross steals
	crossDead   []bool      // per-group: degraded to intra-cluster scanning for good
	nextCrossAt []int64     // per-group backoff: earliest clock for the next request

	arrived []int       // reusable rebalance snapshot
	errbuf  []error     // reusable error-join scratch
	dealTo  []*task.Bag // reusable liveQueues scratch
}

// NewCore builds the event-driven engine state for this farm's knobs.
// groups is the resolved queue/group count (the caller validates the
// Topology against it) and capacity a fleet-size hint; track turns on
// per-task completion tracking (TakeCompleted), which the resident service
// needs to attribute finished tasks to jobs and the batch drivers skip.
func (f Farm) NewCore(factory station.SchedulerFactory, seed int64, groups, capacity int, track bool) *Core {
	c := &Core{
		opts:    f,
		factory: factory,
		seed:    seed,
		groups:  groups,
		runners: make([]runner, 0, capacity),
		liveIn:  make([]int, groups),
		queues:  make([]*task.Bag, groups),
		sources: make([]sim.TaskSource, groups),
		scratch: make([]sim.Buffers, groups),
		stride:  claimStride(groups),
		arrived: make([]int, groups),
	}
	c.clusters = f.Topology.clusterCount()
	c.perCluster = groups / c.clusters
	if f.Topology.active() {
		c.scaledLatency = f.scaledLatency()
	}
	if c.scaledLatency > 0 {
		c.pending = make([]int64, groups)
	}
	if track {
		c.track = make([]*trackSource, groups)
	}
	bags := make([]task.Bag, groups) // a zero Bag is an empty queue
	for g := range c.queues {
		c.queues[g] = &bags[g]
		if track {
			c.track[g] = &trackSource{bag: c.queues[g]}
			c.sources[g] = c.track[g]
		} else {
			c.sources[g] = c.queues[g]
		}
	}
	return c
}

// Join adds a station to the fleet at a round barrier and returns its slot.
// The station plays from the next round on, drawing contracts from the rng
// stream derived from (seed, station ID).
func (c *Core) Join(ws station.Workstation) int {
	slot := len(c.runners)
	c.runners = append(c.runners, newRunner(ws, c.seed))
	c.liveIn[slot%c.groups]++
	c.live++
	return slot
}

// SetFaults arms the core with a fault injector — applied at a round
// barrier, before any round the faults may touch. The core draws parcel-loss
// samples from it at barrier departures, and crash samples when the driver
// (batch loop or resident service) calls ApplyFaults at a round top; the
// resident service owns the kill. With a loss axis in the plan the
// barrier's cross-steal guard switches to the loss-aware timeout/retry/
// degrade machinery; without one the guard stays byte-for-byte the
// fault-free engine. nil disarms.
func (c *Core) SetFaults(in *fault.Injector) {
	c.faults = in
	if in == nil {
		return
	}
	c.retries = in.Retries()
	if in.Plan().LossProb > 0 && c.scaledLatency > 0 && c.awaiting == nil {
		c.awaiting = make([]bool, c.groups)
		c.crossFails = make([]int, c.groups)
		c.crossDead = make([]bool, c.groups)
		c.nextCrossAt = make([]int64, c.groups)
	}
}

// Faults returns the armed injector, nil when none.
func (c *Core) Faults() *fault.Injector { return c.faults }

// Leave removes the station in the given slot at a round barrier. Its
// report (and any error) remains in the run's accounting. When the slot was
// its group's last live station, the group's queued tasks drain back to the
// groups that still have stations — the churn contract: a departure behaves
// exactly like a kill, minus the loss (nothing was mid-period at a barrier,
// so there is nothing to destroy). Leave reports whether the slot was live.
func (c *Core) Leave(slot int) bool { return c.teardown(slot, true) }

// Crash removes the station in the given slot abruptly at a round barrier —
// the fault-plan semantics, sharing Leave's teardown with the opposite work
// policy: where a leave drains an orphaned group's queue back to the fleet,
// a crash destroys it (those tasks lived on the crashed host; only
// checkpointed prefixes — work already banked at earlier barriers — survive).
// Parcels already in flight toward the crashed group are lost on arrival if
// nobody is left there to receive them. Crash reports whether the slot was
// live.
func (c *Core) Crash(slot int) bool { return c.teardown(slot, false) }

// teardown is the shared exit path of Leave and Crash: mark the slot
// dormant, and when it was its group's last live station either drain the
// orphaned queue back to the fleet (keepWork — the graceful contract) or
// destroy it (a crash).
func (c *Core) teardown(slot int, keepWork bool) bool {
	if slot < 0 || slot >= len(c.runners) || c.runners[slot].left {
		return false
	}
	c.runners[slot].left = true
	g := slot % c.groups
	c.liveIn[g]--
	c.live--
	if c.liveIn[g] == 0 {
		if keepWork {
			c.drainGroup(g)
		} else {
			c.destroyGroup(g)
		}
	}
	return true
}

// destroyGroup is drainGroup's crash twin: the orphaned group's queued tasks
// died with their host instead of draining back.
func (c *Core) destroyGroup(g int) {
	n := c.queues[g].Remaining()
	if n == 0 {
		return
	}
	c.loseTasks(c.queues[g].Steal(n))
}

// loseTasks records destroyed tasks: counted for the run's accounting, and
// buffered for TakeLost when completion tracking is on (the resident service
// attributes losses to jobs the same way it attributes completions).
func (c *Core) loseTasks(tasks []task.Task) {
	if len(tasks) == 0 {
		return
	}
	c.tasksLost += len(tasks)
	if c.track != nil {
		c.lostbuf = append(c.lostbuf, tasks...)
	}
}

// TasksLost reports the tasks destroyed so far — crashed queues and parcels
// lost in transit.
func (c *Core) TasksLost() int { return c.tasksLost }

// drainGroup redistributes an orphaned group's queue across the groups that
// still have live stations, round-robin in group order (an empty fleet keeps
// the tasks queued for the next join instead).
func (c *Core) drainGroup(g int) {
	n := c.queues[g].Remaining()
	if n == 0 || c.live == 0 {
		return
	}
	tasks := c.queues[g].Steal(n) // the whole queue, in bag order
	to := c.liveQueues()
	task.DealInto(to, tasks)
	c.steals += min(n, len(to)) // one per queue that received tasks
}

// liveQueues lists, in group order, the queues of groups that still have
// live stations. The slice is scratch, valid until the next call.
func (c *Core) liveQueues() []*task.Bag {
	c.dealTo = c.dealTo[:0]
	for g, q := range c.queues {
		if c.liveIn[g] > 0 {
			c.dealTo = append(c.dealTo, q)
		}
	}
	return c.dealTo
}

// AddTasks deals newly arrived tasks round-robin across the group queues —
// the same deterministic partition the batch engines start from. Groups
// whose stations have all departed are skipped (their queues only drain);
// with the whole fleet departed the deal covers every group, parking the
// work for the next join.
func (c *Core) AddTasks(tasks []task.Task) {
	if len(tasks) == 0 {
		return
	}
	c.total += len(tasks)
	if c.live == 0 || c.live == len(c.runners) {
		// Fast path: no group is dead — a service whose fleet has lost
		// no group.
		task.DealInto(c.queues, tasks)
		return
	}
	task.DealInto(c.liveQueues(), tasks) // some station is live, so some group is
}

// AddDealt is AddTasks for a job already dealt over every group: hands[g]
// holds exactly the tasks AddTasks would deal queue g, with their smallest
// duration. Each queue takes its hand as storage, with no copy, and ends
// up as AddTasks would leave it; tasks added later fill the hand's spare
// capacity before the queue grows. Call it once, on a Core whose queues
// are all empty and whose groups are all live: the intake of a batch run
// and of every replication trial.
func (c *Core) AddDealt(hands []task.Hand) {
	for g, h := range hands {
		c.queues[g].Adopt(h)
		c.total += len(h.Tasks)
	}
}

// SetCheckpoint changes the checkpoint policy for every subsequent
// opportunity — applied at a round barrier, so the change lands at a
// deterministic point in the run.
func (c *Core) SetCheckpoint(interval quant.Tick, adaptive bool) {
	c.opts.Checkpoint = interval
	c.opts.CheckpointAdaptive = adaptive
}

// Pending reports the tasks not yet completed: queued everywhere plus in
// flight between clusters. At a barrier (nothing mid-opportunity) this is
// exactly the not-yet-completed count.
func (c *Core) Pending() int {
	left := c.flight.InFlight()
	for _, q := range c.queues {
		left += q.Remaining()
	}
	return left
}

// Live reports the stations currently in the fleet.
func (c *Core) Live() int { return c.live }

// Alive reports whether the given slot holds a station still in the fleet.
func (c *Core) Alive(slot int) bool {
	return slot >= 0 && slot < len(c.runners) && !c.runners[slot].left
}

// Total reports the tasks ever added.
func (c *Core) Total() int { return c.total }

// Steals reports cross-queue task movements so far.
func (c *Core) Steals() int { return c.steals }

// ApplyFaults applies the armed plan's round-top station crashes for the
// given round: the explicitly scheduled ones first (in schedule order, dead
// slots and slots beyond the fleet ignored), then one Bernoulli draw per
// still-live slot in slot order — the fixed draw order that keeps the fault
// stream a pure function of the fleet evolution. It appends the slots it
// crashed to crashed, in crash order, and returns the result: the resident
// service logs each as an event, the batch driver passes nil.
func (c *Core) ApplyFaults(round int, crashed []int) []int {
	if c.faults == nil {
		return crashed
	}
	for _, slot := range c.faults.ScheduledCrashes(round) {
		if c.Crash(slot) {
			crashed = append(crashed, slot)
		}
	}
	if c.faults.Plan().CrashProb <= 0 {
		return crashed
	}
	for slot := range c.runners {
		r := &c.runners[slot]
		if r.left || r.err != nil {
			continue
		}
		if c.faults.SampleCrash() {
			c.Crash(slot)
			crashed = append(crashed, slot)
		}
	}
	return crashed
}

// Snapshot reports the Core's progress counters — exact at a barrier.
func (c *Core) Snapshot() Progress {
	left := c.Pending()
	return Progress{Completed: c.total - left - c.tasksLost, Remaining: left, Steals: c.steals, Lost: c.tasksLost}
}

// Reports returns every station's accumulated report in slot (join) order,
// departed stations included — they did real work before leaving.
func (c *Core) Reports() []StationReport {
	out := make([]StationReport, len(c.runners))
	for i, r := range c.runners {
		out[i] = r.rep
	}
	return out
}

// Result assembles the run so far into the batch Result shape — call at a
// barrier, where the pending count is exact.
func (c *Core) Result() Result {
	return c.opts.assemble(c.Reports(), c.Pending(), c.steals, c.flight.InFlight(), c.tasksLost)
}

// PlayRound plays one opportunity per live station and runs the round
// barrier. Groups run concurrently on the worker pool, but each group plays
// its stations sequentially in slot order against its own queue, so no queue
// is ever touched by two goroutines. Workers claim groups in a strided
// order, never two neighbours at once, so they do not share the cache lines
// of adjacent groups' state (see playGroups). At the barrier the steal clock
// advances, matured cross-cluster parcels land, and groups that arrived dry
// rebalance in deterministic cyclic order. workers ≤ 0 means GOMAXPROCS,
// but no more than one worker per minStationsPerWorker live stations — like
// everywhere else in the determinism contract the count changes wall-clock
// time only. The calling goroutine is one of the workers, so one worker
// plays the round inline. On cancellation or a station error the barrier
// does not run (queues keep their played state) and the error is returned;
// runner errors join in slot order. PlayRound must not run concurrently
// with itself or with any other method on the same Core.
func (c *Core) PlayRound(ctx context.Context, workers int) error {
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), max(1, c.live/minStationsPerWorker))
	}
	workers = min(workers, c.groups)
	c.next.Store(0)
	for w := 1; w < workers; w++ {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.playGroups(ctx)
		}()
	}
	c.playGroups(ctx)
	c.wg.Wait()
	// Cancellation trumps station errors: which stations got far enough to
	// fail some other way depends on scheduling; the cancellation does not.
	if err := ctx.Err(); err != nil {
		return err
	}
	c.errbuf = c.errbuf[:0]
	for _, r := range c.runners {
		c.errbuf = append(c.errbuf, r.err)
	}
	if err := errors.Join(c.errbuf...); err != nil {
		return err
	}
	c.barrier()
	return nil
}

// minStationsPerWorker sizes PlayRound's default worker count: a round of
// fewer stations per worker costs less to play than waking a goroutine for
// it saves. On a 2-vCPU host a 16-station survey round (about 45 µs of
// work) played 17% slower with a second worker than inline. fleet's
// minIntakeTasksPerWorker sizes a job's intake split the same way.
const minStationsPerWorker = 32

// playGroups is one PlayRound worker: it claims groups off the round's
// counter until none are left, playing each claimed group's live stations
// in slot order against the group's queue and scratch. Claim k plays group
// k·stride mod groups, not group k: the hot state of neighbouring groups
// (their queues, scratch, trackers, the runners of adjacent slots and
// their rng streams) sits side by side in memory, so workers playing
// groups g and g+1 at once would bounce cache lines between cores on every
// take. The stride spreads concurrent claims about 0.38·groups apart
// (claimStride). Groups are independent within a round, so the order
// changes wall-clock time only. Before every station it polls for
// cancellation with a non-blocking receive on ctx.Done(), which takes no
// lock; ctx.Err locks the context, and the workers would contend on that
// lock once per station.
func (c *Core) playGroups(ctx context.Context) {
	n := len(c.runners)
	done := ctx.Done()
	for k := int(c.next.Add(1) - 1); k < c.groups; k = int(c.next.Add(1) - 1) {
		g := k * c.stride % c.groups
		for slot := g; slot < n; slot += c.groups {
			select {
			case <-done:
				return // cancelled; PlayRound reports it
			default:
			}
			r := &c.runners[slot]
			if r.left || r.err != nil {
				continue
			}
			r.err = c.opts.playOpportunity(&r.rep, r.ws, r.rng, c.factory, c.sources[g], &c.scratch[g])
		}
	}
}

// claimStride is the step of playGroups' claim order: the integer nearest
// groups·(√5−1)/2 that is coprime to groups, or 1 for two groups or fewer.
// Being coprime makes k ↦ k·stride mod groups a permutation of the groups;
// being near the golden section puts consecutive claims about 0.38·groups
// apart around the circle, and keeps the claims of a few workers at once
// spread out (the three-gap property of golden-ratio rotations).
func claimStride(groups int) int {
	if groups <= 2 {
		return 1
	}
	x := float64(groups) * (math.Sqrt(5) - 1) / 2
	lo := int(x) // ≥ 1 here
	near, far := lo, lo+1
	if x-float64(lo) > 0.5 {
		near, far = far, near
	}
	// Candidates in order of distance from x: near, far, then outward in
	// steps of one on both sides. 1 is coprime to every count, so the walk
	// ends.
	for d := 0; ; d++ {
		for _, s := range [2]int{near + d*(near-far), far + d*(far-near)} {
			if s >= 1 && s < groups && gcd(s, groups) == 1 {
				return s
			}
		}
	}
}

// gcd is the greatest common divisor of two positive integers.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// barrier runs the deterministic end-of-round phase: advance the steal
// clock by the lifespan the fleet just played and land matured parcels (so
// arrivals are stealable this barrier), then rebalance — groups that
// arrived empty steal half the first non-empty victim's queue (rounded up,
// so a last lone task can still migrate off an idle group) in deterministic
// cyclic order, first within their own cluster, and only when the cluster
// arrived collectively dry across clusters, where a priced steal departs
// into the flight ledger instead of landing. Both the thief set and the
// victim set are fixed by a pre-pass snapshot: without it, an empty group
// later in the pass would re-steal the tasks an earlier thief just received
// — ping-ponging a dying job's last tasks between idle groups instead of
// landing them on a station that works. The Private layout's queues never
// rebalance, so its barrier does nothing.
func (c *Core) barrier() {
	if c.opts.Private {
		return
	}
	if c.scaledLatency > 0 {
		var total quant.Tick
		for _, r := range c.runners {
			total += r.rep.LifespanTicks
		}
		c.flight.Advance(int64(total - c.playedTicks))
		c.playedTicks = total
		c.flight.Arrive(func(dest int, tasks []task.Task) {
			if c.liveIn[dest] == 0 {
				// The requesting group crashed while the parcel was in
				// flight: nobody is left to receive it (only a crash
				// reaches this — a graceful leave cannot co-occur with
				// in-flight parcels, see Crash).
				c.flight.Lose(tasks)
				c.loseTasks(tasks)
				return
			}
			c.queues[dest].Append(tasks)
			if c.awaiting != nil {
				// The crossing succeeded: the request is no longer
				// outstanding and the backoff ladder resets.
				c.awaiting[dest] = false
				c.crossFails[dest] = 0
			}
		})
	}

	arrived := c.arrived
	for g, q := range c.queues {
		arrived[g] = q.Remaining()
	}
	for g := 0; g < c.groups; g++ {
		// Only a group that arrived dry AND still has a live station steals:
		// a stationless group taking tasks would strand them unplayed.
		if arrived[g] > 0 || c.liveIn[g] == 0 {
			continue
		}
		stole := false
		base := g / c.perCluster * c.perCluster
		for d := 1; d < c.perCluster; d++ {
			v := base + (g-base+d)%c.perCluster
			if arrived[v] == 0 {
				continue
			}
			if half := (c.queues[v].Remaining() + 1) / 2; half > 0 {
				c.queues[g].Append(c.queues[v].Steal(half))
				c.steals++
				stole = true
				break
			}
		}
		if stole || c.clusters == 1 {
			continue
		}
		if c.scaledLatency > 0 {
			if c.awaiting == nil {
				if c.pending[g] > c.flight.Clock() {
					continue // one outstanding cross-cluster request per group
				}
			} else if !c.crossReady(g) {
				continue
			}
		}
		cg := g / c.perCluster
		for dc := 1; dc < c.clusters && !stole; dc++ {
			cl := cg + dc
			if cl >= c.clusters {
				cl -= c.clusters
			}
			for v := cl * c.perCluster; v < (cl+1)*c.perCluster; v++ {
				if arrived[v] == 0 {
					continue
				}
				half := (c.queues[v].Remaining() + 1) / 2
				if half == 0 {
					continue
				}
				stolen := c.queues[v].Steal(half)
				c.steals++
				if c.scaledLatency > 0 {
					if c.faults != nil && c.faults.SampleLoss() {
						// The parcel is lost in the network. The thief
						// cannot tell: its request stays outstanding until
						// the round-priced timeout fires (crossReady).
						c.flight.Lose(stolen)
						c.loseTasks(stolen)
					} else {
						c.flight.Depart(stolen, g, c.scaledLatency)
					}
					c.pending[g] = c.flight.Clock() + c.scaledLatency
					if c.awaiting != nil {
						c.awaiting[g] = true
					}
				} else {
					c.queues[g].Append(stolen)
				}
				stole = true
				break
			}
		}
	}
}

// crossReady is the loss-aware cross-steal guard for group g, evaluated at a
// barrier when the group arrived dry and found nothing intra-cluster. A
// group whose retry budget is spent has degraded for good. A group with an
// outstanding request waits until the request's round-priced deadline
// (departure clock + scaled latency); any parcel that was going to arrive
// has matured and landed by then — Arrive runs first in the barrier — so an
// outstanding request at its deadline means the parcel was lost: the group
// counts the failure, and either degrades (budget spent) or backs off
// exponentially (fault.Backoff) before the next request. A group inside its
// backoff window also waits.
func (c *Core) crossReady(g int) bool {
	if c.crossDead[g] {
		return false
	}
	clock := c.flight.Clock()
	if c.awaiting[g] {
		if clock < c.pending[g] {
			return false // still within the round-trip price
		}
		// Timeout: the parcel is lost.
		c.awaiting[g] = false
		c.crossFails[g]++
		if c.crossFails[g] > c.retries {
			c.crossDead[g] = true
		} else {
			c.nextCrossAt[g] = clock + fault.Backoff(c.scaledLatency, c.crossFails[g])
		}
		return false
	}
	return clock >= c.nextCrossAt[g]
}

// TakeLost appends every task destroyed since the last call to dst, in
// deterministic loss order, and resets the buffer — TakeCompleted's fault
// twin, recorded only by a tracking Core. Call at a barrier.
func (c *Core) TakeLost(dst []task.Task) []task.Task {
	dst = append(dst, c.lostbuf...)
	c.lostbuf = c.lostbuf[:0]
	return dst
}

// TakeCompleted appends every task completed since the last call to dst, in
// deterministic (group, completion) order, and resets the tracking buffers.
// Only a tracking Core (NewCore with track=true) records completions; call
// at a barrier, where the buffers are quiescent and exact.
func (c *Core) TakeCompleted(dst []task.Task) []task.Task {
	for _, t := range c.track {
		dst = append(dst, t.done...)
		t.done = t.done[:0]
	}
	return dst
}

// trackSource wraps a group queue to record which tasks completed. Takes
// are tentatively appended to the done buffer; a Return — always the most
// recently taken suffix, by the simulator's single-shot shipping discipline
// (a kill returns the slice its period holds; a checkpointed kill returns
// the unsaved suffix of it) — truncates exactly that many entries back off.
// Whatever survives an opportunity has, by then, actually completed.
type trackSource struct {
	bag  *task.Bag
	done []task.Task
}

// TakeInto implements sim.TaskSource.
func (t *trackSource) TakeInto(dst []task.Task, capacity quant.Tick) []task.Task {
	base := len(dst)
	dst = t.bag.TakeInto(dst, capacity)
	t.done = append(t.done, dst[base:]...)
	return dst
}

// Return implements sim.TaskSource.
func (t *trackSource) Return(tasks []task.Task) {
	t.bag.Return(tasks)
	t.done = t.done[:len(t.done)-len(tasks)]
}
