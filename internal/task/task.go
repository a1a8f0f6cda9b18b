// Package task models the data-parallel workload the paper's schedules carry:
// a bag of indivisible tasks whose running times are known perfectly and
// include the marginal cost of shipping their inputs and outputs (§2.1).
//
// The fluid model banks t ⊖ c work units per completed period; a real
// data-parallel job banks whole tasks only. The Packer fills each period's
// capacity with tasks and the simulator accounts the difference — the
// quantization loss — which experiment E10 measures against task granularity.
package task

import (
	"fmt"
	"math"

	"cyclesteal/internal/lazyrand"
	"cyclesteal/internal/quant"
)

// Task is one indivisible unit of data-parallel work. Duration includes the
// marginal input/output transfer time, per the paper's accounting.
type Task struct {
	ID       int
	Duration quant.Tick
}

// Bag is an ordered multiset of pending tasks. TakeInto removes a
// prefix-greedy fitting set; Return puts killed tasks back at the front (they were in
// flight and remain next in line). Bag is not safe for concurrent use; the
// farm engine gives each station group its own bag.
//
// Internally the pending list is buf[head:]: TakeInto consumes by advancing
// head, which leaves headroom that Return refills in place. The
// kill-and-reschedule cycle of the simulator (take a period's tasks, Return
// them on interrupt) therefore costs O(tasks moved), not O(queue) — the
// difference between linear and quadratic total work on fleet-scale queues
// holding tens of thousands of tasks.
type Bag struct {
	buf  []Task
	head int
	// minDur is a lower bound on the smallest pending duration (0 when the
	// bag has never held a task). Removals can only raise the true minimum,
	// so the bound stays valid without rescanning; it lets TakeInto reject
	// nothing-fits periods without touching the pending list. A scan that
	// reads to the end of the pending list tightens it: every task it left
	// behind was longer than the residual capacity when skipped, and that
	// capacity only shrank.
	minDur quant.Tick
}

// NewBag builds a bag from a copy of explicit tasks.
func NewBag(tasks []Task) *Bag {
	b := &Bag{buf: make([]Task, len(tasks))}
	copy(b.buf, tasks)
	b.noteAdded(tasks)
	return b
}

// Hand is one queue's share of a dealt job: its tasks in deal order, and
// the smallest of their durations (0 for an empty hand).
type Hand struct {
	Tasks  []Task
	MinDur quant.Tick
}

// Adopt empties the bag and takes h.Tasks as its storage, without a copy:
// the bag then holds exactly what NewBag(h.Tasks) would, and the caller
// must not touch h.Tasks again. h.MinDur must be the smallest duration in
// h.Tasks, as DealInto notes it for a fresh bag: TakeInto stops scanning
// once the residual capacity is below it.
func (b *Bag) Adopt(h Hand) {
	b.buf, b.head, b.minDur = h.Tasks, 0, h.MinDur
}

// pending is the live queue view.
func (b *Bag) pending() []Task { return b.buf[b.head:] }

// noteAdded folds newly added tasks into the min-duration bound.
func (b *Bag) noteAdded(tasks []Task) {
	for _, t := range tasks {
		if b.minDur == 0 || t.Duration < b.minDur {
			b.minDur = t.Duration
		}
	}
}

// Remaining reports how many tasks are still pending.
func (b *Bag) Remaining() int { return len(b.buf) - b.head }

// RemainingWork reports the total duration of pending tasks.
func (b *Bag) RemainingWork() quant.Tick {
	var sum quant.Tick
	for _, t := range b.pending() {
		sum += t.Duration
	}
	return sum
}

// TakeInto removes a set of tasks that fits within capacity and appends it
// to dst, scanning the bag in order and skipping tasks that do not fit
// (first-fit). The taken tasks' durations sum to at most capacity, and dst
// comes back unchanged when nothing fits. One warm buffer makes the
// simulator's per-period task shipping allocation-free.
//
// The scan stops as soon as the residual capacity can fit nothing more
// (durations are ≥ 1), so the common period — a handful of tasks off the
// front of a deep queue — costs O(taken + skipped), not O(pending): consumed
// prefixes slice off without copying and skipped tasks compact in place.
// That bound is what keeps fleet-scale jobs (millions of pending tasks)
// linear instead of quadratic in the task count.
func (b *Bag) TakeInto(dst []Task, capacity quant.Tick) []Task {
	pending := b.pending()
	if capacity < 1 || capacity < b.minDur || len(pending) == 0 {
		return dst
	}
	base := len(dst)
	w := 0 // skipped tasks compact to pending[:w] as the scan advances
	i := 0
	for ; i < len(pending); i++ {
		t := pending[i]
		if t.Duration <= capacity {
			dst = append(dst, t)
			capacity -= t.Duration
			if capacity < 1 || capacity < b.minDur {
				// Nothing pending can be smaller than minDur: the period is
				// as full as first-fit can make it, stop hunting.
				i++
				break
			}
		} else {
			// Skipped: compact in place (w ≤ i always, so nothing unread is
			// clobbered). No side buffer, no allocation.
			pending[w] = t
			w++
		}
	}
	if i == len(pending) && capacity >= b.minDur {
		b.minDur = capacity + 1
	}
	if len(dst) == base {
		return dst
	}
	if w > 0 {
		// Slide the skipped run back in front of the unscanned tail
		// (overlap-safe: copy is memmove).
		copy(pending[i-w:i], pending[:w])
	}
	b.head += i - w
	return dst
}

// Return puts tasks back at the front of the bag, preserving their order —
// used when an interrupt kills the period that was running them. When the
// tasks fit in the headroom an earlier TakeInto vacated (the overwhelmingly
// common case: a kill returns what was just taken), they are copied back in
// place with no allocation.
func (b *Bag) Return(tasks []Task) {
	if len(tasks) == 0 {
		return
	}
	if n := len(tasks); b.head >= n {
		b.head -= n
		copy(b.buf[b.head:], tasks)
	} else {
		pending := b.pending()
		b.buf = append(append(make([]Task, 0, len(tasks)+len(pending)), tasks...), pending...)
		b.head = 0
	}
	b.noteAdded(tasks)
}

// Append adds tasks at the back of the bag — the landing spot for work
// migrated in from another queue (front is reserved for killed in-flight
// tasks, which stay next in line).
func (b *Bag) Append(tasks []Task) {
	b.reserve(len(tasks))
	b.buf = append(b.buf, tasks...)
	b.noteAdded(tasks)
}

// reserve makes room for n more tasks at the back. A resident queue takes
// from the front and is refilled at the back for as long as it lives, so
// its storage must track what it holds, not everything it ever held. When
// the tasks do not fit, the pending ones move to the front of a buffer
// with room for n more or for as many again as are pending, whichever is
// more — exactly n for an empty bag: they slide down in place when the
// bag's own storage is that large, and move to a buffer of exactly that
// size otherwise. Either way the free room after a copy is at least what
// was copied, so appending stays amortized O(1).
func (b *Bag) reserve(n int) {
	if len(b.buf)+n <= cap(b.buf) {
		return
	}
	pending := len(b.buf) - b.head
	want := pending + max(pending, n)
	if want <= cap(b.buf) {
		copy(b.buf, b.buf[b.head:])
		b.buf, b.head = b.buf[:pending], 0
		return
	}
	grown := make([]Task, pending, want)
	copy(grown, b.pending())
	b.buf, b.head = grown, 0
}

// Steal removes and returns up to n tasks from the back of the bag, in bag
// order — deque semantics: the owner drains the front, a thief takes the
// back, so the two interleave minimally.
func (b *Bag) Steal(n int) []Task {
	pending := b.pending()
	if n < 1 || len(pending) == 0 {
		return nil
	}
	if n > len(pending) {
		n = len(pending)
	}
	cut := len(pending) - n
	stolen := append([]Task(nil), pending[cut:]...)
	b.buf = b.buf[:b.head+cut]
	return stolen
}

// Deal splits a task set into n hands by round-robin on task index — the
// deterministic partition every farm layout starts from. Task i lands in
// hand i mod n, so the split is a pure function of (tasks, n): independent
// of worker scheduling, and every hand sees a representative duration mix
// even when the set is sorted. The library never builds these hands from a
// task list: DealInto makes the same partition into existing bags, and
// Quantize puts a job in caller units straight into it (see Bag.Adopt).
// Deal is the reference both are tested against.
func Deal(tasks []Task, n int) [][]Task {
	if n < 1 {
		n = 1
	}
	hands := make([][]Task, n)
	per := len(tasks)/n + 1
	for h := range hands {
		hands[h] = make([]Task, 0, per)
	}
	for i, t := range tasks {
		hands[i%n] = append(hands[i%n], t)
	}
	return hands
}

// Quantize puts a job's durations, in caller units, on the grid g and deals
// them round-robin into hands as it goes: task i, with ID i, lands at
// hands[i mod G].Tasks[i div G] for G = len(hands), the partition Deal
// makes, and each hand's MinDur becomes the smallest duration it got. Each
// hand's Tasks must come sized to exactly its share, and its MinDur 0. It
// returns the job's total ticks. It refuses what g.Ticks refuses, and a job
// whose total overflows a quant.Tick; the error names the first such task,
// for the caller to prefix with its package. Every job in caller units
// enters the tick grid through its loop, QuantizeRange.
func Quantize(hands []Hand, durations []float64, g quant.Grid) (quant.Tick, error) {
	work, stop := QuantizeRange(hands, 0, len(hands), durations, g)
	if stop < 0 {
		return work, nil
	}
	// Ticks runs only on a refusal, to name its cause; a task it accepts
	// stopped the loop by overflowing the total.
	if _, err := g.Ticks(durations[stop]); err != nil {
		return 0, fmt.Errorf("task %d duration %w", stop, err)
	}
	return 0, fmt.Errorf("task %d: the job's total duration overflows the tick grid", stop)
}

// QuantizeRange is Quantize's loop over the hands [lo, hi), lo < hi: it
// visits their tasks in task order, a row of len(hands) tasks at a time, and
// returns their total ticks and −1, or the index of the first task that
// g.Ticks refuses or whose ticks overflow the range's total.
func QuantizeRange(hands []Hand, lo, hi int, durations []float64, g quant.Grid) (quant.Tick, int) {
	// The rule as GridTicks of three floats: no method of g inlines here.
	setup, perSetup := g.Setup, float64(g.TicksPerSetup)
	var work quant.Tick
	skip := len(hands) - (hi - lo) // the other hands' tasks in each row
	h, row := lo, 0
	for i := lo; i < len(durations); i++ {
		t, ok := quant.GridTicks(durations[i], setup, perSetup)
		if !ok {
			return 0, i
		}
		hand := &hands[h]
		hand.Tasks[row] = Task{ID: i, Duration: t}
		if hand.MinDur == 0 || t < hand.MinDur {
			hand.MinDur = t
		}
		if work > math.MaxInt64-t {
			return 0, i
		}
		work += t
		if h++; h == hi {
			h, row, i = lo, row+1, i+skip
		}
	}
	return work, -1
}

// DealInto deals tasks round-robin onto the backs of bags: task i goes to
// bags[i mod len(bags)], the partition Deal makes, and each bag ends up
// exactly as if Append had added its hand. Unlike Deal it builds no
// intermediate hands. It fills one bag at a time: the bag grows at most
// once (not at all when its storage has room), takes tasks i, i+len(bags),
// … in one strided pass, folds their durations into its minimum in a local
// and sets its length and minimum once. Interleaving the bags task by task
// would write every bag's header once per task. Every plain task list
// enters the farm's queues through it: a plain job's run or replication
// trial, a service arrival, a departed group's drained queue. bags must
// not be empty.
func DealInto(bags []*Bag, tasks []Task) {
	if len(tasks) == 0 {
		return
	}
	per, extra := len(tasks)/len(bags), len(tasks)%len(bags)
	for i, b := range bags {
		n := per
		if i < extra {
			n++
		}
		if n == 0 {
			return // bags past the first len(tasks) get nothing
		}
		b.reserve(n)
		at := len(b.buf)
		hand := b.buf[at : at+n]
		minDur := b.minDur
		for k, j := 0, i; k < n; k, j = k+1, j+len(bags) {
			t := tasks[j]
			hand[k] = t
			if minDur == 0 || t.Duration < minDur {
				minDur = t.Duration
			}
		}
		b.buf, b.minDur = b.buf[:at+n], minDur
	}
}

// CompletedPrefix returns the length of the longest prefix of tasks that
// runs to completion within the first done ticks of a period's useful work.
// Tasks execute sequentially in shipping order, so the tasks an intra-period
// checkpoint at work-offset done has saved are exactly this prefix — the
// simulator banks them and returns only the suffix to the bag on a kill.
func CompletedPrefix(tasks []Task, done quant.Tick) int {
	n := 0
	for _, t := range tasks {
		if t.Duration > done {
			break
		}
		done -= t.Duration
		n++
	}
	return n
}

// Durations sums the durations of a task set.
func Durations(tasks []Task) quant.Tick {
	var sum quant.Tick
	for _, t := range tasks {
		sum += t.Duration
	}
	return sum
}

// --- generators ---------------------------------------------------------------

// Fixed returns n tasks of identical duration d — the workload shape of the
// coscheduling auction baseline [1].
func Fixed(n int, d quant.Tick) []Task {
	if d < 1 {
		d = 1
	}
	out := make([]Task, n)
	for i := range out {
		out[i] = Task{ID: i, Duration: d}
	}
	return out
}

// Uniform returns n tasks with durations uniform in [lo, hi].
func Uniform(n int, lo, hi quant.Tick, seed int64) []Task {
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	rng := lazyrand.New(seed)
	out := make([]Task, n)
	for i := range out {
		out[i] = Task{ID: i, Duration: lo + quant.Tick(rng.Int63n(int64(hi-lo+1)))}
	}
	return out
}

// Exponential returns n tasks with (clamped) exponentially distributed
// durations of the given mean — heavy-ish tails without unbounded outliers.
func Exponential(n int, mean float64, seed int64) []Task {
	if mean < 1 {
		mean = 1
	}
	rng := lazyrand.New(seed)
	out := make([]Task, n)
	for i := range out {
		d := quant.Tick(rng.ExpFloat64() * mean)
		if d < 1 {
			d = 1
		}
		out[i] = Task{ID: i, Duration: d}
	}
	return out
}

// Validate checks a task set for legal durations and distinct IDs.
func Validate(tasks []Task) error {
	seen := make(map[int]bool, len(tasks))
	for i, t := range tasks {
		if t.Duration < 1 {
			return fmt.Errorf("task: task %d (index %d) has illegal duration %d", t.ID, i, t.Duration)
		}
		if seen[t.ID] {
			return fmt.Errorf("task: duplicate task ID %d", t.ID)
		}
		seen[t.ID] = true
	}
	return nil
}
