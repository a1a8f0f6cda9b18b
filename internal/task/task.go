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

	"cyclesteal/internal/lazyrand"
	"cyclesteal/internal/quant"
)

// Task is one indivisible unit of data-parallel work. Duration includes the
// marginal input/output transfer time, per the paper's accounting.
type Task struct {
	ID       int
	Duration quant.Tick
}

// Bag is an ordered multiset of pending tasks. Take removes a prefix-greedy
// fitting set; Return puts killed tasks back at the front (they were in
// flight and remain next in line). Bag is not safe for concurrent use; the
// cluster driver gives each workstation its own bag or shards one.
//
// Internally the pending list is buf[head:]: Take consumes by advancing
// head, which leaves headroom that Return refills in place. The
// kill-and-reschedule cycle of the simulator (Take a period's tasks, Return
// them on interrupt) therefore costs O(tasks moved), not O(queue) — the
// difference between linear and quadratic total work on fleet-scale queues
// holding tens of thousands of tasks.
type Bag struct {
	buf    []Task
	head   int
	nextID int
	// minDur is a lower bound on the smallest pending duration (0 when the
	// bag has never held a task). Removals can only raise the true minimum,
	// so the bound stays valid without rescanning; it lets Take reject
	// nothing-fits periods without touching the pending list.
	minDur quant.Tick
}

// NewBag builds a bag from explicit tasks.
func NewBag(tasks []Task) *Bag {
	b := &Bag{}
	b.Reset(tasks)
	return b
}

// Reset empties the bag and refills it with a copy of tasks, reusing the
// bag's storage when it is large enough: a bag reset per opportunity
// allocates nothing once warm. The result is indistinguishable from
// NewBag(tasks).
func (b *Bag) Reset(tasks []Task) {
	if cap(b.buf) < len(tasks) {
		b.buf = make([]Task, len(tasks))
	}
	b.buf = b.buf[:len(tasks)]
	copy(b.buf, tasks)
	b.head, b.nextID, b.minDur = 0, 0, 0
	for _, t := range tasks {
		if t.ID >= b.nextID {
			b.nextID = t.ID + 1
		}
		if b.minDur == 0 || t.Duration < b.minDur {
			b.minDur = t.Duration
		}
	}
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

// Take removes and returns a set of tasks that fits within capacity, scanning
// the bag in order and skipping tasks that do not fit (first-fit). The
// returned tasks' durations sum to at most capacity. Nothing fitting returns
// nil. Callers that can reuse a buffer should prefer TakeInto — Take pays a
// fresh slice per call.
func (b *Bag) Take(capacity quant.Tick) []Task {
	got := b.TakeInto(nil, capacity)
	if len(got) == 0 {
		return nil
	}
	return got
}

// TakeInto is Take appending into the caller's buffer: taken tasks land in
// dst and the extended slice is returned, with dst returned unchanged when
// nothing fits. One warm buffer makes the simulator's per-period task
// shipping allocation-free — the intermediate slice Take materializes per
// call is the single largest allocation source on the farm hot path.
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
// tasks fit in the headroom an earlier Take vacated (the overwhelmingly
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
// its storage must track what it holds, not everything it ever held: once
// the consumed prefix is at least as long as the pending tasks, they slide
// down over it. When the tasks still do not fit, the pending ones move to a
// buffer with room for n more or for as many again as are pending,
// whichever is more — exactly n for an empty bag. A slide copies no more
// tasks than were taken since the last one, and a move at least doubles
// the room for what is pending, so appending stays amortized O(1).
func (b *Bag) reserve(n int) {
	if len(b.buf)+n <= cap(b.buf) {
		return
	}
	pending := len(b.buf) - b.head
	if b.head >= pending {
		copy(b.buf, b.buf[b.head:])
		b.buf, b.head = b.buf[:pending], 0
		if pending+n <= cap(b.buf) {
			return
		}
	}
	grown := make([]Task, pending, pending+max(pending, n))
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
// even when the set is sorted. To fill existing bags, DealInto makes the
// same partition without the hands.
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

// DealInto deals tasks round-robin onto the backs of bags: task i goes to
// bags[i mod len(bags)], the partition Deal makes, and each bag ends up
// exactly as if Append had added its hand. Unlike Deal it builds no
// intermediate hands: it makes one pass over the tasks, and each bag grows
// at most once. bags must not be empty.
func DealInto(bags []*Bag, tasks []Task) {
	if len(tasks) == 0 {
		return
	}
	per, extra := len(tasks)/len(bags), len(tasks)%len(bags)
	for i, b := range bags {
		if i < extra {
			b.reserve(per + 1)
		} else {
			b.reserve(per)
		}
	}
	i := 0
	for _, t := range tasks {
		b := bags[i]
		b.buf = append(b.buf, t)
		if b.minDur == 0 || t.Duration < b.minDur {
			b.minDur = t.Duration
		}
		if i++; i == len(bags) {
			i = 0
		}
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

// Bimodal returns n tasks that are `small` with probability 1−fracLarge and
// `large` otherwise — render-farm style workloads (cheap frames, expensive
// hero frames).
func Bimodal(n int, small, large quant.Tick, fracLarge float64, seed int64) []Task {
	if small < 1 {
		small = 1
	}
	if large < small {
		large = small
	}
	rng := lazyrand.New(seed)
	out := make([]Task, n)
	for i := range out {
		d := small
		if rng.Float64() < fracLarge {
			d = large
		}
		out[i] = Task{ID: i, Duration: d}
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
