package task

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cyclesteal/internal/lazyrand"
	"cyclesteal/internal/quant"
)

func TestNewBagAndRemaining(t *testing.T) {
	b := NewBag(Fixed(5, 10))
	if b.Remaining() != 5 {
		t.Errorf("Remaining = %d, want 5", b.Remaining())
	}
	if b.RemainingWork() != 50 {
		t.Errorf("RemainingWork = %d, want 50", b.RemainingWork())
	}
}

func TestTakeRespectsCapacity(t *testing.T) {
	b := NewBag(Fixed(10, 7))
	got := b.TakeInto(nil, 20) // fits 2 tasks of 7 (14), third would exceed
	if len(got) != 2 || Durations(got) != 14 {
		t.Errorf("Take(20) = %v (total %d), want 2 tasks totalling 14", got, Durations(got))
	}
	if b.Remaining() != 8 {
		t.Errorf("Remaining = %d, want 8", b.Remaining())
	}
}

func TestTakeFirstFitSkipsOversized(t *testing.T) {
	b := NewBag([]Task{{ID: 0, Duration: 50}, {ID: 1, Duration: 5}, {ID: 2, Duration: 5}})
	got := b.TakeInto(nil, 12)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Errorf("Take(12) = %v, want tasks 1 and 2", got)
	}
	if b.Remaining() != 1 || b.RemainingWork() != 50 {
		t.Errorf("big task should remain, got %d tasks / %d work", b.Remaining(), b.RemainingWork())
	}
}

func TestTakeEdgeCases(t *testing.T) {
	b := NewBag(Fixed(3, 10))
	if got := b.TakeInto(nil, 0); got != nil {
		t.Errorf("Take(0) = %v, want nil", got)
	}
	if got := b.TakeInto(nil, 5); got != nil {
		t.Errorf("Take(5) with all tasks of 10 = %v, want nil", got)
	}
	empty := NewBag(nil)
	if got := empty.TakeInto(nil, 100); got != nil {
		t.Errorf("Take from empty bag = %v, want nil", got)
	}
}

func TestReturnPutsTasksAtFront(t *testing.T) {
	b := NewBag([]Task{{ID: 0, Duration: 5}, {ID: 1, Duration: 5}})
	taken := b.TakeInto(nil, 5)
	if len(taken) != 1 || taken[0].ID != 0 {
		t.Fatalf("Take = %v", taken)
	}
	b.Return(taken)
	again := b.TakeInto(nil, 5)
	if len(again) != 1 || again[0].ID != 0 {
		t.Errorf("returned task should be next in line, got %v", again)
	}
	b.Return(nil) // no-op
	if b.Remaining() != 1 {
		t.Errorf("Remaining = %d, want 1", b.Remaining())
	}
}

func TestTakeReturnConservesWork(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tasks := uniform(30, 1, 40, seed)
		b := NewBag(tasks)
		totalBefore := b.RemainingWork()
		var inFlight []Task
		for i := 0; i < 10; i++ {
			cap := quant.Tick(1 + rng.Int63n(100))
			got := b.TakeInto(nil, cap)
			if Durations(got) > cap {
				return false
			}
			if rng.Intn(2) == 0 {
				b.Return(got) // killed period
			} else {
				inFlight = append(inFlight, got...) // completed
			}
		}
		return b.RemainingWork()+Durations(inFlight) == totalBefore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFixedGenerator(t *testing.T) {
	tasks := Fixed(4, 25)
	if len(tasks) != 4 {
		t.Fatalf("len = %d", len(tasks))
	}
	for _, tk := range tasks {
		if tk.Duration != 25 {
			t.Errorf("duration %d, want 25", tk.Duration)
		}
	}
	if err := Validate(tasks); err != nil {
		t.Error(err)
	}
	if Fixed(1, 0)[0].Duration != 1 {
		t.Error("Fixed should clamp duration to ≥ 1")
	}
}

// uniform returns n tasks with durations uniform in [lo, hi]: the varied
// task lists the bag tests draw.
func uniform(n int, lo, hi quant.Tick, seed int64) []Task {
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

// exponential returns n tasks with (clamped) exponentially distributed
// durations of the given mean — heavy-ish tails without unbounded outliers.
func exponential(n int, mean float64, seed int64) []Task {
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

func TestUniformGenerator(t *testing.T) {
	tasks := uniform(200, 5, 15, 42)
	if err := Validate(tasks); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tasks {
		if tk.Duration < 5 || tk.Duration > 15 {
			t.Errorf("duration %d outside [5,15]", tk.Duration)
		}
	}
	// Deterministic for a fixed seed.
	again := uniform(200, 5, 15, 42)
	for i := range tasks {
		if tasks[i] != again[i] {
			t.Fatal("Uniform not deterministic for fixed seed")
		}
	}
	// Degenerate bounds.
	for _, tk := range uniform(5, 9, 3, 1) {
		if tk.Duration != 9 {
			t.Errorf("hi<lo should clamp to lo, got %d", tk.Duration)
		}
	}
	if uniform(1, 0, 0, 1)[0].Duration != 1 {
		t.Error("lo<1 should clamp to 1")
	}
}

func TestExponentialGenerator(t *testing.T) {
	tasks := exponential(1000, 20, 3)
	if err := Validate(tasks); err != nil {
		t.Fatal(err)
	}
	var sum quant.Tick
	for _, tk := range tasks {
		sum += tk.Duration
	}
	mean := float64(sum) / 1000
	if mean < 15 || mean > 25 {
		t.Errorf("sample mean %g, want ≈ 20", mean)
	}
	if exponential(1, 0, 1)[0].Duration < 1 {
		t.Error("durations must be ≥ 1")
	}
}

func TestValidate(t *testing.T) {
	if err := Validate([]Task{{ID: 1, Duration: 0}}); err == nil {
		t.Error("zero duration accepted")
	}
	if err := Validate([]Task{{ID: 1, Duration: 5}, {ID: 1, Duration: 5}}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := Validate(nil); err != nil {
		t.Errorf("empty set rejected: %v", err)
	}
}

func TestDurations(t *testing.T) {
	if Durations(nil) != 0 {
		t.Error("Durations(nil) != 0")
	}
	if Durations([]Task{{Duration: 3}, {Duration: 4}}) != 7 {
		t.Error("Durations sum wrong")
	}
}

func TestDealRoundRobin(t *testing.T) {
	tasks := Fixed(10, 5)
	hands := Deal(tasks, 3)
	if len(hands) != 3 {
		t.Fatalf("hands = %d", len(hands))
	}
	sizes := []int{len(hands[0]), len(hands[1]), len(hands[2])}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Errorf("hand sizes %v, want [4 3 3]", sizes)
	}
	for h, hand := range hands {
		for j, task := range hand {
			if task.ID != h+3*j {
				t.Errorf("hand %d[%d] = task %d, want %d", h, j, task.ID, h+3*j)
			}
		}
	}
	if got := Deal(nil, 0); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("degenerate deal: %v", got)
	}
}

func TestBagStealAndAppend(t *testing.T) {
	b := NewBag(Fixed(6, 2)) // IDs 0..5
	stolen := b.Steal(2)
	if len(stolen) != 2 || stolen[0].ID != 4 || stolen[1].ID != 5 {
		t.Fatalf("steal from the back: %v", stolen)
	}
	if b.Remaining() != 4 {
		t.Fatalf("remaining %d", b.Remaining())
	}
	// Over-asking drains what's there; asking nothing steals nothing.
	if got := b.Steal(100); len(got) != 4 {
		t.Errorf("over-steal: %v", got)
	}
	if got := b.Steal(1); got != nil {
		t.Errorf("steal from empty: %v", got)
	}
	b.Append(stolen)
	if b.Remaining() != 2 || b.RemainingWork() != 4 {
		t.Errorf("append: %d tasks, %d work", b.Remaining(), b.RemainingWork())
	}
	// Returned (killed) tasks still jump the queue ahead of appended ones.
	b.Return([]Task{{ID: 99, Duration: 1}})
	front := b.TakeInto(nil, 1)
	if len(front) != 1 || front[0].ID != 99 {
		t.Errorf("killed task not at the front: %v", front)
	}
}

// TakeInto into a reused buffer must agree exactly with TakeInto into a
// fresh one (same tasks, same bag mutation).
func TestTakeIntoMatchesTake(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		tasks := uniform(1+rng.Intn(40), 1, 30, int64(trial))
		a := NewBag(tasks)
		b := NewBag(tasks)
		buf := make([]Task, 0, 8)
		for step := 0; step < 30; step++ {
			cap := quant.Tick(rng.Int63n(60))
			want := a.TakeInto(nil, cap)
			buf = b.TakeInto(buf[:0], cap)
			if len(want) != len(buf) {
				t.Fatalf("trial %d step %d: fresh buffer took %d tasks, reused buffer %d", trial, step, len(want), len(buf))
			}
			for i := range want {
				if want[i] != buf[i] {
					t.Fatalf("trial %d step %d: task %d = %+v vs %+v", trial, step, i, buf[i], want[i])
				}
			}
			if a.Remaining() != b.Remaining() {
				t.Fatalf("trial %d step %d: remaining %d vs %d", trial, step, a.Remaining(), b.Remaining())
			}
			if rng.Intn(3) == 0 && len(want) > 0 {
				a.Return(want)
				b.Return(buf)
				if a.Remaining() != b.Remaining() {
					t.Fatalf("trial %d step %d: remaining after return %d vs %d", trial, step, a.Remaining(), b.Remaining())
				}
			}
		}
	}
}

func TestTakeIntoPreservesPrefixAndReusesBuffer(t *testing.T) {
	b := NewBag(Fixed(10, 5))
	buf := make([]Task, 0, 16)
	buf = append(buf, Task{ID: 99, Duration: 1})
	buf = b.TakeInto(buf, 10) // two tasks of 5
	if len(buf) != 3 || buf[0].ID != 99 {
		t.Fatalf("prefix clobbered or wrong count: %v", buf)
	}
	// Nothing fits: the buffer comes back unchanged.
	before := len(buf)
	buf = b.TakeInto(buf, 1)
	if len(buf) != before {
		t.Errorf("no-fit TakeInto changed the buffer: %v", buf)
	}
	// A warm buffer with capacity must not allocate.
	warm := make([]Task, 0, 64)
	bag := NewBag(Fixed(1000, 5))
	allocs := testing.AllocsPerRun(20, func() {
		warm = bag.TakeInto(warm[:0], 25)
	})
	if allocs != 0 {
		t.Errorf("warm TakeInto allocates %.1f per call", allocs)
	}
}

// BenchmarkBagTakeInto measures the kill/reschedule cycle (take a period's
// worth into a reused buffer, return it) that dominates the simulator's
// contended path.
func BenchmarkBagTakeInto(b *testing.B) {
	tasks := uniform(5000, 5, 50, 1)
	bag := NewBag(tasks)
	var buf []Task
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = bag.TakeInto(buf[:0], 200)
		bag.Return(buf)
	}
}

// BenchmarkDealInto deals a 20,000-task arrival onto 64 group queues whose
// storage already has room, as a resident service's activation of a job
// does.
func BenchmarkDealInto(b *testing.B) {
	tasks := uniform(20000, 1, 50, 1)
	bags := make([]*Bag, 64)
	for i := range bags {
		bags[i] = &Bag{}
	}
	DealInto(bags, tasks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bag := range bags {
			bag.buf, bag.head, bag.minDur = bag.buf[:0], 0, 0
		}
		DealInto(bags, tasks)
	}
}

func TestCompletedPrefix(t *testing.T) {
	tasks := []Task{{ID: 0, Duration: 15}, {ID: 1, Duration: 20}, {ID: 2, Duration: 30}}
	cases := []struct {
		done quant.Tick
		want int
	}{
		{0, 0}, {14, 0}, {15, 1}, {34, 1}, {35, 2}, {64, 2}, {65, 3}, {1000, 3},
	}
	for _, tc := range cases {
		if got := CompletedPrefix(tasks, tc.done); got != tc.want {
			t.Errorf("CompletedPrefix(done=%d) = %d, want %d", tc.done, got, tc.want)
		}
	}
	if got := CompletedPrefix(nil, 100); got != 0 {
		t.Errorf("CompletedPrefix(nil) = %d, want 0", got)
	}
}

// DealInto must leave every bag exactly as Deal's hands appended one by one
// would: same pending tasks in the same order, same min-duration bound, and
// so the same Take results from then on — on bags that already hold tasks
// behind a consumed prefix, with more bags than tasks, and for an empty job.
func TestDealIntoMatchesDealAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// used builds k bags that have been taken from, returned to and stolen
	// from; the same seed builds the same bags.
	used := func(k int, seed int64) []*Bag {
		r := rand.New(rand.NewSource(seed))
		bags := make([]*Bag, k)
		for i := range bags {
			bags[i] = NewBag(uniform(r.Intn(30), 1, 40, seed+int64(i)))
			for step := r.Intn(6); step > 0; step-- {
				got := bags[i].TakeInto(nil, quant.Tick(r.Intn(90)))
				if r.Intn(3) == 0 {
					bags[i].Return(got)
				}
			}
			bags[i].Steal(r.Intn(3))
		}
		return bags
	}
	// check deals tasks into got and, by Deal and Append, into want, which
	// must hold equal bags; and into three fresh bags, each sized once.
	check := func(label string, want, got []*Bag, tasks []Task) {
		t.Helper()
		for i, hand := range Deal(tasks, len(want)) {
			want[i].Append(hand)
		}
		DealInto(got, tasks)
		fresh := []*Bag{NewBag(nil), NewBag(nil), NewBag(nil)}
		DealInto(fresh, tasks)
		for i, b := range fresh {
			if cap(b.buf) != len(b.buf) {
				t.Fatalf("%s: empty bag %d grew to %d for its %d tasks; DealInto sizes each bag once", label, i, cap(b.buf), len(b.buf))
			}
		}
		for i := range got {
			g, w := got[i], want[i]
			if !equalTasks(g.pending(), w.pending()) || g.minDur != w.minDur {
				t.Fatalf("%s bag %d: DealInto left %v (min %d), Deal+Append %v (min %d)", label, i, g.pending(), g.minDur, w.pending(), w.minDur)
			}
			if g.Remaining() != w.Remaining() || g.RemainingWork() != w.RemainingWork() {
				t.Fatalf("%s bag %d: %d tasks/%d work, want %d/%d", label, i, g.Remaining(), g.RemainingWork(), w.Remaining(), w.RemainingWork())
			}
			for capacity := quant.Tick(1); w.Remaining() > 0; capacity += 7 {
				if gt, wt := g.TakeInto(nil, capacity), w.TakeInto(nil, capacity); !equalTasks(gt, wt) {
					t.Fatalf("%s bag %d: Take(%d) = %v, want %v", label, i, capacity, gt, wt)
				}
			}
			if g.Remaining() != 0 {
				t.Fatalf("%s bag %d: %d tasks left over", label, i, g.Remaining())
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(9)
		n := rng.Intn(40)
		switch trial % 3 {
		case 1:
			n = rng.Intn(k) // more bags than tasks (possibly none)
		case 2:
			n = 0
		}
		check(fmt.Sprintf("trial %d", trial), used(k, int64(trial)), used(k, int64(trial)), uniform(n, 1, 50, int64(trial)))
	}

	// Explicit shapes. Task counts: fewer than the bags, one per bag, and
	// one short of or past whole rows. Bags: ones whose pending list starts
	// past the front of their storage (head > 0), full ones that must grow,
	// and ones with room to spare.
	shapes := map[string]func(k int, seed int64) []*Bag{
		"head": func(k int, seed int64) []*Bag {
			bags := make([]*Bag, k)
			for i := range bags {
				bags[i] = NewBag(uniform(12, 1, 40, seed+int64(i)))
				bags[i].TakeInto(nil, 100)
				if bags[i].head == 0 {
					t.Fatalf("bag %d took nothing; the head > 0 shape needs a taken prefix", i)
				}
			}
			return bags
		},
		"full": func(k int, seed int64) []*Bag {
			bags := make([]*Bag, k)
			for i := range bags {
				bags[i] = NewBag(uniform(i%3, 1, 40, seed+int64(i))) // cap == len: a deal must grow it
			}
			return bags
		},
		"roomy": func(k int, seed int64) []*Bag {
			bags := make([]*Bag, k)
			for i := range bags {
				bags[i] = &Bag{buf: make([]Task, 0, 64)}
				bags[i].Append(uniform(3, 20, 40, seed+int64(i)))
			}
			return bags
		},
	}
	for name, build := range shapes {
		for k := 1; k <= 9; k++ {
			for _, n := range []int{k - 1, k, k + 1, 2*k - 1, 2 * k, 2*k + 1, 5*k - 1, 5*k + 1} {
				seed := int64(100*k + n)
				label := fmt.Sprintf("%s bags, %d of them, %d tasks", name, k, n)
				check(label, build(k, seed), build(k, seed), uniform(n, 1, 50, seed))
			}
		}
	}
}

func equalTasks(a, b []Task) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A resident queue is refilled at the back and drained from the front for
// as long as it lives; its storage must track what it holds, not grow with
// every task it ever held.
func TestAppendKeepsStorageBounded(t *testing.T) {
	b := NewBag(nil)
	hundred, buf := Fixed(100, 3), make([]Task, 0, 100)
	refill := func() {
		b.Append(hundred)
		buf = b.TakeInto(buf[:0], 300)
	}
	for cycle := 0; cycle < 1000; cycle++ {
		refill()
		if len(buf) != 100 || b.Remaining() != 0 {
			t.Fatalf("cycle %d: took %d tasks, %d left", cycle, len(buf), b.Remaining())
		}
		if c := cap(b.buf); c > 200 {
			t.Fatalf("cycle %d: 100 tasks at a time, but the bag's storage grew to %d", cycle, c)
		}
	}
	if allocs := testing.AllocsPerRun(100, refill); allocs != 0 {
		t.Errorf("warm append-100/take-all cycle allocates %.1f per call", allocs)
	}
	// A steady queue that takes one task and gets one back keeps its storage
	// within twice what it holds, and stops allocating once warm.
	b = NewBag(Fixed(500, 3))
	one, buf := Fixed(1, 3), make([]Task, 0, 1)
	cycle := func() {
		buf = b.TakeInto(buf[:0], 3)
		b.Append(one)
	}
	for i := 0; i < 5000; i++ {
		cycle()
	}
	if c := cap(b.buf); c > 2*500+1 {
		t.Fatalf("steady 500-task queue holds storage for %d", c)
	}
	if allocs := testing.AllocsPerRun(2000, cycle); allocs != 0 {
		t.Errorf("warm take-one/append-one cycle allocates %.2f per call", allocs)
	}
	// A deep queue that takes 300 tasks and gets 300 back slides its 500
	// pending ones down in its own storage: no fresh buffer per cycle once
	// warm, and storage within twice what is pending plus what arrives.
	b = NewBag(Fixed(800, 3))
	batch := Fixed(300, 3)
	buf = make([]Task, 0, len(batch))
	cycle = func() {
		buf = b.TakeInto(buf[:0], 900)
		b.Append(batch)
	}
	for i := 0; i < 100; i++ {
		cycle()
		if len(buf) != 300 || b.Remaining() != 800 {
			t.Fatalf("cycle %d: took %d tasks, %d left", i, len(buf), b.Remaining())
		}
	}
	if c := cap(b.buf); c > 2*500+300 {
		t.Fatalf("steady 800-task queue cycling 300 tasks holds storage for %d", c)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm take-300/append-300 cycle allocates %.2f per call", allocs)
	}
}

// refBag is the reference model for Bag: a plain slice in pending order,
// with first-fit taking written the naive way — scan everything, keep what
// fits, leave the rest in order.
type refBag struct{ tasks []Task }

func (m *refBag) take(capacity quant.Tick) []Task {
	var got, rest []Task
	for _, t := range m.tasks {
		if t.Duration <= capacity {
			got = append(got, t)
			capacity -= t.Duration
		} else {
			rest = append(rest, t)
		}
	}
	m.tasks = rest
	return got
}

func (m *refBag) steal(n int) []Task {
	n = min(max(n, 0), len(m.tasks))
	cut := len(m.tasks) - n
	stolen := append([]Task(nil), m.tasks[cut:]...)
	m.tasks = m.tasks[:cut]
	return stolen
}

func sameTasks(a, b []Task) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hand is tasks as a batch run's queue adopts its dealt hand: no headroom
// (cap == len), and the exact minimum.
func hand(tasks []Task) Hand {
	h := Hand{Tasks: tasks[:len(tasks):len(tasks)]}
	for _, t := range tasks {
		if h.MinDur == 0 || t.Duration < h.MinDur {
			h.MinDur = t.Duration
		}
	}
	return h
}

// TestBagMatchesReferenceModel drives random sequences of every Bag
// operation — Take, TakeInto, Return, Append, Steal, Adopt and DealInto —
// against refBag, starting from a copied or an adopted task list and now
// and then replacing a bag with a fresh NewBag. After each step it checks
// that both took the same tasks in the same order and hold the same
// pending queue, Remaining and RemainingWork.
// It also checks the one piece of hidden state: minDur must never exceed
// the true pending minimum, or TakeInto would stop scanning while a task
// still fits.
func TestBagMatchesReferenceModel(t *testing.T) {
	const nbags = 3
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nextID := 0
		fresh := func(n int) []Task {
			out := make([]Task, n)
			for i := range out {
				out[i] = Task{ID: nextID, Duration: quant.Tick(1 + rng.Intn(20))}
				nextID++
			}
			return out
		}
		bags := make([]*Bag, nbags)
		refs := make([]*refBag, nbags)
		for i := range bags {
			init := fresh(rng.Intn(12))
			refs[i] = &refBag{tasks: append([]Task(nil), init...)}
			if rng.Intn(2) == 0 {
				bags[i] = NewBag(init)
			} else {
				bags[i] = new(Bag)
				bags[i].Adopt(hand(init))
			}
		}
		var held [nbags][]Task // taken and not yet returned, per bag
		for step := 0; step < 400; step++ {
			i := rng.Intn(nbags)
			b, m := bags[i], refs[i]
			var op string
			switch k := rng.Intn(8); k {
			case 0, 1:
				capacity := quant.Tick(rng.Intn(60))
				op = "Take"
				var got []Task
				if k == 0 {
					got = b.TakeInto(nil, capacity)
					if got != nil && len(got) == 0 {
						t.Fatalf("seed %d step %d: Take returned an empty non-nil slice", seed, step)
					}
				} else {
					op = "TakeInto"
					prefix := []Task{{ID: -1, Duration: 7}}
					got = b.TakeInto(prefix, capacity)
					if got[0] != prefix[0] {
						t.Fatalf("seed %d step %d: TakeInto clobbered dst's prefix", seed, step)
					}
					got = got[1:]
				}
				want := m.take(capacity)
				if !sameTasks(got, want) {
					t.Fatalf("seed %d step %d: %s(%d) took %v, model took %v", seed, step, op, capacity, got, want)
				}
				held[i] = append(held[i], got...)
			case 2:
				op = "Return"
				// Return a suffix of what was taken (a killed period's
				// tasks) or, now and then, tasks the bag never held; then
				// clobber the caller's slice: the bag must have copied
				// what it keeps.
				var back []Task
				if rng.Intn(4) == 0 {
					back = fresh(rng.Intn(4))
				} else {
					n := rng.Intn(len(held[i]) + 1)
					back = append(back, held[i][len(held[i])-n:]...)
					held[i] = held[i][:len(held[i])-n]
				}
				b.Return(back)
				m.tasks = append(append([]Task(nil), back...), m.tasks...)
				for j := range back {
					back[j] = Task{ID: -2, Duration: 1}
				}
			case 3:
				op = "Append"
				add := fresh(rng.Intn(10))
				b.Append(add)
				m.tasks = append(m.tasks, add...)
			case 4:
				op = "Steal"
				n := rng.Intn(8) - 1
				got, want := b.Steal(n), m.steal(n)
				if !sameTasks(got, want) {
					t.Fatalf("seed %d step %d: Steal(%d) = %v, model %v", seed, step, n, got, want)
				}
			case 5:
				op = "NewBag"
				init := fresh(rng.Intn(15))
				m.tasks = append([]Task(nil), init...)
				if rng.Intn(2) == 0 {
					bags[i] = NewBag(init)
				} else {
					op = "Adopt"
					b.Adopt(hand(init))
				}
				held[i] = nil
			default:
				op = "DealInto"
				add := fresh(rng.Intn(25))
				DealInto(bags, add)
				for j, task := range add {
					refs[j%nbags].tasks = append(refs[j%nbags].tasks, task)
				}
			}
			for j := range bags {
				b, m := bags[j], refs[j]
				if !sameTasks(b.pending(), m.tasks) {
					t.Fatalf("seed %d step %d after %s: bag %d pending %v, model %v", seed, step, op, j, b.pending(), m.tasks)
				}
				var work quant.Tick
				low := quant.Tick(0)
				for _, task := range m.tasks {
					work += task.Duration
					if low == 0 || task.Duration < low {
						low = task.Duration
					}
				}
				if b.Remaining() != len(m.tasks) || b.RemainingWork() != work {
					t.Fatalf("seed %d step %d after %s: bag %d holds %d tasks / %d work, model %d / %d",
						seed, step, op, j, b.Remaining(), b.RemainingWork(), len(m.tasks), work)
				}
				if len(m.tasks) > 0 && b.minDur > low {
					t.Fatalf("seed %d step %d after %s: bag %d minDur %d exceeds the pending minimum %d", seed, step, op, j, b.minDur, low)
				}
			}
		}
	}
}

// TestTakeIntoTightensMinDurAfterFullScan pins the bound a scan to the end
// of the pending list leaves behind: every task still pending is longer
// than the residual capacity, so minDur rises to that capacity plus one,
// and a later call with no more room returns without reading the list.
func TestTakeIntoTightensMinDurAfterFullScan(t *testing.T) {
	b := NewBag([]Task{{ID: 0, Duration: 3}, {ID: 1, Duration: 8}, {ID: 2, Duration: 9}})
	if got := b.TakeInto(nil, 3); !sameTasks(got, []Task{{ID: 0, Duration: 3}}) {
		t.Fatalf("TakeInto(3) took %v, want the 3", got)
	}
	if got := b.TakeInto(nil, 5); len(got) != 0 {
		t.Fatalf("TakeInto(5) took %v, want nothing", got)
	}
	if b.minDur != 6 {
		t.Fatalf("after a scan that fit nothing into 5, minDur = %d, want 6", b.minDur)
	}
	// A scan that takes a task and still reads to the end tightens it too.
	b = NewBag([]Task{{ID: 0, Duration: 2}, {ID: 1, Duration: 9}, {ID: 2, Duration: 8}})
	if got := b.TakeInto(nil, 7); !sameTasks(got, []Task{{ID: 0, Duration: 2}}) {
		t.Fatalf("TakeInto(7) took %v, want the 2", got)
	}
	if b.minDur != 6 {
		t.Fatalf("after a scan that left 5 of 7 unused, minDur = %d, want 6", b.minDur)
	}
}

// TestCheckTicks pins the rule a job already on the grid meets: its total
// when every tick is at least 1 and the sum fits, else an error naming the
// first task that breaks it.
func TestCheckTicks(t *testing.T) {
	if work, err := CheckTicks([]int64{5, 1, math.MaxInt64 - 7, 1}); err != nil || work != math.MaxInt64 {
		t.Errorf("ticks summing to MaxInt64: %d, %v", work, err)
	}
	if work, err := CheckTicks(nil); err != nil || work != 0 {
		t.Errorf("no ticks: %d, %v", work, err)
	}
	for _, c := range []struct {
		ticks []int64
		want  string
	}{
		{[]int64{5, 0, -1}, "task 1 duration must be ≥ 1 tick, got 0"},
		{[]int64{-5}, "task 0 duration must be ≥ 1 tick, got -5"},
		{[]int64{1, math.MaxInt64, 0}, "task 1: the job's total duration overflows the tick grid"},
	} {
		if _, err := CheckTicks(c.ticks); err == nil || err.Error() != c.want {
			t.Errorf("CheckTicks(%v): error %v, want %q", c.ticks, err, c.want)
		}
	}
}
