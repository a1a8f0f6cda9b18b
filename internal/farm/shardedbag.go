package farm

import (
	"math"
	"sync"
	"sync/atomic"

	"cyclesteal/internal/quant"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/task"
)

// DefaultShards is the shard count Farm uses when Shards is 0 (clamped to
// the fleet size). 64 matches internal/mc.Shards: plenty of lock striping
// for any machine the simulations run on, while keeping the steal scan and
// the per-queue memory trivial even at fleet sizes in the thousands.
const DefaultShards = 64

// ShardedBag is a lock-striped task source for fleets too large to funnel
// through one mutex: the job's tasks are dealt round-robin across per-shard
// local queues, each station is bound to a home shard, and a station whose
// home runs dry steals from the other shards. Killed-period tasks go back to
// the front of the *thief's own* queue — they were in flight on that station
// and stay next in line there — so kills never rebuild pressure on the
// victim's lock.
//
// Steal-target selection is hinted and, under a Topology, cluster-local: a
// dry station first retries the shard it last stole from (steals cluster on
// the few queues still holding work as a job drains — the localized
// victim-selection observation of Suksompong–Leiserson–Schardl), then the
// richest shard *of its own cluster* (the richest index is maintained per
// cluster from the size mirrors), and only then falls back to the
// deterministic cyclic scan of its cluster's shards. At fleet scale the hints
// turn the idle-phase Take from O(shards) mirror loads into O(1), and the
// per-cluster split means a thousand-station dry storm scans its own cluster,
// not the whole fleet; BenchmarkFarmSteal* measures the hint gap at 1k–8k
// shards.
//
// Only when the thief's whole cluster is collectively dry does it reach
// across clusters (per-cluster available counts let it skip dry clusters
// without touching their mirrors). A cross-cluster steal on a zero-latency
// topology delivers like a local one; with CrossLatency > 0 the stolen tasks
// instead *depart*: they leave the victim's queue into the in-flight ledger
// (task.Flight) bound for the thief's home shard, unavailable to both sides
// until the fleet's steal clock — advanced by Advance as stations settle
// opportunities — reaches their maturity. The thief's Take returns empty,
// and that idleness is exactly the latency price of the
// Gast–Khatiri–Trystram model. Each view keeps at most one request in
// flight, so a dry station cannot drain a remote cluster into the ledger
// while waiting.
//
// If the scan comes up empty while the global remaining counter says tasks
// exist *and* a Return or parcel arrival completed during the scan (tracked
// by a return epoch), Take retries the whole cycle once — home shard
// included, since a co-homed station's kill lands tasks in the scanner's own
// queue — under the stripe locks, so a racing Return can delay a task but
// never strand one. Without an epoch change the miss is a genuine capacity
// miss (mirrors are exact at quiescence) and no locked rescan is paid.
//
// Scalability comes from two effects the BenchmarkFarmBag* pair measures:
// stations contend on len(shards) mutexes instead of one, and each Take
// scans a shard-sized pending list instead of the whole job (Bag.Take is
// O(pending), so sharding also wins single-threaded).
//
// Like SharedBag, a ShardedBag makes task *conservation* deterministic, not
// task *assignment*: which station ends up running a task still depends on
// scheduling interleaving. Farm.RunDeterministic gets assignment determinism
// by confining each queue to one sequential station group between barriers
// instead of locking.
type ShardedBag struct {
	shards    []bagShard
	remaining atomic.Int64
	work      atomic.Int64
	steals    atomic.Int64
	// richest[c] is the index of the shard in cluster c whose size mirror was
	// largest at its last update — a best-effort steal hint, verified against
	// the mirror (and then the stripe lock) before use, so staleness costs a
	// probe, not correctness. A flat bag has one cluster and one hint.
	richest []atomic.Int64
	// returns counts completed Return calls and parcel deliveries. A Take
	// that found nothing retries the cycle under the locks only when this
	// epoch moved during its scan: mirrors are exact at quiescence, so a
	// phantom-empty read can only come from a Return racing the scan —
	// gating on the epoch keeps capacity misses (tasks present but none fit)
	// from paying an O(shards) locked rescan on every Take.
	returns atomic.Int64
	// linearScan disables the steal-target hints, forcing the original
	// cyclic scan — the BenchmarkFarmSteal* baseline.
	linearScan bool

	// Topology state. A flat bag has clusters == 1, perCluster == len(shards)
	// and latency == 0; every cluster field below then sits on its zero-cost
	// path (clusterTasks stays nil so the hot take path pays one nil check).
	clusters   int
	perCluster int
	// latency is the in-flight time of a cross-cluster steal in steal-clock
	// units (station-ticks — see Advance); 0 means cross steals deliver
	// immediately.
	latency int64
	// clusterTasks[c] counts the tasks currently *available* in cluster c's
	// queues (in-flight tasks belong to no cluster), letting a cross scan
	// skip dry clusters without touching their shard mirrors. nil when flat.
	clusterTasks []atomic.Int64
	// clock is the fleet's virtual steal clock: Σ contract lifespans settled
	// so far, advanced by Advance. nextReady mirrors the flight ledger's
	// earliest maturity (MaxInt64 when nothing is in flight) so the
	// per-opportunity Advance can skip the ledger lock entirely.
	clock     atomic.Int64
	nextReady atomic.Int64
	flightMu  sync.Mutex
	flight    task.Flight
	inflight  atomic.Int64
}

// bagShard pads each mutex+queue pair to its own cache line so neighbouring
// shards don't false-share under contention.
type bagShard struct {
	mu   sync.Mutex
	bag  *task.Bag
	size atomic.Int64 // mirror of bag.Remaining(), readable without the lock
	_    [40]byte
}

// NewShardedBag deals a task set round-robin across the given number of
// shards (clamped to ≥ 1) — a flat, single-cluster bag.
func NewShardedBag(tasks []task.Task, shards int) *ShardedBag {
	return NewShardedBagTopology(tasks, shards, 1, 0)
}

// NewShardedBagTopology is NewShardedBag with the shards grouped into
// clusters of equal contiguous blocks and cross-cluster steals priced at
// latency steal-clock units in flight (see Advance for the clock's unit;
// Farm scales a Topology's fleet-tick CrossLatency by the station count).
// clusters must divide shards — validate with Topology.Validate; a
// non-positive cluster count means flat. clusters == 1 with any latency is
// flat: there is nothing to cross.
func NewShardedBagTopology(tasks []task.Task, shards, clusters int, latency int64) *ShardedBag {
	if shards < 1 {
		shards = 1
	}
	if clusters < 1 {
		clusters = 1
	}
	if clusters > shards {
		clusters = shards
	}
	b := &ShardedBag{
		shards:     make([]bagShard, shards),
		richest:    make([]atomic.Int64, clusters),
		clusters:   clusters,
		perCluster: shards / clusters,
	}
	if clusters > 1 {
		b.latency = latency
		b.clusterTasks = make([]atomic.Int64, clusters)
	}
	for c := range b.richest {
		b.richest[c].Store(int64(c * b.perCluster))
	}
	bags := make([]*task.Bag, shards)
	for s := range bags {
		bags[s] = task.NewBag(nil)
	}
	task.DealInto(bags, tasks)
	for s, bag := range bags {
		b.shards[s].bag = bag
		b.shards[s].size.Store(int64(bag.Remaining()))
		if b.clusterTasks != nil {
			b.clusterTasks[s/b.perCluster].Add(int64(bag.Remaining()))
		}
	}
	b.remaining.Store(int64(len(tasks)))
	b.work.Store(int64(task.Durations(tasks)))
	b.nextReady.Store(math.MaxInt64)
	return b
}

// Station binds station i to its home shard (i mod shards) and returns the
// station's task-source view.
func (b *ShardedBag) Station(i int) sim.TaskSource {
	return &stationView{b: b, home: i % len(b.shards), lastVictim: -1, remoteVictim: -1}
}

// Shards reports the stripe count.
func (b *ShardedBag) Shards() int { return len(b.shards) }

// Clusters reports the cluster count (1 when flat).
func (b *ShardedBag) Clusters() int { return b.clusters }

// clusterOf maps a shard index to its cluster.
func (b *ShardedBag) clusterOf(s int) int { return s / b.perCluster }

// Remaining reports the tasks still unscheduled, across all shards — tasks
// in cross-cluster flight included: they have left a queue but not reached
// one, and still need a station.
func (b *ShardedBag) Remaining() int { return int(b.remaining.Load()) }

// RemainingWork reports the total duration still unscheduled (in-flight
// tasks included).
func (b *ShardedBag) RemainingWork() quant.Tick { return b.work.Load() }

// Steals reports how many Takes were served by a non-home shard, plus
// cross-cluster departures.
func (b *ShardedBag) Steals() int { return int(b.steals.Load()) }

// InFlight reports the tasks currently crossing between clusters.
func (b *ShardedBag) InFlight() int { return int(b.inflight.Load()) }

// Exhaustible implements TaskPool: the sharded bag is the job.
func (b *ShardedBag) Exhaustible() bool { return true }

// Advance moves the fleet's steal clock forward by d station-ticks — the
// lifespan of an opportunity a station just settled — and lands any matured
// cross-cluster parcels in their destination shards. The clock's unit is
// station-ticks played fleet-wide: n stations play concurrently, so one tick
// of fleet (wall) time is ≈ n clock units, and Farm departs parcels with
// CrossLatency × n. On a flat or zero-latency bag Advance is a no-op; with
// nothing maturing it is one atomic add and one load.
func (b *ShardedBag) Advance(d quant.Tick) {
	if b.latency <= 0 || d <= 0 {
		return
	}
	now := b.clock.Add(int64(d))
	if now < b.nextReady.Load() {
		return
	}
	b.flightMu.Lock()
	b.flight.AdvanceTo(now)
	b.flight.Arrive(b.deliver)
	if next, ok := b.flight.NextReady(); ok {
		b.nextReady.Store(next)
	} else {
		b.nextReady.Store(math.MaxInt64)
	}
	b.flightMu.Unlock()
}

// deliver lands one matured parcel at the back of its destination shard —
// the same position round-barrier migrations take under RunDeterministic.
// Called with flightMu held; takes the shard stripe lock.
func (b *ShardedBag) deliver(dest int, tasks []task.Task) {
	sh := &b.shards[dest]
	sh.mu.Lock()
	sh.bag.Append(tasks)
	size := int64(sh.bag.Remaining())
	sh.size.Store(size)
	sh.mu.Unlock()
	// Epoch after the mirror, like Return: a scanning Take that missed this
	// shard is guaranteed to observe the epoch bump and retry.
	b.returns.Add(1)
	b.inflight.Add(-int64(len(tasks)))
	if b.clusterTasks != nil {
		b.clusterTasks[b.clusterOf(dest)].Add(int64(len(tasks)))
	}
	b.noteRichest(dest, size)
}

// takeFrom drains shard s under its stripe lock, appending into dst, and
// settles the global counters outside it. took reports whether anything was
// taken.
func (b *ShardedBag) takeFrom(s int, dst []task.Task, capacity quant.Tick) (out []task.Task, took bool) {
	sh := &b.shards[s]
	base := len(dst)
	sh.mu.Lock()
	dst = sh.bag.TakeInto(dst, capacity)
	took = len(dst) > base
	if took {
		sh.size.Store(int64(sh.bag.Remaining()))
	}
	sh.mu.Unlock()
	if took {
		n := int64(len(dst) - base)
		b.remaining.Add(-n)
		b.work.Add(-task.Durations(dst[base:]))
		if b.clusterTasks != nil {
			b.clusterTasks[b.clusterOf(s)].Add(-n)
		}
	}
	return dst, took
}

// noteRichest promotes shard s to its cluster's steal hint when its mirror
// outgrows the current candidate's. Lock-free and approximate on purpose: a
// lost CAS or a candidate that later drains just downgrades the hint to a
// miss.
func (b *ShardedBag) noteRichest(s int, size int64) {
	c := b.clusterOf(s)
	r := int(b.richest[c].Load())
	if r == s {
		return
	}
	if size > b.shards[r].size.Load() {
		b.richest[c].CompareAndSwap(int64(r), int64(s))
	}
}

// stationView is one station's handle on the sharded bag; it satisfies
// sim.TaskSource. Each view belongs to a single station goroutine, so the
// victim caches need no synchronization.
type stationView struct {
	b          *ShardedBag
	home       int
	lastVictim int // last in-cluster shard a steal succeeded on; -1 before the first
	// remoteVictim is the last foreign shard a cross-cluster steal succeeded
	// on; -1 before the first. pendingUntil is the steal-clock maturity of
	// this view's outstanding cross-cluster request — each view keeps at
	// most one in flight.
	remoteVictim int
	pendingUntil int64
}

// Take drains the home shard first, then steals: hinted targets, the cyclic
// mirror-guided scan of the home cluster, the cross-cluster path when the
// cluster is collectively dry, and — when a Return raced the scan while the
// global counter says tasks remain — one forced retry of the whole cycle
// (home included) under the locks.
func (v *stationView) Take(capacity quant.Tick) []task.Task {
	got := v.takeInto(nil, capacity, v.b.returns.Load())
	if len(got) == 0 {
		return nil
	}
	return got
}

// TakeInto implements sim.TaskSource: Take appending into the caller's
// buffer.
func (v *stationView) TakeInto(dst []task.Task, capacity quant.Tick) []task.Task {
	return v.takeInto(dst, capacity, v.b.returns.Load())
}

// take is Take with the caller-observed return epoch — split out so tests
// can replay the exact interleaving of a Return landing mid-scan.
func (v *stationView) take(capacity quant.Tick, epoch int64) []task.Task {
	got := v.takeInto(nil, capacity, epoch)
	if len(got) == 0 {
		return nil
	}
	return got
}

// takeInto is the shared take path with an explicit return epoch.
func (v *stationView) takeInto(dst []task.Task, capacity quant.Tick, epoch int64) []task.Task {
	if out, took := v.b.takeFrom(v.home, dst, capacity); took {
		return out
	}
	if !v.b.linearScan {
		if out, took := v.stealHinted(dst, capacity); took {
			return out
		}
	}
	if out, took := v.stealScan(dst, capacity, false); took {
		return out
	}
	if v.b.clusters > 1 {
		// The whole home cluster is dry: reach across, paying the latency.
		// done without tasks means a parcel departed — the thief idles this
		// period, which is the price.
		if out, done := v.crossTake(dst, capacity, false); done {
			return out
		}
	}
	if v.b.remaining.Load() > 0 && v.b.returns.Load() != epoch {
		// Tasks remain and a Return completed while we scanned: a mirror
		// (or our own earlier home probe) may have read stale-empty. Retry
		// once ignoring the mirrors, so the race can delay a task but
		// never turn a live bag phantom-empty. When the epoch is unchanged
		// the miss is a capacity miss (mirrors are exact at quiescence)
		// and a locked rescan could not help.
		return v.retryUnderLocks(dst, capacity)
	}
	return dst
}

// retryUnderLocks is the forced pass behind the epoch gate: the whole cycle
// under the stripe locks, ignoring the mirrors — home shard first, since a
// co-homed station's kill lands its tasks in the scanner's own queue, then
// the home cluster, then the cross path (which still prices the crossing).
func (v *stationView) retryUnderLocks(dst []task.Task, capacity quant.Tick) []task.Task {
	if out, took := v.b.takeFrom(v.home, dst, capacity); took {
		return out
	}
	if out, took := v.stealScan(dst, capacity, true); took {
		return out
	}
	if v.b.clusters > 1 {
		if out, done := v.crossTake(dst, capacity, true); done {
			return out
		}
	}
	return dst
}

// stealHinted probes the last successful victim, then the home cluster's
// richest shard — the O(1) fast path of a dry station at fleet scale. Both
// hints live inside the home cluster.
func (v *stationView) stealHinted(dst []task.Task, capacity quant.Tick) ([]task.Task, bool) {
	for _, s := range [2]int{v.lastVictim, int(v.b.richest[v.b.clusterOf(v.home)].Load())} {
		if s < 0 || s == v.home || v.b.shards[s].size.Load() == 0 {
			continue
		}
		if out, took := v.b.takeFrom(s, dst, capacity); took {
			v.b.steals.Add(1)
			v.lastVictim = s
			return out, true
		}
	}
	return dst, false
}

// stealScan walks the home cluster's other shards in deterministic cyclic
// order (the full stripe set when flat). Shards whose size mirror reads
// empty are skipped without touching their lock unless force is set.
func (v *stationView) stealScan(dst []task.Task, capacity quant.Tick, force bool) ([]task.Task, bool) {
	n := v.b.perCluster
	base := v.b.clusterOf(v.home) * n
	for d := 1; d < n; d++ {
		s := v.home - base + d
		if s >= n {
			s -= n
		}
		s += base
		if !force && v.b.shards[s].size.Load() == 0 {
			continue
		}
		if out, took := v.b.takeFrom(s, dst, capacity); took {
			v.b.steals.Add(1)
			v.lastVictim = s
			return out, true
		}
	}
	return dst, false
}

// crossTake is the cross-cluster steal path, reached only when the home
// cluster is collectively dry. It probes the remembered remote victim, then
// walks foreign clusters in cyclic order — skipping clusters whose available
// count reads zero (unless force), probing each cluster's richest shard
// before its shards in index order. done reports that the take is resolved:
// either tasks were delivered (zero-latency crossing) or a parcel departed
// and the thief idles while it flies.
func (v *stationView) crossTake(dst []task.Task, capacity quant.Tick, force bool) ([]task.Task, bool) {
	b := v.b
	if b.latency > 0 && b.clock.Load() < v.pendingUntil {
		return dst, false // one outstanding cross request per view
	}
	if s := v.remoteVictim; s >= 0 && b.shards[s].size.Load() > 0 {
		if out, done := v.crossFetch(s, dst, capacity); done {
			return out, true
		}
	}
	own := b.clusterOf(v.home)
	for dc := 1; dc < b.clusters; dc++ {
		c := own + dc
		if c >= b.clusters {
			c -= b.clusters
		}
		if !force && b.clusterTasks[c].Load() == 0 {
			continue
		}
		base := c * b.perCluster
		if r := int(b.richest[c].Load()); r != v.remoteVictim && (force || b.shards[r].size.Load() > 0) {
			if out, done := v.crossFetch(r, dst, capacity); done {
				return out, true
			}
		}
		for s := base; s < base+b.perCluster; s++ {
			if !force && b.shards[s].size.Load() == 0 {
				continue
			}
			if out, done := v.crossFetch(s, dst, capacity); done {
				return out, true
			}
		}
	}
	return dst, false
}

// crossFetch steals from foreign shard s. At zero latency it delivers into
// dst like a local steal; otherwise the stolen tasks depart into the flight
// ledger bound for the thief's home shard and the caller gets nothing —
// Remaining and RemainingWork deliberately do not move, because in-flight
// tasks are still unscheduled work the job must finish.
func (v *stationView) crossFetch(s int, dst []task.Task, capacity quant.Tick) ([]task.Task, bool) {
	b := v.b
	if b.latency <= 0 {
		out, took := b.takeFrom(s, dst, capacity)
		if took {
			b.steals.Add(1)
			v.remoteVictim = s
		}
		return out, took
	}
	sh := &b.shards[s]
	sh.mu.Lock()
	stolen := sh.bag.TakeInto(nil, capacity)
	if len(stolen) > 0 {
		sh.size.Store(int64(sh.bag.Remaining()))
	}
	sh.mu.Unlock()
	if len(stolen) == 0 {
		return dst, false
	}
	b.clusterTasks[b.clusterOf(s)].Add(-int64(len(stolen)))
	b.steals.Add(1)
	b.inflight.Add(int64(len(stolen)))
	v.remoteVictim = s
	now := b.clock.Load()
	b.flightMu.Lock()
	b.flight.AdvanceTo(now)
	b.flight.Depart(stolen, v.home, b.latency)
	if next, ok := b.flight.NextReady(); ok && next < b.nextReady.Load() {
		b.nextReady.Store(next)
	}
	b.flightMu.Unlock()
	v.pendingUntil = now + b.latency
	return dst, true
}

// Return puts killed in-flight tasks at the front of the thief's own queue.
func (v *stationView) Return(tasks []task.Task) {
	if len(tasks) == 0 {
		return
	}
	sh := &v.b.shards[v.home]
	sh.mu.Lock()
	sh.bag.Return(tasks)
	size := int64(sh.bag.Remaining())
	sh.size.Store(size)
	sh.mu.Unlock()
	// Epoch before the counter: a Take that observes the new remaining is
	// then guaranteed to observe the epoch bump too, so its retry gate
	// cannot miss this Return.
	v.b.returns.Add(1)
	v.b.remaining.Add(int64(len(tasks)))
	v.b.work.Add(task.Durations(tasks))
	if v.b.clusterTasks != nil {
		v.b.clusterTasks[v.b.clusterOf(v.home)].Add(int64(len(tasks)))
	}
	v.b.noteRichest(v.home, size)
}
