package sched

// The episode memo: schedulers in this package are pure functions of
// (p, L) once their setup cost is fixed, so the episodes a caller replays
// across thousands of opportunities can be served from a bounded cache
// instead of being rebuilt (√-ramp float math, quantization) every time.
// E8's Monte-Carlo trials keep one Memo per mc worker and re-Bind it to the
// study's scheduler every trial; as long as the scheduler's EpisodeMemoKey
// is unchanged, the cache stays warm across trials.

import (
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
)

// DefaultMemoEntries is the episode-cache bound NewMemo(0) picks: big
// enough that the handful of distinct (p, L) pairs a replayed opportunity
// reaches all fit, small enough that one cache per worker stays in the
// megabytes.
const DefaultMemoEntries = 512

type memoKey struct {
	p int
	L quant.Tick
}

// Memo is a bounded, deterministic episode cache wrapped around an
// EpisodeScheduler. It serves AppendEpisode from a (p, L)-keyed map when the
// inner scheduler declares (via model.EpisodeMemoKeyer) that its episodes
// are a pure function of (p, L); because the cached episodes are exactly
// what the inner scheduler would emit, results are bit-identical with the
// cache on or off. Eviction is FIFO over insertion order, so cache contents
// are a pure function of the miss sequence — no clocks, no randomness —
// keeping the deterministic engines deterministic.
//
// A Memo belongs to one goroutine (E8 keeps one per mc worker); it is not
// safe for concurrent use.
// coldRebinds is how many consecutive useless bindings (cache replaced
// without ever serving a hit) a Memo tolerates before concluding the
// caller's keys churn per contract and dropping to passthrough. Churning
// keys would otherwise rebuild the cache map every opportunity — paying for
// the cache on exactly the workloads it cannot help.
const coldRebinds = 4

type Memo struct {
	inner model.EpisodeScheduler
	key   model.MemoKey
	max   int
	cache map[memoKey]model.TickSchedule
	order []memoKey // insertion ring; order[next] is the next eviction victim
	next  int
	hits  int64
	miss  int64
	bound bool // a scheduler has been bound since the last reset
	// cold counts consecutive key changes that discarded a never-hit cache;
	// at coldRebinds the memo disables itself (Bind returns schedulers
	// unwrapped). Driven only by the station's own deterministic bind/episode
	// sequence, so the deterministic engines stay deterministic.
	cold     int
	disabled bool
	prevHits int64
}

// NewMemo returns an empty episode cache holding at most maxEntries episodes
// (≤ 0 means DefaultMemoEntries).
func NewMemo(maxEntries int) *Memo {
	if maxEntries <= 0 {
		maxEntries = DefaultMemoEntries
	}
	return &Memo{max: maxEntries}
}

// Bind attaches the memo to a scheduler and returns the scheduler the caller
// should drive. Schedulers that don't declare a memo key are returned
// unwrapped — their episodes may depend on state a (p, L) cache can't see.
// When the key matches the previous binding, both the warm cache and the
// previously bound inner scheduler are kept: equal keys mean identical
// episode functions, and the retained instance has warm scratch buffers
// where the factory's fresh one would recompute cold. A key change resets
// everything to the new scheduler — and if the discarded cache never served
// a hit coldRebinds times in a row, the keys evidently churn per contract
// and the memo turns itself off rather than thrash.
func (m *Memo) Bind(s model.EpisodeScheduler) model.EpisodeScheduler {
	if m.disabled {
		return s
	}
	k, ok := keyOf(s)
	if !ok {
		// Unkeyed schedulers pass through; if the memo has never served a
		// hit, they also count toward disabling, so an all-unkeyed factory
		// (e.g. per-contract NonAdaptive) pays one boolean check per
		// opportunity instead of a failed interface assertion forever.
		if m.hits == 0 {
			m.cold++
			if m.cold >= coldRebinds {
				m.drop()
			}
		}
		return s
	}
	if m.bound && k == m.key {
		return m
	}
	if m.bound {
		if m.hits == m.prevHits {
			m.cold++
			if m.cold >= coldRebinds {
				m.drop()
				return s
			}
		} else {
			m.cold = 0
		}
	}
	m.bound = true
	m.prevHits = m.hits
	m.key = k
	m.cache = nil // allocated lazily on the first miss
	m.order = m.order[:0]
	m.next = 0
	m.inner = s
	return m
}

func keyOf(s model.EpisodeScheduler) (model.MemoKey, bool) {
	if mk, ok := s.(model.EpisodeMemoKeyer); ok {
		return mk.EpisodeMemoKey()
	}
	return model.MemoKey{}, false
}

// drop permanently disables the memo and releases its memory.
func (m *Memo) drop() {
	m.disabled = true
	m.cache = nil
	m.order = nil
	m.inner = nil
}

// Hits and Misses report the cache's lifetime counters (testing and
// diagnostics).
func (m *Memo) Hits() int64   { return m.hits }
func (m *Memo) Misses() int64 { return m.miss }

// Len reports the number of cached episodes.
func (m *Memo) Len() int { return len(m.cache) }

// Episode implements model.EpisodeScheduler. It always returns a fresh
// slice, so callers may mutate the result without poisoning the cache.
func (m *Memo) Episode(p int, L quant.Tick) model.TickSchedule {
	ep := m.AppendEpisode(nil, p, L)
	if len(ep) == 0 {
		return nil
	}
	return ep
}

// AppendEpisode implements model.EpisodeAppender: cache hits copy the stored
// episode into dst (zero allocations once dst has capacity); misses compute
// through the inner scheduler's append path and store a private copy.
func (m *Memo) AppendEpisode(dst model.TickSchedule, p int, L quant.Tick) model.TickSchedule {
	k := memoKey{p: p, L: L}
	if ep, ok := m.cache[k]; ok {
		m.hits++
		return append(dst, ep...)
	}
	m.miss++
	base := len(dst)
	dst = model.AppendEpisode(m.inner, dst, p, L)
	m.put(k, dst[base:])
	return dst
}

// put stores a private copy of the episode, evicting the oldest entry once
// the bound is reached.
func (m *Memo) put(k memoKey, ep model.TickSchedule) {
	if m.cache == nil {
		m.cache = make(map[memoKey]model.TickSchedule)
	}
	if len(m.cache) >= m.max {
		delete(m.cache, m.order[m.next])
		m.order[m.next] = k
		m.next++
		if m.next == m.max {
			m.next = 0
		}
	} else {
		m.order = append(m.order, k)
	}
	stored := make(model.TickSchedule, len(ep))
	copy(stored, ep)
	m.cache[k] = stored
}

// Name implements model.Namer, delegating to the bound scheduler so
// simulator error messages keep naming the real policy.
func (m *Memo) Name() string { return model.NameOf(m.inner) }
