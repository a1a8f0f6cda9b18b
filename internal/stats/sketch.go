package stats

import "sort"

// Sketch is a mergeable quantile sketch with a guaranteed rank-error bound:
// a KLL-style compactor hierarchy, derandomized with Munro–Paterson
// alternating selection so the retained set is a pure function of the input
// sequence — the property internal/mc's bit-identical-summaries contract
// needs (a randomized KLL would make summaries depend on sketch rng state).
//
// Level ℓ holds values that each stand for 2^ℓ original observations. Add
// appends at level 0; a full level sorts its buffer and promotes every other
// element to the level above (a compaction), discarding the rest. One
// compaction at level ℓ perturbs the rank of any query point by at most 2^ℓ,
// and the sketch counts exactly that: RankErrorBound returns Σ 2^ℓ over the
// compactions actually performed, so
//
//	|Rank(x) − true rank of x| ≤ RankErrorBound()   for every x
//
// is a self-certifying guarantee (the sketch_test verifies it against exact
// ranks on 10⁶ samples). With per-level capacity k the bound works out to
// ≈ (n/k)·log₂(n/k) — about 2% of n for k = 512 at n = 10⁶ — while retaining
// only k·log₂(n/k) values.
//
// Merge concatenates the hierarchies level-wise without compacting, so a
// merged sketch's quantiles are weighted quantiles of the exact union
// multiset of the inputs' retained values: independent of merge order, at
// memory proportional to the number of sketches merged (O(shards) in the
// replication engine, replacing the old pooled reservoir which had no error
// bound). Compact re-bounds the memory afterwards, at the cost of an
// order-dependent retained set — the replication engine never compacts after
// merging.
type Sketch struct {
	k      int         // per-level buffer capacity (even, ≥ 8)
	levels [][]float64 // levels[l] holds values of weight 2^l
	parity uint64      // bit l: level l's alternating selection offset
	n      int64       // observations represented
	bound  int64       // Σ 2^l over compactions performed
}

// NewSketch returns an empty sketch with the given per-level buffer
// capacity. The capacity is clamped to an even value ≥ 8; larger capacities
// buy a tighter rank-error bound at proportional memory.
func NewSketch(capacity int) *Sketch {
	return &Sketch{k: sketchCapacity(capacity)}
}

// sketchCapacity clamps a per-level capacity to an even value ≥ 8.
func sketchCapacity(capacity int) int {
	if capacity < 8 {
		capacity = 8
	}
	return capacity &^ 1
}

// Add offers one observation.
func (s *Sketch) Add(x float64) {
	s.n++
	if len(s.levels) == 0 {
		s.levels = append(s.levels, make([]float64, 0, s.k))
	}
	s.levels[0] = append(s.levels[0], x)
	if len(s.levels[0]) >= s.k {
		s.compactFrom(0)
	}
}

// compactFrom cascades compactions upward from level l while buffers are at
// or over capacity.
func (s *Sketch) compactFrom(l int) {
	for ; l < len(s.levels) && len(s.levels[l]) >= s.k; l++ {
		s.compactLevel(l)
	}
}

// compactLevel sorts level l and promotes alternate elements to level l+1 at
// doubled weight. The starting parity flips on every compaction of the same
// level, so successive compactions' rank perturbations partially cancel in
// practice; the accounted bound (2^l per compaction) does not rely on the
// cancellation. An odd element count keeps the sorted maximum at level l so
// the promoted run is even and total weight is conserved exactly.
func (s *Sketch) compactLevel(l int) {
	buf := s.levels[l]
	if len(buf) < 2 {
		return
	}
	sort.Float64s(buf)
	var keep []float64
	if len(buf)%2 == 1 {
		keep = append(keep, buf[len(buf)-1])
		buf = buf[:len(buf)-1]
	}
	if l+1 == len(s.levels) {
		s.levels = append(s.levels, make([]float64, 0, s.k))
	}
	start := int(s.parity >> l & 1)
	s.parity ^= 1 << l
	for i := start; i < len(buf); i += 2 {
		s.levels[l+1] = append(s.levels[l+1], buf[i])
	}
	s.levels[l] = append(s.levels[l][:0], keep...)
	s.bound += int64(1) << l
}

// Merge folds another sketch into this one by level-wise concatenation; o is
// left untouched. No compaction happens, so quantiles read from the merged
// sketch are exactly the weighted quantiles of the union of both retained
// sets — independent of the order sketches are merged in — and the error
// bounds add. Call Compact to re-bound memory if the merged sketch will keep
// absorbing observations.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.n == 0 {
		return
	}
	for l, vals := range o.levels {
		if l == len(s.levels) {
			s.levels = append(s.levels, nil)
		}
		s.levels[l] = append(s.levels[l], vals...)
	}
	s.n += o.n
	s.bound += o.bound
}

// Compact restores the per-level capacity invariant after merges. It makes
// the retained set depend on the merge order, so callers that need
// merge-order-independent quantiles (internal/mc) read before compacting.
// Unlike the Add-path cascade it sweeps every level: a merge can leave
// over-capacity buffers above an under-capacity level 0.
func (s *Sketch) Compact() {
	for l := 0; l < len(s.levels); l++ {
		if len(s.levels[l]) >= s.k {
			s.compactLevel(l)
		}
	}
}

// N returns the number of observations the sketch represents.
func (s *Sketch) N() int64 { return s.n }

// RankErrorBound returns the guaranteed maximum absolute error of Rank (and
// therefore of the rank of any Quantile answer), in observations. It grows
// only when compactions discard information: a sketch that has never
// compacted is exact.
func (s *Sketch) RankErrorBound() int64 { return s.bound }

// Retained reports how many values the sketch currently holds, across all
// levels.
func (s *Sketch) Retained() int {
	total := 0
	for _, vals := range s.levels {
		total += len(vals)
	}
	return total
}

// Rank estimates the number of observations ≤ x. The estimate is within
// RankErrorBound of the true count.
func (s *Sketch) Rank(x float64) int64 {
	var rank int64
	for l, vals := range s.levels {
		w := int64(1) << l
		for _, v := range vals {
			if v <= x {
				rank += w
			}
		}
	}
	return rank
}

// Quantile returns a retained value whose estimated rank brackets q·N
// (q clamped to [0, 1]); 0 for an empty sketch. The answer's true rank is
// within RankErrorBound + the answer's own weight of q·N.
func (s *Sketch) Quantile(q float64) float64 {
	return s.Quantiles(q)[0]
}

// Quantiles answers several quantile queries over one flatten-and-sort pass
// of the retained set — the summary path asks for median/P90/P99 together,
// and re-sorting per query would triple that cost.
func (s *Sketch) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	items, weights := s.sorted()
	if len(items) == 0 {
		return out
	}
	for k, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		target := q * float64(s.n)
		var cum float64
		out[k] = items[len(items)-1]
		for i, v := range items {
			cum += float64(weights[i])
			if cum >= target {
				out[k] = v
				break
			}
		}
	}
	return out
}

// sorted flattens the hierarchy into value-sorted parallel slices of values
// and weights.
func (s *Sketch) sorted() ([]float64, []int64) {
	total := s.Retained()
	if total == 0 {
		return nil, nil
	}
	items := make([]float64, 0, total)
	weights := make([]int64, 0, total)
	for l, vals := range s.levels {
		w := int64(1) << l
		for _, v := range vals {
			items = append(items, v)
			weights = append(weights, w)
		}
	}
	idx := make([]int, total)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return items[idx[a]] < items[idx[b]] })
	sv := make([]float64, total)
	sw := make([]int64, total)
	for i, j := range idx {
		sv[i], sw[i] = items[j], weights[j]
	}
	return sv, sw
}
