package stats

import "fmt"

// State mirrors: every field of an Accumulator (and its attached Sketch)
// exposed as plain exported data, so partial replication state can cross a
// process boundary and be rebuilt bit-identically on the other side. The
// conversions copy float64 fields verbatim — no rounding, no recomputation —
// which is what lets a coordinator merge worker-produced shard accumulators
// into summaries identical to a single-process run. The JSON tags are the
// distrib wire's names: fleet.AccumState and fleet.SketchState are these
// types.
//
// FromState is the untrusted direction: it re-validates every structural
// invariant the incremental API maintains by construction (weight
// conservation across the sketch hierarchy, matching observation counts,
// matching level/parity lengths), so a decoder feeding it wire data gets a
// loud error instead of an accumulator that lies.

// SketchState is the full serializable state of a Sketch.
type SketchState struct {
	// K is the per-level buffer capacity.
	K int `json:"k"`
	// N is the number of observations the sketch represents.
	N int64 `json:"n"`
	// Bound is the accumulated rank-error bound (Σ 2^l over compactions).
	Bound int64 `json:"bound"`
	// Parity holds each level's alternating-selection offset.
	Parity []bool `json:"parity,omitempty"`
	// Levels holds each level's retained values; Levels[l] values carry
	// weight 2^l.
	Levels [][]float64 `json:"levels,omitempty"`
}

// State snapshots the sketch. The returned state shares no memory with the
// sketch; mutating one never perturbs the other.
func (s *Sketch) State() SketchState {
	st := SketchState{K: s.k, N: s.n, Bound: s.bound}
	if len(s.levels) > 0 {
		st.Parity = make([]bool, len(s.levels))
		st.Levels = make([][]float64, len(s.levels))
		for l, vals := range s.levels {
			st.Parity[l] = s.parity>>l&1 == 1
			st.Levels[l] = append([]float64(nil), vals...)
		}
	}
	return st
}

// Validate checks the structural invariants the Add/Merge path maintains
// by construction — the sketch half of AccumState.Validate.
func (st SketchState) Validate() error {
	if st.K < 8 || st.K%2 != 0 {
		return fmt.Errorf("stats: sketch capacity must be even and ≥ 8, got %d", st.K)
	}
	if st.N < 0 {
		return fmt.Errorf("stats: sketch observation count must be ≥ 0, got %d", st.N)
	}
	if st.Bound < 0 {
		return fmt.Errorf("stats: sketch error bound must be ≥ 0, got %d", st.Bound)
	}
	if len(st.Parity) != len(st.Levels) {
		return fmt.Errorf("stats: sketch has %d parity entries for %d levels", len(st.Parity), len(st.Levels))
	}
	if len(st.Levels) >= 63 {
		return fmt.Errorf("stats: sketch has %d levels; weights past 2^62 overflow", len(st.Levels))
	}
	var weight int64
	for l, vals := range st.Levels {
		weight += int64(len(vals)) << l
	}
	if weight != st.N {
		return fmt.Errorf("stats: sketch levels carry weight %d for %d observations", weight, st.N)
	}
	return nil
}

// restore rebuilds s from a validated snapshot: it answers every query
// bit-identically to the snapshotted sketch and keeps absorbing
// observations and merges. Each level gets exactly the room its values
// need: a rebuilt sketch is usually only merged from, and one that keeps
// absorbing observations grows its levels on demand.
func (s *Sketch) restore(st SketchState) {
	*s = Sketch{k: st.K, n: st.N, bound: st.Bound}
	if len(st.Levels) > 0 {
		s.levels = make([][]float64, len(st.Levels))
		for l, vals := range st.Levels {
			if st.Parity[l] {
				s.parity |= 1 << l
			}
			s.levels[l] = append([]float64(nil), vals...)
		}
	}
}

// AccumState is the full serializable state of an Accumulator.
type AccumState struct {
	// N is the number of observations folded in.
	N int `json:"n"`
	// Mean and M2 are the Welford running mean and sum of squared deviations.
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	// Min and Max are the exact extremes (meaningful only when N ≥ 1).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Sketch is the quantile sketch's state; nil when quantile tracking is
	// disabled.
	Sketch *SketchState `json:"sketch,omitempty"`
}

// State snapshots the accumulator (deep copy; see Sketch.State).
func (a *Accumulator) State() AccumState {
	st := AccumState{N: a.n, Mean: a.mean, M2: a.m2, Min: a.min, Max: a.max}
	if a.sk != nil {
		sk := a.sk.State()
		st.Sketch = &sk
	}
	return st
}

// Validate checks the invariants the Add/Merge path maintains by
// construction — the checks AccumulatorFromState makes before it rebuilds,
// without building anything.
func (st AccumState) Validate() error {
	if st.N < 0 {
		return fmt.Errorf("stats: accumulator observation count must be ≥ 0, got %d", st.N)
	}
	if st.N >= 1 && st.Min > st.Max {
		return fmt.Errorf("stats: accumulator min %g exceeds max %g", st.Min, st.Max)
	}
	if st.Sketch == nil {
		return nil
	}
	if err := st.Sketch.Validate(); err != nil {
		return err
	}
	if st.Sketch.N != int64(st.N) {
		return fmt.Errorf("stats: accumulator holds %d observations but its sketch represents %d", st.N, st.Sketch.N)
	}
	return nil
}

// AccumulatorFromState rebuilds an accumulator from a snapshot, validating
// the invariants the Add/Merge path maintains by construction. The rebuilt
// accumulator merges and summarizes bit-identically to the snapshotted one.
func AccumulatorFromState(st AccumState) (*Accumulator, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	if st.Sketch == nil {
		return &Accumulator{n: st.N, mean: st.Mean, m2: st.M2, min: st.Min, max: st.Max}, nil
	}
	as := &accumSketch{a: Accumulator{n: st.N, mean: st.Mean, m2: st.M2, min: st.Min, max: st.Max}}
	as.sk.restore(*st.Sketch)
	as.a.sk = &as.sk
	return &as.a, nil
}
