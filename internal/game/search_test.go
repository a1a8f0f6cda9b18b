package game

import (
	"testing"

	"cyclesteal/internal/quant"
)

// newTables allocates P+1 zeroed rows of U+1 ticks.
func newTables(P int, U quant.Tick) [][]quant.Tick {
	v := make([][]quant.Tick, P+1)
	for i := range v {
		v[i] = make([]quant.Tick, U+1)
	}
	return v
}

// bisectTables builds the value tables with a full bisection for the
// crossing at every cell, the search the solver ran before it took hints,
// and records each cell's maximizing first period (L where no period can
// bank anything).
func bisectTables(P int, U, c quant.Tick) (v, first [][]quant.Tick) {
	v, first = newTables(P, U), newTables(P, U)
	for L := quant.Tick(0); L <= U; L++ {
		v[0][L] = quant.PosSub(L, c)
	}
	tmin := c + 1
	for q := 1; q <= P; q++ {
		for L := quant.Tick(1); L <= U; L++ {
			if tmin > L {
				first[q][L] = L
				continue
			}
			complete := func(t quant.Tick) quant.Tick { return (t - c) + v[q][L-t] }
			interrupt := func(t quant.Tick) quant.Tick { return v[q-1][L-t] }
			lo, hi := tmin, L
			for lo < hi {
				mid := lo + (hi-lo)/2
				if complete(mid) >= interrupt(mid) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			best, bestT := min(complete(lo), interrupt(lo)), lo
			if lo > tmin {
				if cand := min(complete(lo-1), interrupt(lo-1)); cand > best {
					best, bestT = cand, lo-1
				}
			}
			v[q][L], first[q][L] = best, bestT
		}
	}
	return v, first
}

// The forward fill and the hinted search must find exactly what a full
// bisection finds at every cell, whichever entry point reaches it: Solve's
// tables, SolveValueRow's rolling rows, and the first periods OptimalEpisode
// strings together. The second shape is the scale the opportunity workload
// solves, with episodes checked at a sample of lifespans.
func TestHintedSearchMatchesBisection(t *testing.T) {
	shapes := []struct {
		P      int
		U      quant.Tick
		cs     []quant.Tick
		minP   int        // episodes are checked at p = minP..P
		stride quant.Tick // and at L = U, U−stride, … down to 1
	}{
		{P: 5, U: 20000, cs: []quant.Tick{1, 2, 7, 100}, minP: 0, stride: 1},
		{P: 2, U: 100000, cs: []quant.Tick{100}, minP: 1, stride: 997},
		// Setup costs at and past the lifespan, one far past what an int32
		// cell holds: every productive period is out of reach.
		{P: 3, U: 60, cs: []quant.Tick{59, 60, 61, 1 << 40}, minP: 0, stride: 1},
	}
	for _, sh := range shapes {
		P, U := sh.P, sh.U
		for _, c := range sh.cs {
			want, first := bisectTables(P, U, c)
			s, err := Solve(P, U, c)
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q <= P; q++ {
				for L := quant.Tick(0); L <= U; L++ {
					if got := s.Value(q, L); got != want[q][L] {
						t.Fatalf("U=%d c=%d: Solve V(%d,%d) = %d, bisection %d", U, c, q, L, got, want[q][L])
					}
				}
			}
			for p := 0; p <= P; p++ {
				row, err := SolveValueRow(p, U, c)
				if err != nil {
					t.Fatal(err)
				}
				for L, got := range row {
					if got != want[p][L] {
						t.Fatalf("U=%d c=%d: SolveValueRow(%d)[%d] = %d, bisection %d", U, c, p, L, got, want[p][L])
					}
				}
			}
			for p := sh.minP; p <= P; p++ {
				for L := U; L >= 1; L -= sh.stride {
					ep := s.OptimalEpisode(p, L)
					rest := L
					for i, got := range ep {
						exp := first[p][rest]
						if p == 0 || want[p][rest] == 0 {
							exp = rest // the terminal lump
						}
						if got != exp || (exp == rest && i != len(ep)-1) {
							t.Fatalf("U=%d c=%d: OptimalEpisode(%d,%d) period %d = %d at residual %d, bisection %d (episode of %d)",
								U, c, p, L, i, got, rest, exp, len(ep))
						}
						rest -= got
					}
					if rest != 0 {
						t.Fatalf("U=%d c=%d: OptimalEpisode(%d,%d) leaves %d ticks unscheduled", U, c, p, L, rest)
					}
				}
			}
		}
	}
}
