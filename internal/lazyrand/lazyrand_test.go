package lazyrand

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// math/rand's own source is the reference throughout.

// testSeeds covers the seed reduction's edges — 0, ±1, the stand-in for
// 0, both sides of ±lehmerM and 2·lehmerM, the int64 extremes — and
// random seeds, 200 or more in all.
func testSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, -2, zeroSeed, -zeroSeed, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1}
	for _, base := range []int64{lehmerM, -lehmerM, 2 * lehmerM, -2 * lehmerM, zeroSeed + lehmerM} {
		for d := int64(-2); d <= 2; d++ {
			seeds = append(seeds, base+d)
		}
	}
	rng := rand.New(rand.NewSource(1999))
	for len(seeds) < 220 {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// TestRawDrawsMatchMathRand compares 3,000 raw draws per seed — past draw
// rngTap, where the register is built, and past the rngLen wrap —
// alternating Uint64 and Int63 the same way on both sources.
func TestRawDrawsMatchMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		ref := rand.NewSource(seed).(rand.Source64)
		var s Source
		s.Seed(seed)
		for k := 0; k < 3000; k++ {
			if k%3 == 2 {
				if got, want := s.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, k, got, want)
				}
				continue
			}
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, k, got, want)
			}
		}
	}
}

// drawMix makes the same sequence of rand.Rand calls on r and returns
// their results as bits, so two generators can be compared value by value.
func drawMix(r *rand.Rand, rounds int) []uint64 {
	var out []uint64
	buf := make([]byte, 13)
	for k := 0; k < rounds; k++ {
		out = append(out,
			math.Float64bits(r.Float64()),
			math.Float64bits(r.ExpFloat64()),
			math.Float64bits(r.NormFloat64()),
			uint64(r.Intn(1000+k)),
			r.Uint64(),
		)
		for _, v := range r.Perm(1 + k%9) {
			out = append(out, uint64(v))
		}
		r.Read(buf[:1+k%len(buf)])
		for _, b := range buf[:1+k%len(buf)] {
			out = append(out, uint64(b))
		}
	}
	return out
}

// TestRandMethodsMatchMathRand checks the stream through rand.Rand's
// derived methods, Read's buffered bytes included.
func TestRandMethodsMatchMathRand(t *testing.T) {
	for _, seed := range testSeeds()[:60] {
		got := drawMix(New(seed), 150)
		want := drawMix(rand.New(rand.NewSource(seed)), 150)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d values, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: value %d = %#x, want %#x", seed, i, got[i], want[i])
			}
		}
	}
}

// TestReseedMidStream reuses one source and one rand.Rand across seeds,
// after streams that stop before, at and after the register is built, and
// with Read's buffer part-used (each round reads 5 of a value's 7 bytes):
// every reseed must restart the reference stream exactly.
func TestReseedMidStream(t *testing.T) {
	var s Source
	r := rand.New(&s)
	seeds := testSeeds()
	for k, drawn := range []int{0, 1, 272, 273, 274, 606, 607, 608, 1500, 3, 0, 2000} {
		seed := seeds[k*7]
		r.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < drawn; i++ {
			if got, want := r.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: draw %d = %d, want %d", seed, i, got, want)
			}
		}
		got, want := make([]byte, 5), make([]byte, 5)
		r.Read(got)
		ref.Read(want)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d after %d draws: Read = %x, want %x", seed, drawn, got, want)
		}
	}
}

// FuzzSourceMatchesMathRand checks a seed's first draws against math/rand
// and then its stream after a reseed to the next seed.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, c := range []struct {
		seed  int64
		draws uint16
	}{{0, 10}, {1, 272}, {-1, 273}, {lehmerM, 607}, {math.MinInt64, 700}, {math.MaxInt64, 1500}} {
		f.Add(c.seed, c.draws)
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		n := int(draws % 2048)
		var s Source
		s.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < n; i++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: draw %d = %d, want %d", seed, i, got, want)
			}
		}
		s.Seed(seed + 1)
		ref = rand.NewSource(seed + 1).(rand.Source64)
		for i := 0; i < 300; i++ {
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d reseeded: draw %d = %d, want %d", seed+1, i, got, want)
			}
		}
	})
}

var sinkFloat float64

// BenchmarkSeedExp4 seeds a fresh stream and draws four exponential
// variates, the shape of a short Poisson-owner trial.
func BenchmarkSeedExp4(b *testing.B) {
	b.Run("lazyrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := New(int64(i))
			for k := 0; k < 4; k++ {
				sinkFloat += r.ExpFloat64()
			}
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < 4; k++ {
				sinkFloat += r.ExpFloat64()
			}
		}
	})
}

// BenchmarkSeedDraw1000 seeds a stream and draws 1,000 values, long enough
// that the lazy source builds its register.
func BenchmarkSeedDraw1000(b *testing.B) {
	b.Run("lazyrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := New(int64(i))
			for k := 0; k < 1000; k++ {
				sinkFloat += r.Float64()
			}
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < 1000; k++ {
				sinkFloat += r.Float64()
			}
		}
	})
}
