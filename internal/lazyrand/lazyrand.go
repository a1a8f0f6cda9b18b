// Package lazyrand is math/rand's seeded source with an O(1) Seed.
//
// rand.NewSource(seed) fills a 607-word register before its first draw:
// 1,841 Lehmer steps and about 5 KB, which is most of the cost of a
// replication trial that then draws only a handful of values. Every word
// of that register is a pure function of the seed, and the first 273
// draws read only words that no draw has written yet. Source therefore
// computes each word when a draw needs it and builds the register only
// at draw 273, so its stream equals rand.NewSource(seed)'s bit for bit.
// Every seeded pin in the repository relies on that equality.
package lazyrand

import "math/rand"

// The generator's shape and seeding constants, as math/rand's rng.go
// defines them.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lehmerA  = 48271     // seeding step x ↦ lehmerA·x mod lehmerM
	lehmerM  = 1<<31 - 1 // prime
	zeroSeed = 89482311  // replaces a seed that reduces to 0
)

// powers[i] is lehmerA^(21+3i) mod lehmerM. rngSource.Seed takes 20
// Lehmer steps from the seed and then three per word, so word i is built
// from steps 21+3i, 22+3i and 23+3i: seed·powers[i] and the two steps
// after it.
var powers = func() (p [rngLen]uint64) {
	x := uint64(1)
	for k := 0; k < 21; k++ {
		x = x * lehmerA % lehmerM
	}
	for i := range p {
		p[i] = x
		for k := 0; k < 3; k++ {
			x = x * lehmerA % lehmerM
		}
	}
	return p
}()

// Source is math/rand's additive lagged Fibonacci source. Seed is O(1):
// the first rngTap draws compute the two register words they add, and the
// register itself is built at draw rngTap, in storage kept across Seed
// calls. It implements rand.Source64 so that rand.Rand.Uint64 takes the
// path it takes on math/rand's own source.
//
// Seed a Source before its first draw. Like math/rand's source, it is not
// safe for concurrent use.
type Source struct {
	seed uint64 // reduced as rngSource.Seed reduces it, in [1, lehmerM)
	// lazy counts the draws left before the register must exist: rngTap
	// after Seed, 0 when the next draw builds it, −1 once it is built.
	lazy      int
	vec       *[rngLen]int64 // the register, indexed as rngSource's
	tap, feed int
}

// New returns a *rand.Rand that draws exactly what
// rand.New(rand.NewSource(seed)) draws. The Rand and its Source share one
// allocation, so a stream that goes on to build its register allocates no
// more often than math/rand's two.
func New(seed int64) *rand.Rand {
	g := new(struct {
		r   rand.Rand
		src Source
	})
	g.src.Seed(seed)
	g.r = *rand.New(&g.src)
	return &g.r
}

// Seed resets the source to the stream of rand.NewSource(seed).
func (s *Source) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.lazy = rngTap
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *Source) Int63() int64 {
	// Uint64's body rather than a call to it, so that a draw from the built
	// register costs rand.Rand one call, as on math/rand's own source.
	if s.lazy >= 0 {
		return int64(s.lazyDraw() & rngMask)
	}
	return int64(s.step() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (s *Source) Uint64() uint64 {
	if s.lazy >= 0 {
		return s.lazyDraw()
	}
	return s.step()
}

// lazyDraw is a draw made before the register exists. Draw j < rngTap adds
// register words rngLen−rngTap−1−j and rngLen−1−j and writes the first, so
// neither has been written yet; draw rngTap builds the register first.
func (s *Source) lazyDraw() uint64 {
	if s.lazy == 0 {
		s.build()
		return s.step()
	}
	j := rngTap - s.lazy
	s.lazy--
	return uint64(s.word(rngLen-rngTap-1-j) + s.word(rngLen-1-j))
}

// step is rngSource.Uint64: one draw from the built register.
func (s *Source) step() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// word is register word i as rngSource.Seed leaves it.
func (s *Source) word(i int) int64 {
	x := s.seed * powers[i] % lehmerM
	u := int64(x) << 40
	x = x * lehmerA % lehmerM
	u ^= int64(x) << 20
	x = x * lehmerA % lehmerM
	u ^= int64(x)
	return u ^ rngCooked[i]
}

// build puts the register in the state rngSource reaches after rngTap
// draws: the seeded words, with the rngTap words those draws wrote.
func (s *Source) build() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	v := s.vec
	for i := range v {
		v[i] = s.word(i)
	}
	for j := 0; j < rngTap; j++ {
		v[rngLen-rngTap-1-j] += v[rngLen-1-j]
	}
	// rngSource.Seed leaves tap at 0 and feed at rngLen−rngTap; each draw
	// steps both back by one, modulo rngLen.
	s.tap = rngLen - rngTap
	s.feed = rngLen - 2*rngTap
	s.lazy = -1
}
