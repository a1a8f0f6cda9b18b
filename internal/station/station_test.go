package station

import (
	"math/rand"
	"testing"
)

func TestOwnerModelsSampleSanely(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	models := []OwnerModel{
		Office{MeanIdle: 5000, MaxP: 3},
		Laptop{MeanIdle: 2000},
		Overnight{Window: 30000},
		Malicious{Base: Laptop{MeanIdle: 2000}, Setup: 10},
	}
	for _, m := range models {
		if m.Name() == "" {
			t.Errorf("%T: empty name", m)
		}
		for i := 0; i < 100; i++ {
			c := m.Sample(rng)
			if c.U < 1 {
				t.Fatalf("%s sampled lifespan %d", m.Name(), c.U)
			}
			if c.P < 0 {
				t.Fatalf("%s sampled interrupt bound %d", m.Name(), c.P)
			}
			if m.Interrupter(rng, c) == nil {
				t.Fatalf("%s returned nil interrupter", m.Name())
			}
		}
	}
}

// The XOR scheme RNG replaced had a structural collision: for any station
// pair (id, id') the seed seed ^ (id+1)·K ^ (id'+1)·K replayed id's stream
// on id'. The splitmix64 mix must not reproduce it.
func TestRNGNoXORStyleCollision(t *testing.T) {
	const k = 0x5851F42D4C957F2D
	seed := int64(42)
	for _, pair := range [][2]int{{0, 1}, {3, 17}, {100, 1000}} {
		id, id2 := pair[0], pair[1]
		seed2 := seed ^ (int64(id)+1)*k ^ (int64(id2)+1)*k
		a := RNG(seed, id)
		b := RNG(seed2, id2)
		same := true
		for i := 0; i < 8; i++ {
			if a.Int63() != b.Int63() {
				same = false
				break
			}
		}
		if same {
			t.Errorf("streams (seed=%d,id=%d) and (seed=%d,id=%d) collide", seed, id, seed2, id2)
		}
	}
}

func TestRNGDistinctStationsDistinctStreams(t *testing.T) {
	seen := make(map[int64]int)
	for id := 0; id < 1000; id++ {
		v := RNG(7, id).Int63()
		if prev, dup := seen[v]; dup {
			t.Fatalf("stations %d and %d share a first draw", prev, id)
		}
		seen[v] = id
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := RNG(9, 4), RNG(9, 4)
	for i := 0; i < 16; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, id) diverged")
		}
	}
}

// A counter-orbit source seeded at consecutive golden steps would make
// station id+1's stream a one-step shift of station id's — the pre-orbit
// finalizer scramble must prevent that.
func TestRNGNeighbourStreamsNotShifted(t *testing.T) {
	a := RNG(1, 0)
	av := make([]int64, 9)
	for i := range av {
		av[i] = a.Int63()
	}
	for shift := 1; shift <= 2; shift++ {
		b := RNG(1, 1)
		same := true
		for i := 0; i+shift < len(av); i++ {
			if av[i+shift] != b.Int63() {
				same = false
				break
			}
		}
		if same {
			t.Errorf("station 1's stream is station 0's shifted by %d", shift)
		}
	}
}

// invMix64 inverts the splitmix64 finalizer (used to construct adversarial
// seeds below).
func invMix64(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= 0x319642B2D24D8EC3
	x ^= x>>27 ^ x>>54
	x *= 0x96DE1B173F119089
	x ^= x>>30 ^ x>>60
	return x
}

// Feeding the mixed word to rand.NewSource — the replaced scheme — folded
// it mod 2³¹−1, so (seed, id) pairs whose *mixed* states are congruent mod
// 2³¹−1 collided on whole streams. Construct exactly such a pair via the
// finalizer inverse and require the streams to differ.
func TestRNGKeepsFull64BitState(t *testing.T) {
	for _, probe := range []uint64{1, 0xDEADBEEF, 1 << 40} {
		if invMix64(mix64(probe)) != probe {
			t.Fatalf("finalizer inverse broken at %#x", probe)
		}
	}
	const golden = 0x9E3779B97F4A7C15
	const m31 = uint64(1)<<31 - 1
	state := mix64(12345)
	// Two run seeds for station 0 whose mixed source states differ by
	// exactly 2³¹−1 — indistinguishable to math/rand's folded seeding.
	seedA := int64(invMix64(state) - golden)
	seedB := int64(invMix64(state+m31) - golden)
	a, b := RNG(seedA, 0), RNG(seedB, 0)
	same := true
	for i := 0; i < 8; i++ {
		if a.Int63() != b.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Error("mixed states congruent mod 2^31-1 collided on whole streams (seed folded to 31 bits?)")
	}
}
