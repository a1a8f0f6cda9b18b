package farm

import (
	"context"
	"testing"

	"cyclesteal/internal/model"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/station"
	"cyclesteal/internal/task"
)

// claimGap is the distance between groups a and b around a circle of n.
func claimGap(a, b, n int) int {
	d := (a - b + n) % n
	return min(d, n-d)
}

// checkClaimOrder fails unless order is a permutation of the n groups in
// which, for n ≥ 8, consecutive claims are at least ⌊n/4⌋ groups apart
// around the circle: two workers claiming at once never play neighbours.
func checkClaimOrder(t *testing.T, n int, order []int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("%d groups: %d claims", n, len(order))
	}
	seen := make([]bool, n)
	for k, g := range order {
		if g < 0 || g >= n || seen[g] {
			t.Fatalf("%d groups: claim %d plays group %d, out of range or played twice", n, k, g)
		}
		seen[g] = true
		if k > 0 && n >= 8 {
			if d := claimGap(g, order[k-1], n); d < n/4 {
				t.Fatalf("%d groups: claims %d and %d play groups %d and %d, %d apart; want ≥ %d", n, k-1, k, order[k-1], g, d, n/4)
			}
		}
	}
}

// TestClaimStrideSpreadsAPermutation pins PlayRound's claim order, claim k
// playing group k·stride mod groups: a permutation of the groups whose
// consecutive claims stay far apart, at every group count up to 1024 and
// at the Private layout's group counts, one per station.
func TestClaimStrideSpreadsAPermutation(t *testing.T) {
	sizes := []int{2000, 4096, 5000, 10000, 65536}
	for n := 1; n <= 1024; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		s := claimStride(n)
		order := make([]int, n)
		for k := range order {
			order[k] = k * s % n
		}
		checkClaimOrder(t, n, order)
	}
	if s := claimStride(64); s != 39 {
		t.Errorf("claimStride(64) = %d, want 39: the integer nearest 64·0.618 that is coprime to 64", s)
	}
}

// TestPlayRoundClaimsInStrideOrder checks the order a round really plays
// its groups in: with one worker the caller plays every group in claim
// order, so the stations a recording factory sees, one per group, must
// come in the strided order. A round that claims groups in index order
// fails here; no result pin can catch it, since results do not depend on
// the order.
func TestPlayRoundClaimsInStrideOrder(t *testing.T) {
	for _, tc := range []struct {
		stations int
		private  bool
	}{{64, false}, {16, false}, {100, true}, {9, true}} {
		f := testFarm(tc.stations, benignOwner{})
		f.Shards = tc.stations // one station per group, so a station names its group
		f.Private = tc.private
		groups := f.Groups()
		var played []int
		factory := func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
			played = append(played, ws.ID%groups)
			return sched.NewAdaptiveEqualized(ws.Setup)
		}
		core := f.NewCore(factory, 1, groups, tc.stations, false)
		for _, ws := range f.Stations {
			core.Join(ws)
		}
		core.AddTasks(task.Fixed(10*tc.stations, 5))
		if err := core.PlayRound(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		checkClaimOrder(t, groups, played)
		if groups >= 3 && played[1] != claimStride(groups) {
			t.Fatalf("%d groups: the second claim played group %d, want %d", groups, played[1], claimStride(groups))
		}
	}
}
