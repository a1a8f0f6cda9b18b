package experiments

import (
	"context"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"cyclesteal/internal/adversary"
	"cyclesteal/internal/mc"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/stats"
)

func TestGuaranteedVsExpectedRejectsBadTrials(t *testing.T) {
	if _, err := GuaranteedVsExpected(smallCfg(), 100*20, 2, 0); err == nil {
		t.Error("trials=0 accepted; the old code silently clamped to 100")
	}
	if _, err := GuaranteedVsExpected(smallCfg(), 100*20, 2, -5); err == nil {
		t.Error("negative trials accepted")
	}
	if _, err := FarmStudy(smallCfg(), 4, 3, 100, 0); err == nil {
		t.Error("E11 trials=0 accepted")
	}
}

// TestGuaranteedVsExpectedDeterministicAcrossWorkers is the table-level form
// of the mc seed-stream contract: the rendered E8 table must be bit-identical
// at every worker count for a fixed seed.
func TestGuaranteedVsExpectedDeterministicAcrossWorkers(t *testing.T) {
	cfg := smallCfg()
	render := func(workers int) string {
		c := Config{C: cfg.C, Seed: cfg.Seed, Workers: workers}
		tb, err := GuaranteedVsExpected(c, 150*cfg.C, 2, 40)
		if err != nil {
			t.Fatal(err)
		}
		return tb.Render()
	}
	base := render(1)
	for _, w := range []int{2, 8, 0} {
		if got := render(w); got != base {
			t.Errorf("workers=%d: E8 table differs from the serial run\n--- serial ---\n%s\n--- workers=%d ---\n%s", w, base, w, got)
		}
	}
}

// TestE8RegressionAgainstSerialLoop pins the refactor: the engine-backed E8
// means must agree with the pre-refactor serial trial loop (one shared rng
// across trials) within overlapping 95% confidence bounds — the loops walk
// different random streams, so only the distributions, not the draws, can
// be compared.
func TestE8RegressionAgainstSerialLoop(t *testing.T) {
	cfg := smallCfg()
	c := cfg.C
	U := 150 * c
	p := 2
	trials := 120
	lambda := 3.0 / float64(U)

	eq, err := sched.NewAdaptiveEqualized(c)
	if err != nil {
		t.Fatal(err)
	}

	// The old implementation, verbatim in miniature: one rng shared by every
	// trial, values collected into a slice.
	oldLoop := func(seed int64) stats.Summary {
		rng := rand.New(rand.NewSource(seed))
		works := make([]float64, 0, trials)
		for i := 0; i < trials; i++ {
			adv := &adversary.Poisson{Rng: rng, Mean: 1 / lambda}
			res, err := sim.Run(eq, adv, sim.Opportunity{U: U, P: p, C: c}, sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			works = append(works, float64(res.Work))
		}
		return stats.Summarize(works)
	}

	oldSum := oldLoop(cfg.Seed)
	newSum, err := monteCarlo(eq, U, p, c, trials, func(rng *rand.Rand) sim.Interrupter {
		return &adversary.Poisson{Rng: rng, Mean: 1 / lambda}
	}, cfg.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if newSum.N != oldSum.N {
		t.Fatalf("trial counts differ: %d vs %d", newSum.N, oldSum.N)
	}
	if diff := math.Abs(newSum.Mean - oldSum.Mean); diff > 1.96*(newSum.SE+oldSum.SE) {
		t.Errorf("E8 mean moved outside CI bounds after the refactor: old %v ± %v, new %v ± %v",
			oldSum.Mean, 1.96*oldSum.SE, newSum.Mean, 1.96*newSum.SE)
	}
}

// TestE8FloorInvariant re-checks the paper's core inequality on the
// refactored path: no observed Monte-Carlo run may fall below the minimax
// floor of its scheduler.
func TestE8FloorInvariant(t *testing.T) {
	cfg := smallCfg()
	tb, err := GuaranteedVsExpected(cfg, 200*cfg.C, 2, 80)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		g, err1 := strconv.ParseFloat(row[1], 64)
		minObs, err2 := strconv.ParseFloat(row[6], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad cells in row %v", row)
		}
		if minObs < g-1e-9 {
			t.Errorf("%s: min observed %g below guaranteed floor %g", row[0], minObs, g)
		}
	}
}

// TestE8PinnedValues pins one small E8 table by value, every cell and note,
// so a change to how trials build or reuse their episodes cannot move an E8
// number unnoticed.
func TestE8PinnedValues(t *testing.T) {
	cfg := smallCfg()
	tb, err := GuaranteedVsExpected(cfg, 500*cfg.C, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := tb.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"E8: guaranteed vs expected output (U/c = 500, p = 2, λ = 3/U, 200 trials, c = 20 ticks; units of c)",
		"scheduler           guaranteed  mean vs poisson  ±95%     mean vs random  ±95%     min observed",
		"------------------------------------------------------------------------------------------------",
		"adaptive-equalized  448.35      465.8705         1.1408   458.6642        1.1078   450.15      ",
		"adaptive-guideline  439.55      464.4285         1.4615   454.3873        1.5076   442.65      ",
		"nonadaptive(m=31)   438.75      467.2447         1.5019   461.6562        1.1638   441.95      ",
		"expected-optimal    437.8       458.2155         1.0533   462.692         1.264    438.55      ",
		"single-period       0           271.685          18.3363  258.44          26.7998  0           ",
		"equal-split(10)     387         451.0132         2.8813   461.2698        3.2427   400.3       ",
		"  note: guaranteed = exact minimax floor; means are Monte-Carlo over stochastic owners (draconian kills, opportunity continues after each interrupt)",
		"  note: expected-optimal comes from the companion expected-output submodel (extension; see internal/expect)",
		"  note: Monte-Carlo trials run on internal/mc: deterministic per-trial seed streams, bit-identical at any worker count",
	}, "\n") + "\n"
	if got.String() != want {
		t.Errorf("E8 table moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

func TestFarmStudyDeterministicAcrossWorkers(t *testing.T) {
	cfg := smallCfg()
	render := func(workers int) string {
		c := Config{C: cfg.C, Seed: cfg.Seed, Workers: workers}
		tb, err := FarmStudy(c, 4, 3, 2000, 4)
		if err != nil {
			t.Fatal(err)
		}
		return tb.Render()
	}
	if a, b := render(1), render(8); a != b {
		t.Errorf("E11 table depends on worker count:\n--- serial ---\n%s\n--- workers=8 ---\n%s", a, b)
	}
}

func TestAblationReplication(t *testing.T) {
	cfg := smallCfg()
	tb, err := AblationReplication(cfg, 100*cfg.C, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[4] != "true" {
			t.Errorf("workers=%s: summary not identical to serial", row[0])
		}
	}
}

func TestFleetScaleDeterministicAcrossWorkers(t *testing.T) {
	cfg := smallCfg()
	render := func(workers int) string {
		c := Config{C: cfg.C, Seed: cfg.Seed, Workers: workers}
		tb, err := FleetScale(c, []int{5, 40}, 3, 20, 2)
		if err != nil {
			t.Fatal(err)
		}
		// The wall-clock column is the one column allowed to vary; blank it.
		for _, row := range tb.Rows {
			row[len(row)-1] = "-"
		}
		return tb.Render()
	}
	if a, b := render(1), render(8); a != b {
		t.Errorf("E12 table depends on worker count:\n--- serial ---\n%s\n--- workers=8 ---\n%s", a, b)
	}
}

func TestFleetScaleRejectsBadShapes(t *testing.T) {
	if _, err := FleetScale(smallCfg(), []int{4}, 3, 10, 0); err == nil {
		t.Error("trials=0 accepted")
	}
	if _, err := FleetScale(smallCfg(), nil, 3, 10, 2); err == nil {
		t.Error("empty fleet list accepted")
	}
	if _, err := FleetScale(smallCfg(), []int{0}, 3, 10, 2); err == nil {
		t.Error("zero-station fleet accepted")
	}
}

// TestConfigTrialsOverride pins the cstealtables -trials plumbing: a Config
// with Trials set must change the registry experiments' replication counts.
func TestConfigTrialsOverride(t *testing.T) {
	cfg := Config{C: 20, Seed: 1, Trials: 7}
	if got := cfg.trialsOr(300); got != 7 {
		t.Fatalf("trialsOr ignored the override: %d", got)
	}
	if got := (Config{}).trialsOr(300); got != 300 {
		t.Fatalf("default trials: %d", got)
	}
	e, err := Lookup("fleetscale")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "fleetscale" {
		t.Fatalf("registry lookup: %+v", e)
	}
}

// TestParallelSpeedupFloor is E9d promoted from reporting to asserting: on a
// multi-core runner (env-gated so single-core local runs skip it) the
// replication engine must beat its own serial wall-clock by the factor in
// CYCLESTEAL_MIN_SPEEDUP on the E9d study shape.
func TestParallelSpeedupFloor(t *testing.T) {
	spec := os.Getenv("CYCLESTEAL_MIN_SPEEDUP")
	if spec == "" {
		t.Skip("set CYCLESTEAL_MIN_SPEEDUP=<factor> (multi-core CI) to assert the E9d speedup floor")
	}
	min, err := strconv.ParseFloat(spec, 64)
	if err != nil || min <= 0 {
		t.Fatalf("bad CYCLESTEAL_MIN_SPEEDUP %q: %v", spec, err)
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-core machine cannot exhibit a parallel speedup")
	}

	cfg := Config{C: 100, Seed: 1}
	c := cfg.C
	U := 300 * c
	eq, err := sched.NewAdaptiveEqualized(c)
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(U) / 3
	study := func(workers int) time.Duration {
		start := time.Now()
		if _, err := monteCarlo(eq, U, 2, c, 2000, func(rng *rand.Rand) sim.Interrupter {
			return &adversary.Poisson{Rng: rng, Mean: mean}
		}, cfg.Seed, workers); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	// Best of three per variant: CI runners are noisy, and the contract is
	// about capability, not a single draw.
	best := func(workers int) time.Duration {
		b := study(workers)
		for i := 0; i < 2; i++ {
			if d := study(workers); d < b {
				b = d
			}
		}
		return b
	}
	serial, parallel := best(1), best(0)
	speedup := float64(serial) / float64(parallel)
	t.Logf("serial %v, parallel %v: speedup %.2f× on %d cores (floor %.2f×)",
		serial, parallel, speedup, runtime.GOMAXPROCS(0), min)
	if speedup < min {
		t.Errorf("parallel speedup %.2f× below the asserted floor %.2f×", speedup, min)
	}
}

// TestMonteCarloTrialAllocationFree pins satellite claim of the per-worker
// state hook: with the scratch warm, the opportunity itself allocates
// nothing — a replicated E8 trial pays only for its rng and interrupter.
func TestMonteCarloTrialAllocationFree(t *testing.T) {
	cfg := smallCfg()
	c := cfg.C
	U := 150 * c
	eq, err := sched.NewAdaptiveEqualized(c)
	if err != nil {
		t.Fatal(err)
	}
	bufs := newTrialScratch().(*sim.Buffers)
	var adv sim.Interrupter = adversary.Periodic{U: U, Every: U / 5}
	trial := func() {
		res, err := sim.Run(eq, adv, sim.Opportunity{U: U, P: 2, C: c}, sim.Config{Buffers: bufs})
		if err != nil {
			t.Fatal(err)
		}
		if res.Work == 0 {
			t.Fatal("trial banked nothing")
		}
	}
	trial() // warm the buffers
	trial()
	if allocs := testing.AllocsPerRun(200, trial); allocs != 0 {
		t.Errorf("warm E8-style trial allocates %.1f times per run, want 0", allocs)
	}
}

// e8BenchShape is the replication the BenchmarkMCE8* pair replays: the E9d
// study shape on one worker, so allocs/op is deterministic and CI can gate
// it exactly.
func e8BenchShape(b *testing.B, scratch bool) {
	b.Helper()
	cfg := Config{C: 100, Seed: 1}
	c := cfg.C
	U := 150 * c
	eq, err := sched.NewAdaptiveEqualized(c)
	if err != nil {
		b.Fatal(err)
	}
	mean := float64(U) / 3
	mk := func(rng *rand.Rand) sim.Interrupter {
		return &adversary.Poisson{Rng: rng, Mean: mean}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum stats.Summary
		var err error
		if scratch {
			sum, err = monteCarlo(eq, U, 2, c, 1000, mk, cfg.Seed, 1)
		} else {
			sum, err = mc.Run(context.Background(), mc.Config{Trials: 1000, Seed: cfg.Seed, Workers: 1},
				func(rng *rand.Rand) (float64, error) {
					res, err := sim.Run(eq, mk(rng), sim.Opportunity{U: U, P: 2, C: c}, sim.Config{})
					if err != nil {
						return 0, err
					}
					return float64(res.Work), nil
				})
		}
		if err != nil {
			b.Fatal(err)
		}
		if sum.N != 1000 {
			b.Fatal("short study")
		}
	}
}

// BenchmarkMCE8TrialScratch replicates E8 through the per-worker scratch
// hook (the shipped path): each worker's episodes and shipped tasks reuse
// its buffers.
func BenchmarkMCE8TrialScratch(b *testing.B) { e8BenchShape(b, true) }

// BenchmarkMCE8TrialCold is the same study without the hook — every trial
// rebuilds episodes and shipping buffers. The allocs/op gap is the value of
// mc's per-worker state.
func BenchmarkMCE8TrialCold(b *testing.B) { e8BenchShape(b, false) }
