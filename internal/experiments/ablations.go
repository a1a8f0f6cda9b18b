package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cyclesteal/internal/adversary"
	"cyclesteal/internal/game"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/stats"
	"cyclesteal/internal/tab"
	"cyclesteal/internal/task"
	"cyclesteal/internal/theory"
)

// AblationQuantum is E9a: grid-resolution sensitivity. Holding U/c fixed and
// varying how many ticks represent one setup cost, the deficit coefficient of
// the exact optimum must be stable — evidence that the tick discretization
// does not distort the continuum game the paper analyzes.
func AblationQuantum(cfg Config, cs []quant.Tick, ratio quant.Tick) (*tab.Table, error) {
	t := tab.New(
		fmt.Sprintf("E9a: grid-resolution ablation (U/c = %d fixed)", ratio),
		"ticks per c", "U ticks", "p", "(U−W_opt)/√(2cU)", "K_p",
	)
	for _, c := range cs {
		if c < 1 {
			return nil, fmt.Errorf("experiments: bad resolution %d", c)
		}
		U := ratio * c
		solver, err := game.Solve(2, U, c)
		if err != nil {
			return nil, err
		}
		root := math.Sqrt(2 * float64(c) * float64(U))
		for p := 1; p <= 2; p++ {
			coeff := (float64(U) - float64(solver.Value(p, U))) / root
			t.Row(c, U, p, coeff, theory.OptimalDeficitCoefficient(p))
		}
	}
	t.Note("coefficients are stable across resolutions: the integer grid reproduces the continuum game")
	return t, nil
}

// AblationGuideline is E9b: the §3.2 design choices, varied one at a time.
// Slope: the printed δ = 4^{1−p}c vs the equalization-derived α_p²c vs a flat
// c. Tail length: none vs the printed ⌈2p/3⌉ vs an extra-long 2p. Residue
// policy: spread vs dumped on the first period.
func AblationGuideline(cfg Config, ps []int, U quant.Tick) (*tab.Table, error) {
	cfg = cfg.normalize()
	c := cfg.C
	variants := []sched.GuidelineVariant{
		{C: c, Variant: "printed δ=4^{1−p}c"},
		{C: c, Variant: "slope α_p²·c", Cfg: sched.GuidelineConfig{
			RampStep: func(p int, cf float64) float64 {
				a := theory.EqualizedAlpha(p)
				return a * a * cf
			},
		}},
		{C: c, Variant: "slope c", Cfg: sched.GuidelineConfig{
			RampStep: func(p int, cf float64) float64 { return cf },
		}},
		{C: c, Variant: "no tail", Cfg: sched.GuidelineConfig{
			TailCount: func(p int) int { return 0 },
		}},
		{C: c, Variant: "tail 2p", Cfg: sched.GuidelineConfig{
			TailCount: func(p int) int { return 2 * p },
		}},
		{C: c, Variant: "residue dumped", Cfg: sched.GuidelineConfig{DumpResidue: true}},
	}
	t := tab.New(
		fmt.Sprintf("E9b: §3.2 design-choice ablation (U/c = %s, c = %d ticks; deficit coefficients (U−W)/√(2cU))",
			tab.FormatFloat(inC(U, c)), c),
		"p", "variant", "coefficient", "W/c", "K_p (target)",
	)
	root := math.Sqrt(2 * float64(c) * float64(U))
	for _, p := range ps {
		for _, v := range variants {
			w, err := game.Evaluate(v, p, U, c)
			if err != nil {
				return nil, err
			}
			t.Row(p, v.Variant, (float64(U)-float64(w))/root, inC(w, c), theory.OptimalDeficitCoefficient(p))
		}
	}
	t.Note("slope α_p²·c is the equalization-derived step; it dominates the printed 4^{1−p}c for p ≥ 2 (they coincide at p = 1)")
	t.Note("dumping the rounding residue on one period measurably fattens the adversary's best kill")
	return t, nil
}

// AblationSolver is E9c: the fast crossing-point solver against the
// brute-force reference — identical values, asymptotically separated running
// times. (bench_test.go carries the precise timing benchmarks; the table
// reports one-shot wall times and equality.)
func AblationSolver(cfg Config, Us []quant.Tick) (*tab.Table, error) {
	cfg = cfg.normalize()
	c := quant.Tick(10) // small c keeps the reference solver feasible
	t := tab.New(
		"E9c: fast (forward crossing pointer, O(pU)) vs reference (O(pU²)) solver",
		"U ticks", "fast ms", "reference ms", "tables equal",
	)
	for _, U := range Us {
		start := time.Now()
		fast, err := game.Solve(2, U, c)
		if err != nil {
			return nil, err
		}
		fastMs := float64(time.Since(start).Microseconds()) / 1000

		start = time.Now()
		ref, err := game.SolveReference(2, U, c)
		if err != nil {
			return nil, err
		}
		refMs := float64(time.Since(start).Microseconds()) / 1000

		equal := true
		for p := 0; p <= 2 && equal; p++ {
			for L := quant.Tick(0); L <= U; L++ {
				if fast.Value(p, L) != ref.Value(p, L) {
					equal = false
					break
				}
			}
		}
		t.Row(U, fastMs, refMs, equal)
	}
	t.Note("the fast solver exploits that complete(t) is nondecreasing (V is 1-Lipschitz) and interrupt(t) nonincreasing: the crossing's residual never moves back as L grows, so one forward pointer per row finds every cell's crossing")
	return t, nil
}

// AblationReplication is E9d: the replication engine's contract, measured.
// The same Monte-Carlo study (equalized schedule vs a Poisson owner) runs at
// several worker counts; the summary must be bit-identical every time —
// internal/mc's fixed shard partition at work — while wall-clock time is
// free to improve with cores. This is the determinism evidence E8 and E11
// lean on when they quote means from a parallel engine.
func AblationReplication(cfg Config, U quant.Tick, trials int) (*tab.Table, error) {
	cfg = cfg.normalize()
	c := cfg.C
	if trials < 1 {
		return nil, fmt.Errorf("experiments: E9d needs trials ≥ 1, got %d", trials)
	}
	eq, err := sched.NewAdaptiveEqualized(c)
	if err != nil {
		return nil, err
	}
	p := 2
	mean := float64(U) / 3
	study := func(workers int) (stats.Summary, error) {
		return monteCarlo(eq, U, p, c, trials, func(rng *rand.Rand) sim.Interrupter {
			return &adversary.Poisson{Rng: rng, Mean: mean}
		}, cfg.Seed, workers)
	}
	start := time.Now()
	base, err := study(1)
	if err != nil {
		return nil, err
	}
	baseMs := float64(time.Since(start).Microseconds()) / 1000
	t := tab.New(
		fmt.Sprintf("E9d: replication-engine ablation (U/c = %s, p = %d, λ = 3/U, %d trials, c = %d ticks)",
			tab.FormatFloat(inC(U, c)), p, trials, c),
		"workers", "mean W/c", "±95%", "min W/c", "identical to serial", "wall ms",
	)
	tcrit := stats.TCritical95(trials - 1)
	t.Row(1, base.Mean/float64(c), tcrit*base.SE/float64(c), base.Min/float64(c), true, baseMs)
	for _, workers := range []int{2, 4, 8} {
		start := time.Now()
		s, err := study(workers)
		if err != nil {
			return nil, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		identical := s.N == base.N && s.Mean == base.Mean && s.Std == base.Std &&
			s.Min == base.Min && s.Max == base.Max && s.Median == base.Median
		if !identical {
			return nil, fmt.Errorf("experiments: mc determinism violated at %d workers: %+v vs %+v", workers, s, base)
		}
		t.Row(workers, s.Mean/float64(c), tcrit*s.SE/float64(c), s.Min/float64(c), identical, ms)
	}
	t.Note("identical = every summary field bit-equal to the 1-worker run (the internal/mc seed-stream contract)")
	t.Note("wall times depend on available cores; determinism does not")
	return t, nil
}

// TaskGranularity is E10: the data-parallel reality check. The fluid model
// banks t ⊖ c per period; a real bag of indivisible tasks banks only whole
// tasks. The experiment packs bags of varying task size into the equalization
// schedule and reports the packing loss against the malicious adversary's
// replay — quantifying when the fluid analysis is trustworthy (tasks ≪ c) and
// when it is not (tasks ≈ period length).
func TaskGranularity(cfg Config, U quant.Tick, sizes []quant.Tick) (*tab.Table, error) {
	cfg = cfg.normalize()
	c := cfg.C
	p := 1
	eq, err := sched.NewAdaptiveEqualized(c)
	if err != nil {
		return nil, err
	}
	guaranteed, br, err := game.EvaluateWithStrategy(eq, p, U, c)
	if err != nil {
		return nil, err
	}
	t := tab.New(
		fmt.Sprintf("E10: task granularity under the worst-case adversary (U/c = %s, p = %d, c = %d ticks)",
			tab.FormatFloat(inC(U, c)), p, c),
		"task size/c", "fluid work/c", "task work/c", "tasks done", "packing loss %",
	)
	for _, size := range sizes {
		if size < 1 {
			size = 1
		}
		n := int(U/size) + 1
		bag := task.NewBag(task.Fixed(n, size))
		res, err := simulateWithBag(eq, br, U, p, c, bag)
		if err != nil {
			return nil, err
		}
		loss := 0.0
		if res.Work > 0 {
			loss = 100 * float64(res.Work-res.TaskWork) / float64(res.Work)
		}
		t.Row(
			float64(size)/float64(c),
			inC(res.Work, c),
			inC(res.TaskWork, c),
			res.TasksCompleted,
			loss,
		)
	}
	t.Note("fluid work equals the guaranteed minimax value %s·c (best-response replay)", tab.FormatFloat(inC(guaranteed, c)))
	t.Note("packing loss stays negligible while tasks ≪ c and grows once task size is commensurate with period lengths ≈ √(2cU)")
	return t, nil
}
