// Package experiments regenerates every evaluation artifact of the paper —
// Table 1, Table 2, and the quantitative claims of §3.1, §5.1–5.2 and
// Prop. 4.1 — plus the repo's ablations (E9) and extensions. Each returns a
// tab.Table; cmd/cstealtables prints them and bench_test.go wraps them as
// benchmarks. EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"

	"cyclesteal/internal/quant"
	"cyclesteal/internal/tab"
)

// Config carries the grid parameters shared by all experiments. Times are in
// ticks; C is both the setup cost and the grid resolution (c ticks per setup
// cost — the natural unit of the model, in which every result is a function
// of U/c and p).
type Config struct {
	C    quant.Tick // setup cost in ticks (default 100)
	Seed int64      // base seed for Monte-Carlo experiments (per-trial streams derive from it; see internal/mc)
	// Workers bounds the Monte-Carlo worker pool (0 = GOMAXPROCS). By the
	// internal/mc seed-stream contract it affects wall-clock time only,
	// never a table value.
	Workers int
	// Trials overrides every replicated experiment's default trial count
	// when > 0 (cstealtables -trials). By mc prefix stability, raising it
	// widens each study without rebasing the trials already summarized.
	Trials int
	// Fleets overrides the fleet-size list of the fleet-sweep experiments —
	// E12 and E14 — when non-empty (cstealtables -fleets). One row (E12) or
	// row group (E14) per entry, in the given order.
	Fleets []int
}

// DefaultConfig returns the configuration used throughout EXPERIMENTS.md.
func DefaultConfig() Config { return Config{C: 100, Seed: 1} }

func (c Config) normalize() Config {
	if c.C < 1 {
		c.C = 100
	}
	return c
}

// trialsOr returns the experiment's default trial count unless the user
// overrode it (Config.Trials > 0).
func (c Config) trialsOr(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	return def
}

// fleetsOr returns the experiment's default fleet-size list unless the user
// overrode it (Config.Fleets non-empty).
func (c Config) fleetsOr(def []int) []int {
	if len(c.Fleets) > 0 {
		return c.Fleets
	}
	return def
}

// Experiment pairs an identifier with its driver, for the CLI registry.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*tab.Table, error)
}

// All returns every experiment in ID order, E1 to E17, with default shapes.
func All() []Experiment {
	return []Experiment{
		{"table1", "E1: Table 1 — consequences of the adversary's options", func(c Config) (*tab.Table, error) {
			return Table1(c, 2000*c.normalize().C, 2)
		}},
		{"table2", "E2: Table 2 — parameter values for p = 1", func(c Config) (*tab.Table, error) {
			return Table2(c, []quant.Tick{100, 1000, 10000, 30000})
		}},
		{"nonadaptive", "E3: §3.1 — non-adaptive guideline analysis", func(c Config) (*tab.Table, error) {
			return NonAdaptiveAnalysis(c, []int{1, 2, 4, 8}, []quant.Tick{100, 1000, 10000, 100000})
		}},
		{"equalization", "E4: Thm 5.1 — adaptive deficits and the K_p recursion", func(c Config) (*tab.Table, error) {
			return EqualizationStudy(c, 6, []quant.Tick{1000, 10000})
		}},
		{"optgap", "E5: §5.2 — optimality gaps at p = 1", func(c Config) (*tab.Table, error) {
			return OptimalityGap(c, []quant.Tick{100, 1000, 10000, 30000})
		}},
		{"prop41", "E6: Prop 4.1 — value-table properties", func(c Config) (*tab.Table, error) {
			return Prop41Grid(c, 4, 500*c.normalize().C)
		}},
		{"structure", "E7: Thm 4.2 / Obs (a) — optimal schedule structure", func(c Config) (*tab.Table, error) {
			return OptimalStructure(c, 1000*c.normalize().C)
		}},
		{"guarexp", "E8: guaranteed vs expected output", func(c Config) (*tab.Table, error) {
			return GuaranteedVsExpected(c, 500*c.normalize().C, 2, c.trialsOr(300))
		}},
		{"ablation-quantum", "E9a: ablation — grid resolution", func(c Config) (*tab.Table, error) {
			return AblationQuantum(c, []quant.Tick{10, 30, 100, 300}, 1000)
		}},
		{"ablation-guideline", "E9b: ablation — §3.2 design choices", func(c Config) (*tab.Table, error) {
			return AblationGuideline(c, []int{1, 2, 3}, 2000*c.normalize().C)
		}},
		{"ablation-solver", "E9c: ablation — fast vs reference solver", func(c Config) (*tab.Table, error) {
			return AblationSolver(c, []quant.Tick{200, 400, 800})
		}},
		{"ablation-mc", "E9d: ablation — replication engine determinism and scaling", func(c Config) (*tab.Table, error) {
			return AblationReplication(c, 300*c.normalize().C, c.trialsOr(2000))
		}},
		{"tasks", "E10: task granularity — fluid vs packed work", func(c Config) (*tab.Table, error) {
			cc := c.normalize().C
			return TaskGranularity(c, 1000*cc, []quant.Tick{1, cc / 10, cc, 10 * cc, 30 * cc})
		}},
		{"farm", "E11: one shared job across the NOW (extension)", func(c Config) (*tab.Table, error) {
			// Job sized to slightly exceed the fleet's effective capacity so
			// completion fraction differentiates the policies.
			return FarmStudy(c, 12, 30, 50000, c.trialsOr(5))
		}},
		{"fleetscale", "E12: fleet-scale farm — completion, imbalance and engine wall-clock vs fleet size (extension)", func(c Config) (*tab.Table, error) {
			return FleetScale(c, c.fleetsOr([]int{10, 50, 250, 1000, 5000}), 6, 400, c.trialsOr(3))
		}},
		{"owners", "E13: owner worlds — synthetic vs trace-replay vs adversarial owners, public facade only (extension)", func(c Config) (*tab.Table, error) {
			return OwnerWorlds(c, 6, 8)
		}},
		{"topology", "E14: two-tier topology — completion vs cross-cluster steal latency (arXiv:1805.00857 extension)", func(c Config) (*tab.Table, error) {
			return TopologyStudy(c, c.fleetsOr([]int{100, 1000, 5000}), []quant.Tick{0, 2, 8, 32}, 20, 12, c.trialsOr(3))
		}},
		{"resident", "E15: resident service — completion vs checkpoint interval × station churn (extension)", func(c Config) (*tab.Table, error) {
			return ResidentService(c, 24, 10, 170, []float64{2, 10, 20}, []float64{0, 0.02, 0.08}, []float64{0.25, 4}, c.trialsOr(3))
		}},
		{"faults", "E16: faulted farm — guaranteed output vs station crash rate × steal retries × checkpoint cost (extension)", func(c Config) (*tab.Table, error) {
			return FaultStudy(c, 24, []float64{0, 0.01, 0.05}, []int{1, 4}, c.trialsOr(3))
		}},
		{"distrib", "E17: distributed replication — one study merged from wire-protocol workers, bit-identity asserted (extension)", func(c Config) (*tab.Table, error) {
			return DistribStudy(c, 8, 4, c.trialsOr(64), []int{1, 4, 16})
		}},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// ticksPerC renders a tick quantity in units of the setup cost c, the
// natural unit for cross-resolution comparison.
func inC(x quant.Tick, c quant.Tick) float64 { return float64(x) / float64(c) }

// inCf is inC for quantities that are already float averages (Monte-Carlo
// means of tick metrics).
func inCf(x float64, c quant.Tick) float64 { return x / float64(c) }
