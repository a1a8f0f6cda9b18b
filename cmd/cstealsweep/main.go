// Command cstealsweep computes the exact optimal guaranteed output W(p)[U]
// over a (U, p) grid, solving cells concurrently on a worker pool — the bulk
// parameter-study entry point backing capacity-planning questions like "how
// does the guarantee scale as owners get twitchier?".
//
// With -trials > 0 each cell additionally gets a Monte-Carlo column: the
// optimal schedule's expected output against a Poisson owner (mean return
// U/3, the E8 convention), replicated on the internal/mc engine with
// deterministic per-trial seed streams — reproducible for a fixed -seed at
// any -workers setting.
//
// With -fleet N > 1 (and -trials > 0) the Monte-Carlo view scales out: each
// cell farms one shared data-parallel job across N identical stations
// offering the cell's (U, p) contract under Poisson owners, on the
// deterministic two-level farm engine with the bag sharding picked by
// -shards — answering "what does this per-opportunity guarantee compose to
// at fleet size N?" per cell. -clusters/-steallatency split those shards
// into a two-tier topology with latency-priced cross-cluster steals.
//
// With -distribute N (and -fleet, -trials) the fleet-mode study fans out
// across N local worker processes: the cell's contract is restated as a
// public fleet spec (Poisson temperament inside a fixed (U, p) contract,
// the equalization policy in place of the solved optimal schedule) and a
// distrib.Coordinator deals the study's shards to re-execed copies of this
// binary — bit-identical to running the same spec in one process, at any N.
//
// Usage:
//
//	cstealsweep -c 100 -ratios 100,1000,10000 -ps 1,2,4 -workers 8
//	cstealsweep -ratios 100,1000 -ps 1,2 -trials 1000 -seed 7
//	cstealsweep -ratios 100,1000 -ps 1,2 -trials 50 -fleet 500
//	cstealsweep -ratios 1000 -ps 2 -trials 50 -fleet 500 -shards 8 -clusters 2 -steallatency 100
//	cstealsweep -ratios 1000 -ps 2 -trials 200 -fleet 64 -distribute 4
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"cyclesteal/distrib"
	"cyclesteal/fleet"
	"cyclesteal/internal/adversary"
	"cyclesteal/internal/farm"
	"cyclesteal/internal/game"
	"cyclesteal/internal/mc"
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/station"
	"cyclesteal/internal/stats"
	"cyclesteal/internal/tab"
	"cyclesteal/internal/task"
	"cyclesteal/internal/theory"
)

func main() {
	// Hidden worker mode: `cstealsweep -distrib-worker` speaks the distrib
	// wire conversation over stdio until the coordinator closes the pipe.
	// Deliberately not a registered flag — it is the re-exec target of
	// -distribute, not part of the CLI surface.
	if len(os.Args) == 2 && os.Args[1] == "-distrib-worker" {
		if err := distrib.Serve(context.Background(), os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	var (
		c        = flag.Int64("c", 100, "setup cost in ticks (grid resolution)")
		ratios   = flag.String("ratios", "100,1000,10000", "comma-separated U/c ratios")
		ps       = flag.String("ps", "1,2,4", "comma-separated interrupt bounds")
		workers  = flag.Int("workers", 0, "worker pool size for cells and trials (0 = GOMAXPROCS)")
		trials   = flag.Int("trials", 0, "Monte-Carlo trials per cell vs a Poisson owner (0 = exact sweep only)")
		seed     = flag.Int64("seed", 1, "base rng seed for the Monte-Carlo trials (trial i uses seed+i)")
		fleetN   = flag.Int("fleet", 0, "farm a shared job across this many stations per cell (needs -trials; ≤ 1 = single-station MC)")
		shards   = flag.Int("shards", 0, "station groups in fleet mode: 0 = auto, 1 = one shared queue")
		clusters = flag.Int("clusters", 0, "split the fleet-mode shards into this many equal clusters (0 or 1 = flat fleet; needs -fleet)")
		stealLat = flag.Int64("steallatency", 0, "cross-cluster steal latency in ticks for fleet mode (needs -clusters ≥ 2; intra-cluster steals stay free)")
		distProc = flag.Int("distribute", 0, "fan the fleet-mode Monte-Carlo out across this many local worker processes (needs -fleet and -trials; 0 = in-process)")
		format   = flag.String("format", "text", "output format: text, csv, or json")
	)
	flag.Parse()

	if *clusters > 1 && *fleetN <= 1 {
		fatal(fmt.Errorf("-clusters needs -fleet N > 1 (clusters partition the fleet-mode shards)"))
	}
	if *stealLat != 0 && *clusters < 2 {
		fatal(fmt.Errorf("-steallatency needs -clusters ≥ 2 to have a crossing to price"))
	}
	if *distProc < 0 {
		fatal(fmt.Errorf("-distribute must be ≥ 0, got %d", *distProc))
	}
	if *distProc > 0 && (*fleetN <= 1 || *trials <= 0) {
		fatal(fmt.Errorf("-distribute needs -fleet N > 1 and -trials > 0 (it shards the fleet-mode study)"))
	}

	rs, err := parseTicks(*ratios)
	if err != nil {
		fatal(err)
	}
	pl, err := parseInts(*ps)
	if err != nil {
		fatal(err)
	}
	us := make([]quant.Tick, len(rs))
	for i, r := range rs {
		us[i] = r * quant.Tick(*c)
	}

	points := game.Grid(us, pl, quant.Tick(*c))
	results := game.Sweep(points, *workers)

	var mcSums []stats.Summary
	var fleetCells []fleetCell
	if *trials > 0 {
		var err error
		mcSums, err = sweepMonteCarlo(points, *trials, *seed, *workers)
		if err != nil {
			fatal(err)
		}
		if *fleetN > 1 {
			if *distProc > 0 {
				fleetCells, err = sweepFleetDistributed(points, *trials, *seed, *fleetN, *shards, *clusters, quant.Tick(*stealLat), *distProc)
			} else {
				topo := farm.Topology{Clusters: *clusters, CrossLatency: quant.Tick(*stealLat)}
				fleetCells, err = sweepFleet(points, *trials, *seed, *workers, *fleetN, *shards, topo)
			}
			if err != nil {
				fatal(err)
			}
		}
	}

	cols := []string{"p", "U/c", "W/c", "W/U %", "deficit coeff", "K_p"}
	if *trials > 0 {
		cols = append(cols, "E[W]/c poisson", "±95%")
	}
	if fleetCells != nil {
		cols = append(cols, fmt.Sprintf("fleet%d compl %%", *fleetN), "imbalance", "steals")
		if *clusters > 1 {
			cols = append(cols, "in flight")
		}
	}
	t := tab.New(
		fmt.Sprintf("optimal guaranteed output W(p)[U] (c = %d ticks; %d cells)", *c, len(points)),
		cols...,
	)
	for i, res := range results {
		if res.Err != nil {
			fatal(res.Err)
		}
		uf, cf := float64(res.U), float64(res.C)
		deficit := (uf - float64(res.Value)) / math.Sqrt(2*cf*uf)
		row := []any{res.P, res.U / res.C,
			float64(res.Value) / cf,
			100 * float64(res.Value) / uf,
			deficit,
			theory.OptimalDeficitCoefficient(res.P),
		}
		if *trials > 0 {
			sum := mcSums[i]
			row = append(row, sum.Mean/cf, stats.TCritical95(sum.N-1)*sum.SE/cf)
		}
		if fleetCells != nil {
			fc := fleetCells[i]
			row = append(row, 100*fc.completion.Mean, fc.imbalance.Mean, fc.steals.Mean)
			if *clusters > 1 {
				row = append(row, fc.inflight.Mean)
			}
		}
		t.Row(row...)
	}
	t.Note("deficit coeff = (U−W)/√(2cU); K_p is the equalization prediction it converges to")
	if *trials > 0 {
		t.Note("E[W] = optimal schedule vs Poisson owner (mean return U/3), %d trials on the internal/mc engine", *trials)
	}
	if fleetCells != nil {
		t.Note("fleet columns: %d identical stations farm one shared job (a full U/c size-c tasks per station) on the two-level farm engine; completion ≈ the fleet-achievable fraction of the contract, with max/mean balance and cross-queue steals, means over %d trials", *fleetN, *trials)
		if *distProc > 0 {
			t.Note("fleet columns computed distributed across %d worker processes on the public fleet engine: stations schedule with the adaptive equalization policy (not the cell's solved optimal schedule) under a Poisson temperament inside the fixed (U, p) contract — bit-identical to the same spec in one process", *distProc)
		}
		if *clusters > 1 {
			t.Note("topology: %d clusters over the shards, cross-cluster steals priced at %d ticks; with one opportunity per station a priced parcel caught at the final barrier never lands — the in-flight column is that loss", *clusters, *stealLat)
		}
	}
	switch *format {
	case "text":
		err = t.WriteText(os.Stdout)
	case "csv":
		err = t.WriteCSV(os.Stdout)
	case "json":
		err = t.WriteJSON(os.Stdout)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
}

// sweepMonteCarlo replays every cell's optimal schedule against a stochastic
// Poisson owner, trials times per cell on the replication engine. Cells run
// concurrently (each pays its own full game.Solve — Sweep's low-memory value
// rows cannot yield a schedule), with the worker budget split between the
// cell pool and each cell's trial pool so the total stays ≈ workers. The
// solver is dropped as soon as its cell's trials finish, so resident memory
// is one value table per in-flight cell, not per cell.
func sweepMonteCarlo(points []game.SweepPoint, trials int, seed int64, workers int) ([]stats.Summary, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cellPool := workers
	if cellPool > len(points) {
		cellPool = len(points)
	}
	trialWorkers := workers / cellPool
	if trialWorkers < 1 {
		trialWorkers = 1
	}

	sums := make([]stats.Summary, len(points))
	errs := make([]error, len(points))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cellPool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				pt := points[i]
				solver, err := game.Solve(pt.P, pt.U, pt.C)
				if err != nil {
					errs[i] = err
					continue
				}
				s := solver.Scheduler()
				mean := float64(pt.U) / 3
				sums[i], errs[i] = mc.Run(context.Background(), mc.Config{Trials: trials, Seed: seed, Workers: trialWorkers},
					func(rng *rand.Rand) (float64, error) {
						res, err := sim.Run(s, &adversary.Poisson{Rng: rng, Mean: mean}, sim.Opportunity{U: pt.U, P: pt.P, C: pt.C}, sim.Config{})
						if err != nil {
							return 0, err
						}
						return float64(res.Work), nil
					})
			}
		}()
	}
	for i := range points {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cell (U=%d p=%d): %w", points[i].U, points[i].P, err)
		}
	}
	return sums, nil
}

// fleetCell is one sweep cell's fleet-composition view.
type fleetCell struct {
	completion stats.Summary
	imbalance  stats.Summary
	steals     stats.Summary
	inflight   stats.Summary
}

// fixedOwner offers the sweep cell's exact contract every time and plays the
// E8 Poisson temperament (mean return U/3) inside it.
type fixedOwner struct {
	u quant.Tick
	p int
}

func (o fixedOwner) Sample(*rand.Rand) station.Contract { return station.Contract{U: o.u, P: o.p} }

func (o fixedOwner) Interrupter(rng *rand.Rand, c station.Contract) sim.Interrupter {
	return &adversary.Poisson{Rng: rng, Mean: float64(c.U) / 3}
}

func (o fixedOwner) Name() string { return "fixed+poisson" }

// sweepFleet farms each cell's contract across fleet identical stations: the
// cell's exactly optimal schedule (shared read-only across stations) works a
// job of U/c size-c tasks per station — a full lifespan's worth, more than
// any visit can yield, so the completion column reads as the fleet-level
// achievable fraction of the cell's (U, p) contract. Cells run sequentially;
// the worker budget goes to farm.Replicate's two-level trial × station-group
// pool, and every cell is bit-identical at any -workers by the mc and farm
// determinism contracts. A non-flat topo splits the shards into clusters and
// prices cross-cluster steals (-clusters / -steallatency); the farm's
// topology validation rejects shapes the shard count cannot partition.
func sweepFleet(points []game.SweepPoint, trials int, seed int64, workers, fleet, shards int, topo farm.Topology) ([]fleetCell, error) {
	out := make([]fleetCell, len(points))
	for i, pt := range points {
		solver, err := game.Solve(pt.P, pt.U, pt.C)
		if err != nil {
			return nil, err
		}
		s := solver.Scheduler()
		factory := func(ws station.Workstation, ct station.Contract) (model.EpisodeScheduler, error) { return s, nil }
		stations := make([]station.Workstation, fleet)
		for j := range stations {
			stations[j] = station.Workstation{ID: j, Owner: fixedOwner{u: pt.U, p: pt.P}, Setup: pt.C}
		}
		perStation := int(pt.U / pt.C)
		if perStation < 1 {
			perStation = 1
		}
		job := farm.Job{Tasks: task.Fixed(fleet*perStation, pt.C)}
		f := farm.Farm{Stations: stations, OpportunitiesPerStation: 1, Shards: shards, Topology: topo}
		sums, err := f.Replicate(context.Background(), job, factory, mc.Config{Trials: trials, Seed: seed + int64(i)<<32, Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("cell (U=%d p=%d) fleet: %w", pt.U, pt.P, err)
		}
		out[i] = fleetCell{
			completion: sums[farm.MetricCompletionFrac],
			imbalance:  sums[farm.MetricImbalance],
			steals:     sums[farm.MetricSteals],
			inflight:   sums[farm.MetricTasksInFlight],
		}
	}
	return out, nil
}

// distribCellSpec restates one sweep cell as a wire spec for the public
// fleet engine: fleetN stations whose owners play the E8 Poisson
// temperament (mean return U/3) inside a fixed (U, p) contract, Setup = c
// in caller units with TicksPerSetup = c so one caller unit is exactly one
// tick — the sweep's own grid. The job is the fleet mode's usual full
// lifespan of size-c tasks per station. What cannot travel is the cell's
// solved optimal schedule (a value table, not named data), so distributed
// cells schedule with the named default — the adaptive equalization
// policy; the fleet columns shift meaning accordingly. A p = 0 cell is
// rejected: the wire owner grammar cannot express a zero interrupt
// allowance (0 means "the standard default" there).
func distribCellSpec(pt game.SweepPoint, trials int, seed int64, cell, fleetN, shards, clusters int, stealLat quant.Tick) (distrib.Spec, error) {
	if pt.P < 1 {
		return distrib.Spec{}, fmt.Errorf("cell (U=%d p=%d): -distribute cannot express a zero interrupt allowance (drop p=0 from -ps)", pt.U, pt.P)
	}
	cfg := fleet.Config{
		Stations:      fleetN,
		Setup:         float64(pt.C),
		TicksPerSetup: int(pt.C),
		Opportunities: 1,
		Seed:          seed + int64(cell)<<32,
		Owners: []fleet.Owner{fleet.Poisson{
			Base: fleet.Fixed{Lifespan: float64(pt.U), Interrupts: pt.P},
			Mean: float64(pt.U) / 3,
		}},
		Shards:       shards,
		Clusters:     clusters,
		StealLatency: float64(stealLat),
	}
	perStation := int(pt.U / pt.C)
	if perStation < 1 {
		perStation = 1
	}
	job := fleet.Job{Tasks: fleet.FixedTasks(fleetN*perStation, float64(pt.C))}
	return distrib.NewSpec(cfg, job, trials)
}

// sweepFleetDistributed is sweepFleet's multi-process sibling: each cell's
// study fans out across procs re-execed copies of this binary (the hidden
// -distrib-worker mode) through a distrib.Coordinator, with study-level
// trial progress relayed to stderr. Cells run sequentially; within a cell
// the merged numbers are bit-identical at any procs by the distrib
// contract.
func sweepFleetDistributed(points []game.SweepPoint, trials int, seed int64, fleetN, shards, clusters int, stealLat quant.Tick, procs int) ([]fleetCell, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the worker binary: %w", err)
	}
	start := distrib.ExecStarter(func() *exec.Cmd { return exec.Command(exe, "-distrib-worker") })
	out := make([]fleetCell, len(points))
	for i, pt := range points {
		spec, err := distribCellSpec(pt, trials, seed, i, fleetN, shards, clusters, stealLat)
		if err != nil {
			return nil, err
		}
		coord, err := distrib.NewCoordinator(spec, distrib.Options{
			Workers: procs,
			Start:   start,
			Progress: func(done, total int) {
				fmt.Fprintf(os.Stderr, "\rcstealsweep: cell %d/%d: %d/%d trials", i+1, len(points), done, total)
			},
		})
		if err != nil {
			return nil, fmt.Errorf("cell (U=%d p=%d) distributed fleet: %w", pt.U, pt.P, err)
		}
		rep, err := coord.Run(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr)
			return nil, fmt.Errorf("cell (U=%d p=%d) distributed fleet: %w", pt.U, pt.P, err)
		}
		out[i] = fleetCell{
			completion: engineSummary(rep.Completion),
			imbalance:  engineSummary(rep.Imbalance),
			steals:     engineSummary(rep.Steals),
			inflight:   engineSummary(rep.InFlight),
		}
	}
	fmt.Fprintln(os.Stderr)
	return out, nil
}

// engineSummary converts a public fleet summary back to the engine form
// the table plumbing carries. The fields mirror one another exactly; only
// the package differs.
func engineSummary(s fleet.Summary) stats.Summary {
	return stats.Summary{
		N:      s.N,
		Mean:   s.Mean,
		Std:    s.Std,
		SE:     s.SE,
		Min:    s.Min,
		Max:    s.Max,
		Median: s.Median,
		P90:    s.P90,
		P99:    s.P99,
		CI95Lo: s.CI95Lo,
		CI95Hi: s.CI95Hi,
	}
}

func parseTicks(s string) ([]quant.Tick, error) {
	parts := strings.Split(s, ",")
	out := make([]quant.Tick, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad ratio %q", p)
		}
		out = append(out, quant.Tick(v))
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad interrupt bound %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cstealsweep:", err)
	os.Exit(1)
}
