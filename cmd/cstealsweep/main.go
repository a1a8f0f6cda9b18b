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
// cell farms one shared data-parallel job across N identical stations on
// the public fleet engine — answering "what does this per-opportunity
// guarantee compose to at fleet size N?" per cell. Each station offers the
// cell's fixed (U, p) contract under the Poisson temperament (fleet.Poisson
// over fleet.Fixed, mean return U/3) and schedules with the equalized
// policy, not the cell's solved optimal schedule; the grid is one tick per
// caller unit, so the Poisson mean is rounded to the tick. -shards picks the
// bag sharding, and -clusters/-steallatency split those shards into a
// two-tier topology with latency-priced cross-cluster steals. A p = 0 cell
// is refused: the fleet's fixed owner reads a zero interrupt allowance as
// the standard one.
//
// -distribute N says only where the fleet columns are computed: 0 in this
// process on -workers workers, N > 0 across N local worker processes, to
// which a distrib.Coordinator deals each cell's study shards (re-execed
// copies of this binary). Every -distribute prints the same table.
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
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"cyclesteal/distrib"
	"cyclesteal/fleet"
	"cyclesteal/internal/adversary"
	"cyclesteal/internal/game"
	"cyclesteal/internal/mc"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/stats"
	"cyclesteal/internal/tab"
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
	if *trials > 0 && *fleetN > 1 && slices.Contains(pl, 0) {
		fatal(errZeroAllowance) // before any cell is solved
	}
	us := make([]quant.Tick, len(rs))
	for i, r := range rs {
		us[i] = r * quant.Tick(*c)
	}

	points := game.Grid(us, pl, quant.Tick(*c))
	results := game.Sweep(points, *workers)

	var mcSums []stats.Summary
	var fleetCells []fleet.Replication
	if *trials > 0 {
		var err error
		mcSums, err = sweepMonteCarlo(points, *trials, *seed, *workers)
		if err != nil {
			fatal(err)
		}
		if *fleetN > 1 {
			sw := fleetSweep{
				trials: *trials, seed: *seed,
				stations: *fleetN, shards: *shards, clusters: *clusters, stealLatency: quant.Tick(*stealLat),
				workers: *workers, procs: *distProc,
			}
			if sw.procs > 0 {
				exe, err := os.Executable()
				if err != nil {
					fatal(fmt.Errorf("locating the worker binary: %w", err))
				}
				sw.start = distrib.ExecStarter(func() *exec.Cmd { return exec.Command(exe, "-distrib-worker") })
			}
			fleetCells, err = sw.run(points)
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
			rep := fleetCells[i]
			row = append(row, 100*rep.Completion.Mean, rep.Imbalance.Mean, rep.Steals.Mean)
			if *clusters > 1 {
				row = append(row, rep.InFlight.Mean)
			}
		}
		t.Row(row...)
	}
	t.Note("deficit coeff = (U−W)/√(2cU); K_p is the equalization prediction it converges to")
	if *trials > 0 {
		t.Note("E[W] = optimal schedule vs Poisson owner (mean return U/3), %d trials on the internal/mc engine", *trials)
	}
	if fleetCells != nil {
		t.Note("fleet columns: %d identical stations farm one shared job (a full U/c size-c tasks per station) on the public fleet engine; completion ≈ the fleet-achievable fraction of the contract, with max/mean balance and cross-queue steals, means over %d trials", *fleetN, *trials)
		t.Note("fleet stations schedule with the equalized policy (not the cell's solved optimal schedule) under the Poisson temperament inside the fixed (U, p) contract, its mean return U/3 rounded to the tick; the same at any -distribute, each of which refuses p = 0 cells (the fixed owner reads a zero allowance as the standard one)")
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

// errZeroAllowance refuses a p = 0 cell under -fleet: the fleet's fixed
// owner reads a zero allowance as the standard one. main checks the flags
// for one before solving anything.
var errZeroAllowance = errors.New("-fleet cannot express a zero interrupt allowance: the fleet's fixed owner reads 0 as the standard allowance (drop p=0 from -ps)")

// fleetSweep is the -fleet study: each cell's fleet, its trials, and where
// they run.
type fleetSweep struct {
	trials                     int
	seed                       int64
	stations, shards, clusters int
	stealLatency               quant.Tick
	workers                    int             // in-process worker budget (-workers)
	procs                      int             // worker processes (-distribute); 0 runs in process
	start                      distrib.Starter // opens a worker when procs > 0
}

// cell states one sweep cell as a study of the public fleet engine: the
// sweep's stations, whose owners play the E8 Poisson temperament (mean
// return U/3) inside a fixed (U, p) contract, Setup = c in caller units
// with TicksPerSetup = c so one caller unit is exactly one tick — the
// sweep's own grid. The job is a full lifespan of size-c tasks per
// station, so the completion column reads as the fleet-level achievable
// fraction of the contract. What cannot be stated is the cell's solved
// optimal schedule (a value table, not named data), so stations schedule
// with the named default, the equalized policy. A p = 0 cell is refused
// (errZeroAllowance).
func (sw fleetSweep) cell(pt game.SweepPoint, cell int) (fleet.Config, fleet.Job, error) {
	if pt.P < 1 {
		return fleet.Config{}, fleet.Job{}, errZeroAllowance
	}
	cfg := fleet.Config{
		Stations:      sw.stations,
		Setup:         float64(pt.C),
		TicksPerSetup: int(pt.C),
		Opportunities: 1,
		Seed:          sw.seed + int64(cell)<<32,
		Owners: []fleet.Owner{fleet.Poisson{
			Base: fleet.Fixed{Lifespan: float64(pt.U), Interrupts: pt.P},
			Mean: float64(pt.U) / 3,
		}},
		Shards:       sw.shards,
		Clusters:     sw.clusters,
		StealLatency: float64(sw.stealLatency),
		Workers:      sw.workers,
	}
	perStation := max(int(pt.U/pt.C), 1)
	return cfg, fleet.Job{Tasks: fleet.FixedTasks(sw.stations*perStation, float64(pt.C))}, nil
}

// spec is the cell as the wire spec a distrib.Coordinator deals.
func (sw fleetSweep) spec(pt game.SweepPoint, cell int) (distrib.Spec, error) {
	cfg, job, err := sw.cell(pt, cell)
	if err != nil {
		return distrib.Spec{}, err
	}
	return distrib.NewSpec(cfg, job, sw.trials)
}

// run replicates every cell's study, cell by cell: fleet.Replicate on
// sw.workers in process, or, with procs > 0, a distrib.Coordinator over
// that many workers sw.start opens, relaying trial progress to stderr.
// Either way a cell's summaries are bit-identical, by the mc and distrib
// contracts.
func (sw fleetSweep) run(points []game.SweepPoint) ([]fleet.Replication, error) {
	out := make([]fleet.Replication, len(points))
	for i, pt := range points {
		var err error
		if sw.procs > 0 {
			out[i], err = sw.distribute(pt, i, len(points))
		} else {
			out[i], err = sw.replicate(pt, i)
		}
		if err != nil {
			return nil, fmt.Errorf("cell (U=%d p=%d) fleet: %w", pt.U, pt.P, err)
		}
	}
	if sw.procs > 0 {
		fmt.Fprintln(os.Stderr)
	}
	return out, nil
}

// replicate runs one cell's study in process.
func (sw fleetSweep) replicate(pt game.SweepPoint, cell int) (fleet.Replication, error) {
	cfg, job, err := sw.cell(pt, cell)
	if err != nil {
		return fleet.Replication{}, err
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return fleet.Replication{}, err
	}
	return f.Replicate(context.Background(), job, sw.trials)
}

// distribute runs one cell's study across sw.procs workers.
func (sw fleetSweep) distribute(pt game.SweepPoint, cell, cells int) (fleet.Replication, error) {
	spec, err := sw.spec(pt, cell)
	if err != nil {
		return fleet.Replication{}, err
	}
	coord, err := distrib.NewCoordinator(spec, distrib.Options{
		Workers: sw.procs,
		Start:   sw.start,
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rcstealsweep: cell %d/%d: %d/%d trials", cell+1, cells, done, total)
		},
	})
	if err != nil {
		return fleet.Replication{}, err
	}
	rep, err := coord.Run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr)
	}
	return rep, err
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
