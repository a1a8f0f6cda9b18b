// Command cstealsim simulates cycle-stealing opportunities: one schedule,
// one owner temperament, optional data-parallel task bag, repeated trials
// with summary statistics.
//
// Trials run on the internal/mc replication engine: trial i always draws
// from the seed stream -seed+i, so the summaries are reproducible and
// bit-identical at any -workers setting; -workers only changes wall-clock
// time.
//
// With -fleet N the single station becomes a network of N workstations
// (mixed office/laptop/overnight owners) farming one shared job across
// work-stealing station groups, driven through the public cyclesteal/fleet
// facade: -shards picks the group count (0 = auto, 1 = one queue every
// station shares) and each trial replays the whole farmed job on the
// deterministic two-level engine. Times (-c, -tasksize) are read in the
// caller's continuous units, exactly as the facade's other consumers do.
//
// Usage:
//
//	cstealsim -U 3600 -p 2 -c 5 -sched equalized -adv poisson -trials 100
//	cstealsim -sched nonadaptive -adv worst          # minimax replay
//	cstealsim -sched equalized -tasks 500 -tasksize 8
//	cstealsim -trials 100000 -workers 8              # large replication study
//	cstealsim -fleet 1000 -trials 20 -workers 8      # fleet-scale farmed job
//	cstealsim -fleet 64 -shards 1                    # one-queue baseline
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"

	"cyclesteal"
	"cyclesteal/fleet"
	"cyclesteal/internal/mc"
)

// metric indexes of the replication study
const (
	mWork = iota
	mTaskWork
	mInterrupts
	mExhausted
	numMetrics
)

func main() {
	var (
		U        = flag.Float64("U", 3600, "usable lifespan (time units)")
		p        = flag.Int("p", 2, "interrupt bound")
		c        = flag.Float64("c", 5, "per-period setup cost (time units)")
		schedStr = flag.String("sched", "equalized", "schedule: equalized, guideline, optimalp1, nonadaptive, optimal, single, equalsplit, fixedchunk")
		advStr   = flag.String("adv", "poisson", "owner: worst, greedy, last, poisson, random, periodic, none")
		trials   = flag.Int("trials", 100, "number of simulated opportunities")
		seed     = flag.Int64("seed", 1, "base rng seed (trial i uses seed+i)")
		workers  = flag.Int("workers", 0, "worker pool size for the trials (0 = GOMAXPROCS)")
		nTasks   = flag.Int("tasks", 0, "attach a bag of this many tasks (0 = fluid only; fleet mode defaults to 50 per station)")
		taskSize = flag.Float64("tasksize", 10, "task duration (time units)")
		fleetN   = flag.Int("fleet", 0, "farm one shared job across this many stations (0 = single-station mode)")
		shards   = flag.Int("shards", 0, "station groups in fleet mode: 0 = auto, 1 = one shared queue, n = n groups")
		opps     = flag.Int("opportunities", 10, "owner contracts per station in fleet mode")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	// Profiling hooks: hot-path regressions (the allocation-free opportunity
	// engine especially) can then be diagnosed from a released binary with
	// `go tool pprof cstealsim profile.out` — no test harness needed.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *fleetN > 0 {
		if err := runFleet(*fleetN, *shards, *opps, *schedStr, *c, *taskSize, *nTasks, *trials, *seed, *workers); err != nil {
			fatal(err)
		}
		return
	}

	eng, err := cyclesteal.New(cyclesteal.Opportunity{Lifespan: *U, Interrupts: *p, Setup: *c})
	if err != nil {
		fatal(err)
	}
	s, err := buildScheduler(eng, *schedStr, *U, *c)
	if err != nil {
		fatal(err)
	}

	floor, err := eng.GuaranteedWork(s)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("schedule %s: guaranteed output %.4g of lifespan %g\n", *schedStr, floor, *U)

	var opts cyclesteal.SimOptions
	if *nTasks > 0 {
		opts.TaskDurations = make([]float64, *nTasks)
		for i := range opts.TaskDurations {
			opts.TaskDurations[i] = *taskSize
		}
	}

	sums, err := mc.RunVec(context.Background(), mc.Config{Trials: *trials, Seed: *seed, Workers: *workers}, numMetrics,
		func(rng *rand.Rand) ([]float64, error) {
			adv, err := buildAdversary(eng, s, *advStr, *U, rng.Int63())
			if err != nil {
				return nil, err
			}
			res, err := eng.Simulate(s, adv, opts)
			if err != nil {
				return nil, err
			}
			out := make([]float64, numMetrics)
			out[mWork] = res.Work
			out[mTaskWork] = res.TaskWork
			out[mInterrupts] = float64(res.Interrupts)
			if *nTasks > 0 && res.TasksRemaining == 0 {
				out[mExhausted] = 1
			}
			return out, nil
		})
	if err != nil {
		fatal(err)
	}

	sum := sums[mWork]
	fmt.Printf("owner %s over %d trials: work %s\n", *advStr, *trials, sum)
	fmt.Printf("  floor check: min observed %.4g ≥ guaranteed %.4g: %v\n", sum.Min, floor, sum.Min >= floor-1e-9)
	fmt.Printf("  interrupts per opportunity: %.2f\n", sums[mInterrupts].Mean)
	if *nTasks > 0 {
		ts := sums[mTaskWork]
		exhausted := int(sums[mExhausted].Mean*float64(*trials) + 0.5)
		if exhausted == *trials {
			fmt.Printf("  task-granular work: %s (bag exhausted every trial — add tasks to measure packing loss)\n", ts)
		} else {
			fmt.Printf("  task-granular work: %s (packing loss %.2f%%; bag exhausted in %d/%d trials)\n",
				ts, 100*(1-safeDiv(ts.Mean, sum.Mean)), exhausted, *trials)
		}
	}
}

// runFleet is the -fleet mode: one shared job farmed across a mixed-owner
// NOW through the public fleet facade's deterministic replication engine.
// Completion, balance and tail-risk summaries print per metric; summaries
// are bit-identical at any -workers setting.
func runFleet(stations, shards, opps int, schedName string, c, taskSize float64, nTasks, trials int, seed int64, workers int) error {
	if nTasks <= 0 {
		nTasks = 50 * stations
	}
	// Schedules that exist single-station but not fleet-wide get a pointed
	// message before the generic unknown-policy error could mislead.
	switch schedName {
	case "optimal", "optimalp1", "equalsplit":
		return fmt.Errorf("schedule %q not supported in fleet mode (want equalized, guideline, nonadaptive, single, or fixedchunk)", schedName)
	}
	policy, err := fleet.PolicyByName(schedName)
	if err != nil {
		return err
	}
	if policy.Name == "fixedchunk" {
		policy.Chunk = 25 * c
	}
	f, err := fleet.New(fleet.Config{
		Stations:      stations,
		Setup:         c,
		Policy:        policy,
		Opportunities: opps,
		Shards:        shards,
		Workers:       workers,
		Seed:          seed,
	})
	if err != nil {
		return err
	}
	job := fleet.Job{Tasks: fleet.FixedTasks(nTasks, taskSize)}

	rep, err := f.Replicate(context.Background(), job, trials)
	if err != nil {
		return err
	}
	completion := rep.Completion
	fmt.Printf("fleet %d stations (pool shards %s), job %d tasks × %g units, schedule %s, %d trials\n",
		stations, shardLabel(shards), nTasks, taskSize, schedName, trials)
	fmt.Printf("  completion:    mean %.2f%% ±%.2f  (min %.2f%%)\n",
		100*completion.Mean, 100*(completion.CI95Hi-completion.Mean), 100*completion.Min)
	fmt.Printf("  tasks done:    mean %.1f of %d\n", rep.TasksCompleted.Mean, nTasks)
	fmt.Printf("  killed time:   mean %.4g  p99 %.4g  (lifespan destroyed by kills, units)\n",
		rep.Killed.Mean, rep.Killed.P99)
	fmt.Printf("  imbalance:     mean %.3f  p99 %.3f  (max/mean station work)\n",
		rep.Imbalance.Mean, rep.Imbalance.P99)
	fmt.Printf("  interrupts:    mean %.1f per trial\n", rep.Interrupts.Mean)
	fmt.Printf("  steals:        mean %.1f cross-queue migrations per trial\n", rep.Steals.Mean)
	fmt.Println("  (summaries are bit-identical at any -workers; p99 from the bounded-error quantile sketch)")
	return nil
}

func shardLabel(shards int) string {
	switch {
	case shards == 1:
		return "1 (one shared queue)"
	case shards <= 0:
		return "auto"
	default:
		return fmt.Sprint(shards)
	}
}

func buildScheduler(eng *cyclesteal.Engine, name string, U, c float64) (cyclesteal.Scheduler, error) {
	switch name {
	case "equalized":
		return eng.AdaptiveEqualized()
	case "guideline":
		return eng.AdaptiveGuideline()
	case "optimalp1":
		return eng.OptimalP1()
	case "nonadaptive":
		return eng.NonAdaptive()
	case "optimal":
		return eng.Optimal()
	case "single":
		return eng.SinglePeriod(), nil
	case "equalsplit":
		return eng.EqualSplit(10), nil
	case "fixedchunk":
		return eng.FixedChunk(U / 20), nil
	default:
		return nil, fmt.Errorf("unknown schedule %q", name)
	}
}

func buildAdversary(eng *cyclesteal.Engine, s cyclesteal.Scheduler, name string, U float64, seed int64) (cyclesteal.Adversary, error) {
	switch name {
	case "worst":
		_, adv, err := eng.WorstCase(s)
		return adv, err
	case "greedy":
		return eng.GreedyAdversary(), nil
	case "last":
		return eng.LastPeriodAdversary(), nil
	case "poisson":
		return eng.PoissonAdversary(U/3, seed), nil
	case "random":
		return eng.RandomAdversary(0.7, seed), nil
	case "periodic":
		return eng.PeriodicAdversary(U / 3.3), nil
	case "none":
		return eng.NoAdversary(), nil
	default:
		return nil, fmt.Errorf("unknown adversary %q", name)
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cstealsim:", err)
	os.Exit(1)
}
