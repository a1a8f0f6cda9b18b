package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cyclesteal/fleet"
)

// The batch workload is the README quick-start call: one shared job through
// fleet.Run, which on the default Sharded pool is the live
// goroutine-per-station engine. One op is fleet.New at the op's seed, then
// Run of the E12 job at 10,000 stations — the multi-round size where the
// live engine is the yardstick for a Core-only fleet.Run. It runs the
// default equalized policy: under E12's guideline policy the live engine
// takes about 3.7 s for this job against 0.13 s on the Core (see README.md).
const (
	batchStations        = 10000
	batchTasksPerStation = 100
	batchRunsPerSecond   = 9 // reference rate behind the fixed op count
	// batchProgressEvery spaces the traced pass's progress snapshots, so
	// half-done and tail times resolve to a few milliseconds.
	batchProgressEvery = 2 * time.Millisecond
)

func runBatch(ctx context.Context, p params, tr *tracer) (*outcome, error) {
	o := &outcome{}
	type inputs struct {
		job   fleet.Job
		seeds []int64
	}
	in, err := timeSetups(o, func() (inputs, error) {
		rng := rand.New(rand.NewSource(p.seed))
		in := inputs{job: fleet.Job{Tasks: e12Tasks(rng, batchStations*batchTasksPerStation)}}
		in.seeds = make([]int64, opCount(p.seconds, batchRunsPerSecond))
		for i := range in.seeds {
			in.seeds[i] = rng.Int63()
		}
		f, err := fleet.New(batchConfig(warmupSeed))
		if err != nil {
			return in, err
		}
		res, err := f.Run(ctx, in.job)
		if err == nil {
			err = checkBatch(res, len(in.job.Tasks))
		}
		return in, err
	})
	if err != nil {
		return nil, err
	}

	var allocs, opps, steals, halfDone, tail []float64
	for i, seed := range in.seeds {
		o.segmentRSS(i, len(in.seeds))
		cfg := batchConfig(seed)
		var mu sync.Mutex
		var snaps []snapshot
		if tr != nil {
			cfg.ProgressInterval = batchProgressEvery
			cfg.Progress = func(pr fleet.Progress) {
				mu.Lock()
				snaps = append(snaps, snapshot{time.Now(), pr.Completed})
				mu.Unlock()
			}
		}
		o.attempted++
		opSpan := tr.open("batch.run", i, -1)
		a0 := heapAllocs()
		start := time.Now()
		f, err := fleet.New(cfg)
		built := time.Now()
		var res fleet.Result
		if err == nil {
			res, err = f.Run(ctx, in.job)
		}
		end := time.Now()
		o.busy += end.Sub(start)
		o.latencies = append(o.latencies, end.Sub(start))
		if err == nil {
			err = checkBatch(res, len(in.job.Tasks))
		}
		if err != nil {
			o.fail("run %d (seed %d): %v", i, seed, err)
			continue
		}
		if tr == nil {
			continue
		}
		tr.close(opSpan)
		allocs = append(allocs, float64(heapAllocs()-a0)/(1<<20))
		tr.add("fleet.new", i, opSpan, start, built)
		run := tr.add("farm.run", i, opSpan, built, end)
		mu.Lock()
		half, settled := crossing(snaps, res.TasksCompleted, 0.5), crossing(snaps, res.TasksCompleted, 0.95)
		mu.Unlock()
		halfDone = append(halfDone, msOf(half.Sub(built)))
		tail = append(tail, msOf(end.Sub(settled)))
		tr.add("farm.tail", i, run, settled, end)
		var n int
		for _, s := range res.Stations {
			n += s.Opportunities
		}
		opps = append(opps, float64(n))
		steals = append(steals, float64(res.Steals))

		// The same job on the event-driven Core, off the clock.
		cfg.Progress, cfg.ProgressInterval = nil, 0
		core, err := fleet.New(cfg)
		if err != nil {
			o.fail("run %d (seed %d): %v", i, seed, err)
			continue
		}
		t0 := time.Now()
		cres, err := core.RunDeterministic(ctx, in.job)
		tr.add("farm.core_run", i, -1, t0, time.Now())
		if err == nil {
			err = checkBatch(cres, len(in.job.Tasks))
		}
		if err != nil {
			o.fail("run %d (seed %d) on the Core: %v", i, seed, err)
		}
	}
	o.segmentRSS(len(in.seeds), len(in.seeds))
	if tr != nil {
		o.layer = map[string]float64{
			"batch.op_p50_ms.fleet.new_ms":          tr.medianOf("fleet.new", time.Millisecond),
			"batch.op_p90_ms.farm.half_done_ms":     median(halfDone),
			"batch.op_p90_ms.farm.tail_ms":          median(tail),
			"batch.op_p50_ms.farm.core_run_ms":      tr.medianOf("farm.core_run", time.Millisecond),
			"batch.peak_rss_mb.farm.run_alloc_mb":   median(allocs),
			"batch.count.farm.station_opps_per_run": median(opps),
			"batch.count.farm.steals_per_run":       median(steals),
		}
	}
	return o, nil
}

// batchConfig is E12's mixed fleet at 10,000 stations under the default
// equalized policy.
func batchConfig(seed int64) fleet.Config {
	cfg := e12Config(batchStations, seed)
	cfg.Policy = fleet.Policy{}
	cfg.Workers = workers
	return cfg
}

// checkBatch checks task conservation: every task completed or left, none
// lost (the run injects no faults).
func checkBatch(res fleet.Result, tasks int) error {
	if res.TasksCompleted+res.TasksLeft != tasks || res.TasksLost != 0 {
		return fmt.Errorf("%d completed + %d left ≠ %d tasks, or %d lost", res.TasksCompleted, res.TasksLeft, tasks, res.TasksLost)
	}
	return nil
}

// snapshot is one progress observation.
type snapshot struct {
	at        time.Time
	completed int
}

// crossing is when settled completions first reached frac of the final
// count (the final snapshot when none did earlier).
func crossing(snaps []snapshot, final int, frac float64) time.Time {
	for _, s := range snaps {
		if float64(s.completed) >= frac*float64(final) {
			return s.at
		}
	}
	if len(snaps) == 0 {
		return time.Time{}
	}
	return snaps[len(snaps)-1].at
}
