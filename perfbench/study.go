package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"cyclesteal/distrib"
	"cyclesteal/fleet"
)

// The study workload is ROADMAP item 1's canonical shape, on the path
// `cstealsweep -distribute` and E17 take. One op is one 16-trial
// replication cell of the E12 mixed fleet, dealt by a fresh
// distrib.Coordinator to two in-process workers, so every frame is encoded
// and strictly decoded without a process spawn. Cells differ only by seed.
const (
	studyStations        = 1000
	studyTasksPerStation = 100
	studyOpportunities   = 4
	studyTrials          = 16
	studyWorkers         = workers
	studyCellsPerSecond  = 6 // reference rate behind the fixed op count
)

// e12Tasks draws E12's job: n durations uniform on the tick grid over
// [c/2, 4c], with c one caller unit of 100 ticks.
func e12Tasks(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(50+rng.Intn(351)) / 100
	}
	return out
}

// e12Config is E12's mixed fleet (Office, Laptop, Overnight owners) under
// the guideline policy.
func e12Config(stations int, seed int64) fleet.Config {
	return fleet.Config{
		Stations:      stations,
		Setup:         1,
		Opportunities: studyOpportunities,
		Policy:        fleet.Policy{Name: "guideline"},
		Seed:          seed,
	}
}

func runStudy(ctx context.Context, p params, tr *tracer) (*outcome, error) {
	o := &outcome{}
	type inputs struct {
		job   fleet.Job
		seeds []int64
	}
	in, err := timeSetups(o, func() (inputs, error) {
		rng := rand.New(rand.NewSource(p.seed))
		in := inputs{job: fleet.Job{Tasks: e12Tasks(rng, studyStations*studyTasksPerStation)}}
		in.seeds = make([]int64, opCount(p.seconds, studyCellsPerSecond))
		for i := range in.seeds {
			in.seeds[i] = rng.Int63()
		}
		_, err := runCell(ctx, in.job, warmupSeed, nil)
		return in, err
	})
	if err != nil {
		return nil, err
	}

	var cells []*cellTrace
	var first *fleet.Replication
	for i, seed := range in.seeds {
		o.segmentRSS(i, len(in.seeds))
		var ct *cellTrace
		if tr != nil {
			ct = &cellTrace{tr: tr, op: i, assigns: map[string]int{}}
			ct.parent = tr.open("study.cell", i, -1)
		}
		o.attempted++
		a0 := heapAllocs()
		start := time.Now()
		rep, err := runCell(ctx, in.job, seed, ct)
		end := time.Now()
		o.busy += end.Sub(start)
		o.latencies = append(o.latencies, end.Sub(start))
		if err == nil {
			err = checkCell(rep)
		}
		if err != nil {
			o.fail("cell %d (seed %d): %v", i, seed, err)
			continue
		}
		if i == 0 {
			first = &rep
		}
		if ct == nil {
			continue
		}
		tr.close(ct.parent)
		ct.allocMB = float64(heapAllocs()-a0) / (1 << 20)
		if err := ct.offClock(ctx, in.job, seed, rep, start, end); err != nil {
			o.fail("cell %d (seed %d): %v", i, seed, err)
		}
		cells = append(cells, ct)
	}
	o.segmentRSS(len(in.seeds), len(in.seeds))

	// Once per run, off the clock: the distributed cell must equal an
	// in-process fleet.Replicate of the same study.
	if first != nil {
		if err := replicateMatches(ctx, in.job, in.seeds[0], *first); err != nil {
			o.fail("%v", err)
		}
	}
	if tr != nil {
		o.layer = studyLayer(tr, cells)
	}
	return o, nil
}

// runCell runs one replication cell through a fresh coordinator.
func runCell(ctx context.Context, job fleet.Job, seed int64, ct *cellTrace) (fleet.Replication, error) {
	spec, err := distrib.NewSpec(e12Config(studyStations, seed), job, studyTrials)
	if err != nil {
		return fleet.Replication{}, err
	}
	opts := distrib.Options{Workers: studyWorkers}
	if ct != nil {
		opts.Start = ct.starter()
	}
	coord, err := distrib.NewCoordinator(spec, opts)
	if err != nil {
		return fleet.Replication{}, err
	}
	return coord.Run(ctx)
}

func checkCell(rep fleet.Replication) error {
	if rep.Trials != studyTrials || rep.Completion.N != studyTrials {
		return fmt.Errorf("cell reports %d trials (%d completion samples), want %d", rep.Trials, rep.Completion.N, studyTrials)
	}
	if rep.Completion.Min < 0 || rep.Completion.Max > 1 {
		return fmt.Errorf("completion [%g, %g] outside [0, 1]", rep.Completion.Min, rep.Completion.Max)
	}
	return nil
}

func replicateMatches(ctx context.Context, job fleet.Job, seed int64, want fleet.Replication) error {
	f, err := fleet.New(e12Config(studyStations, seed))
	if err != nil {
		return err
	}
	got, err := f.Replicate(ctx, job, studyTrials)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("cell at seed %d: distributed Replication differs from in-process fleet.Replicate", seed)
	}
	return nil
}

// cellTrace watches one cell from the coordinator's side of each worker
// connection, then measures the cell's layers one facade call at a time.
type cellTrace struct {
	tr     *tracer
	op     int
	parent int // the cell's span

	mu       sync.Mutex
	bytes    int            // frame bytes both ways, progress frames excluded
	frames   int            // frames both ways, progress frames excluded
	assigns  map[string]int // assign frame → times dealt
	busy     time.Duration  // Σ assign → done over every connection
	lastDone time.Time
	shards   [][]byte // shard frame lines, kept for off-clock decoding

	// Filled off the clock.
	allocMB, idleFrac, trialAllocMB float64
	rounds, opps, steals            int
}

// starter wraps the in-process transport with a wire tap.
func (c *cellTrace) starter() distrib.Starter {
	inproc := distrib.InProcess()
	return func(ctx context.Context) (io.ReadWriteCloser, error) {
		start := time.Now()
		rwc, err := inproc(ctx)
		if err != nil {
			return nil, err
		}
		return &wireTap{rwc: rwc, cell: c, dialStart: start}, nil
	}
}

// wireTap is one connection's tap. The coordinator writes one whole frame
// per Write; reads arrive in arbitrary pieces and are split into lines.
// Progress frames are paced by wall clock, so the byte and frame counts
// leave them out to stay exact.
type wireTap struct {
	rwc       io.ReadWriteCloser
	cell      *cellTrace
	dialStart time.Time
	assignAt  time.Time // guarded by cell.mu
	loaded    bool      // the current assignment owns trials; guarded by cell.mu
	partial   []byte    // unfinished incoming line; reader goroutine only
}

func (w *wireTap) Write(b []byte) (int, error) {
	c := w.cell
	kind := frameKind(b)
	c.mu.Lock()
	c.bytes += len(b)
	c.frames++
	if kind == distrib.FrameAssign {
		// Stamped before the write: an empty chunk's done frame can race
		// back before Write returns.
		w.assignAt, w.loaded = time.Now(), false
		c.assigns[string(b)]++
	}
	c.mu.Unlock()
	n, err := w.rwc.Write(b)
	if kind == distrib.FrameStudy {
		c.tr.add("distrib.dial", c.op, c.parent, w.dialStart, time.Now())
	}
	return n, err
}

func (w *wireTap) Read(b []byte) (int, error) {
	n, err := w.rwc.Read(b)
	if n > 0 {
		now := time.Now()
		rest := b[:n]
		for {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 {
				w.partial = append(w.partial, rest...)
				break
			}
			w.partial = append(w.partial, rest[:i+1]...)
			w.received(w.partial, now)
			w.partial = w.partial[:0]
			rest = rest[i+1:]
		}
	}
	return n, err
}

func (w *wireTap) received(line []byte, at time.Time) {
	c := w.cell
	kind := frameKind(line)
	c.mu.Lock()
	defer c.mu.Unlock()
	if kind == distrib.FrameProgress {
		// Progress frames carry a total only when the assignment owns
		// trials; 16 trials fill 2 of the 8 chunks.
		w.loaded = w.loaded || bytes.Contains(line, []byte(`"total":`))
		return
	}
	c.bytes += len(line)
	c.frames++
	switch kind {
	case distrib.FrameShard:
		c.shards = append(c.shards, append([]byte(nil), line...))
	case distrib.FrameDone:
		if w.loaded {
			c.tr.add("distrib.chunk", c.op, c.parent, w.assignAt, at)
		}
		c.busy += at.Sub(w.assignAt)
		if at.After(c.lastDone) {
			c.lastDone = at
		}
	}
}

func (w *wireTap) Close() error { return w.rwc.Close() }

// frameKind reads a wire frame's kind from its leading field.
func frameKind(line []byte) string {
	const prefix = `{"frame":"`
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return ""
	}
	rest := line[len(prefix):]
	if i := bytes.IndexByte(rest, '"'); i >= 0 {
		return string(rest[:i])
	}
	return ""
}

// offClock measures the cell's layers through the facade calls that map
// onto them, after the cell's own window: the study cut, frame decode and
// encode, the merge (checked against the coordinator's result), one mc
// shard, and one farm trial (checked against the cell's summaries).
func (c *cellTrace) offClock(ctx context.Context, job fleet.Job, seed int64, rep fleet.Replication, start, end time.Time) error {
	tr, op := c.tr, c.op
	c.mu.Lock()
	lastDone, busy, shards := c.lastDone, c.busy, c.shards
	c.mu.Unlock()
	tr.add("distrib.tail", op, c.parent, lastDone, end)
	c.idleFrac = 1 - busy.Seconds()/(studyWorkers*end.Sub(start).Seconds())

	spec, err := distrib.NewSpec(e12Config(studyStations, seed), job, studyTrials)
	if err != nil {
		return err
	}
	t0 := time.Now()
	st, err := spec.Study()
	tr.add("fleet.study_build", op, -1, t0, time.Now())
	if err != nil {
		return err
	}

	var frames []distrib.Frame
	var results []fleet.ShardResult
	for _, line := range shards {
		t0 := time.Now()
		f, err := distrib.ParseFrame(bytes.TrimSuffix(line, []byte("\n")))
		tr.add("distrib.decode", op, -1, t0, time.Now())
		if err != nil {
			return err
		}
		frames = append(frames, f)
		results = append(results, *f.Shard)
	}
	for _, f := range frames {
		t0 := time.Now()
		err := distrib.EncodeFrame(io.Discard, f)
		tr.add("distrib.encode", op, -1, t0, time.Now())
		if err != nil {
			return err
		}
	}
	t0 = time.Now()
	merged, err := st.Merge(results)
	tr.add("fleet.merge", op, -1, t0, time.Now())
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(merged, rep) {
		return fmt.Errorf("merging the captured shard frames differs from the coordinator's result")
	}

	t0 = time.Now()
	_, err = st.RunShards(ctx, []int{0}, nil)
	tr.add("mc.shard", op, -1, t0, time.Now())
	if err != nil {
		return err
	}

	// Trial 0 of the cell, alone: mc's seed-stream rule gives trial i the
	// fleet seed rand.NewSource(Seed+i).Int63().
	cfg := e12Config(studyStations, rand.New(rand.NewSource(seed)).Int63())
	cfg.Workers = 1
	var barriers []time.Time
	cfg.Progress = func(fleet.Progress) { barriers = append(barriers, time.Now()) }
	f, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	a0 := heapAllocs()
	t0 = time.Now()
	res, err := f.RunDeterministic(ctx, job)
	t1 := time.Now()
	c.trialAllocMB = float64(heapAllocs()-a0) / (1 << 20)
	trial := tr.add("farm.trial", op, -1, t0, t1)
	if err != nil {
		return err
	}
	for k, at := range barriers {
		if k == 0 {
			tr.add("farm.first_round", op, trial, t0, at)
		} else {
			tr.add("farm.round", op, trial, barriers[k-1], at)
		}
	}
	c.rounds, c.steals = len(barriers), res.Steals
	for _, s := range res.Stations {
		c.opps += s.Opportunities
	}
	if s := float64(res.Steals); s < rep.Steals.Min || s > rep.Steals.Max {
		return fmt.Errorf("trial 0 alone made %d steals, outside the cell's [%g, %g]", res.Steals, rep.Steals.Min, rep.Steals.Max)
	}
	if n := float64(res.TasksCompleted); n < rep.TasksCompleted.Min || n > rep.TasksCompleted.Max {
		return fmt.Errorf("trial 0 alone completed %d tasks, outside the cell's [%g, %g]", res.TasksCompleted, rep.TasksCompleted.Min, rep.TasksCompleted.Max)
	}
	return nil
}

func studyLayer(tr *tracer, cells []*cellTrace) map[string]float64 {
	var allocs, idles, trialAllocs []float64
	var wire, frames, redeals, rounds, opps, steals int
	for _, c := range cells {
		allocs = append(allocs, c.allocMB)
		idles = append(idles, c.idleFrac)
		trialAllocs = append(trialAllocs, c.trialAllocMB)
		wire += c.bytes
		frames += c.frames
		for _, n := range c.assigns {
			redeals += n - 1
		}
		rounds += c.rounds
		opps += c.opps
		steals += c.steals
	}
	n := float64(max(1, len(cells)))
	return map[string]float64{
		"study.op_p50_ms.distrib.dial_ms":         tr.medianOf("distrib.dial", time.Millisecond),
		"study.op_p50_ms.distrib.tail_ms":         tr.medianOf("distrib.tail", time.Millisecond),
		"study.op_p50_ms.fleet.study_build_ms":    tr.medianOf("fleet.study_build", time.Millisecond),
		"study.op_p50_ms.fleet.merge_ms":          tr.medianOf("fleet.merge", time.Millisecond),
		"study.op_p50_ms.distrib.encode_us":       tr.medianOf("distrib.encode", time.Microsecond),
		"study.op_p50_ms.distrib.decode_us":       tr.medianOf("distrib.decode", time.Microsecond),
		"study.ops_per_s.distrib.chunk_ms":        tr.medianOf("distrib.chunk", time.Millisecond),
		"study.ops_per_s.mc.shard_ms":             tr.medianOf("mc.shard", time.Millisecond),
		"study.ops_per_s.farm.trial_ms":           tr.medianOf("farm.trial", time.Millisecond),
		"study.ops_per_s.farm.first_round_ms":     tr.medianOf("farm.first_round", time.Millisecond),
		"study.ops_per_s.farm.round_ms":           tr.medianOf("farm.round", time.Millisecond),
		"study.op_p90_ms.distrib.slot_idle_frac":  median(idles),
		"study.peak_rss_mb.distrib.cell_alloc_mb": median(allocs),
		"study.peak_rss_mb.farm.trial_alloc_mb":   median(trialAllocs),
		"study.exact.distrib.bytes_per_cell":      float64(wire) / n,
		"study.exact.distrib.frames_per_cell":     float64(frames) / n,
		"study.exact.distrib.redeals_per_cell":    float64(redeals) / n,
		"study.exact.farm.rounds_per_trial":       float64(rounds) / n,
		"study.exact.farm.station_opps_per_trial": float64(opps) / n,
		"study.exact.farm.steals_per_trial":       float64(steals) / n,
	}
}
