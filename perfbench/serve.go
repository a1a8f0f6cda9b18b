package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cyclesteal/fleet"
)

// The serve workload is the resident Service as cstealserve runs it: Start,
// then a closed loop of two tenants, each submitting its next 20,000-task
// job when one of its jobs is Done. The fleet is 1,000 stations of E15's
// owners (Poisson returns over fixed 60-unit single-interrupt contracts)
// with the default equalized policy, adaptive checkpointing and balanced
// churn; the WAL is a real file, fsync'd at every round barrier.
//
// Each tenant keeps serveWindow jobs outstanding, two more than the service
// can run at once (MaxActive, default 4). Activation then always finds a
// queued job from every tenant, so the rounds played do not depend on how
// quickly a tenant's Submit wins the service lock after a job finishes.
//
// The service keeps every job's state (about 1 MB per 20,000-task job), so
// a run is cut into sessions of serveJobsPerSession jobs, each on a fresh
// service: memory stays bounded whatever the run length. Op windows cover
// each session from its first Submit to its last Done.
const (
	serveStations       = 1000
	serveTasksPerJob    = 20000
	serveTaskSize       = 5 // setup costs per task
	serveTenants        = 2
	serveWindow         = 6
	serveJobsPerSession = 60
	serveJobsPerSecond  = 100 // reference rate behind the fixed op count
)

func serveConfig(seed int64) fleet.ServiceConfig {
	return fleet.ServiceConfig{
		Fleet: fleet.Config{
			Stations:           serveStations,
			Setup:              1,
			Owners:             []fleet.Owner{fleet.Poisson{Base: fleet.Fixed{Lifespan: 60, Interrupts: 1}}},
			CheckpointAdaptive: true,
			Workers:            workers,
			Seed:               seed,
		},
		// Expected joins equal expected leaves per round; departures stop at
		// half the fleet.
		Churn: fleet.ChurnConfig{LeaveProb: 0.0005, JoinProb: 0.5, MinStations: serveStations / 2},
	}
}

// sessionStats is what one session reports beyond its op latencies.
type sessionStats struct {
	jobs, rounds, events, opps int
	walBytes                   int64
	window                     time.Duration
	allocKB, retainedKB        float64 // per job; traced sessions only
}

func runServe(ctx context.Context, p params, tr *tracer) (*outcome, error) {
	o := &outcome{}
	type inputs struct {
		job   fleet.Job
		seeds []int64
	}
	sessions := (opCount(p.seconds, serveJobsPerSecond) + serveJobsPerSession - 1) / serveJobsPerSession
	in, err := timeSetups(o, func() (inputs, error) {
		rng := rand.New(rand.NewSource(p.seed))
		in := inputs{job: fleet.Job{Tasks: fleet.FixedTasks(serveTasksPerJob, serveTaskSize)}}
		in.seeds = make([]int64, sessions)
		for i := range in.seeds {
			in.seeds[i] = rng.Int63()
		}
		// The warm-up is a short session: one window of jobs per tenant.
		warm := &outcome{}
		_, err := runSession(ctx, p.workdir, in.job, warmupSeed, 0, serveTenants*serveWindow, true, nil, warm)
		if err == nil && warm.failed > 0 {
			err = fmt.Errorf("warm-up session: %s", warm.problems[0])
		}
		return in, err
	})
	if err != nil {
		return nil, err
	}
	var total sessionStats
	var allocs, retained []float64
	for i, seed := range in.seeds {
		o.segmentRSS(i, len(in.seeds))
		st, err := runSession(ctx, p.workdir, in.job, seed, i*serveJobsPerSession, serveJobsPerSession, i == 0, tr, o)
		if err != nil {
			return nil, err
		}
		o.busy += st.window
		total.jobs += st.jobs
		total.rounds += st.rounds
		total.events += st.events
		total.opps += st.opps
		total.walBytes += st.walBytes
		allocs = append(allocs, st.allocKB)
		retained = append(retained, st.retainedKB)
	}
	o.segmentRSS(len(in.seeds), len(in.seeds))
	if tr != nil {
		jobs := float64(max(1, total.jobs))
		o.layer = map[string]float64{
			"serve.ops_per_s.fleet.round_ms":              tr.medianOf("fleet.round", time.Millisecond),
			"serve.op_p50_ms.fleet.submit_ms":             tr.medianOf("fleet.submit", time.Millisecond),
			"serve.op_p50_ms.fleet.wal_sync_ms":           tr.medianOf("fleet.wal_sync", time.Millisecond),
			"serve.peak_rss_mb.fleet.retained_kb_per_job": median(retained),
			"serve.peak_rss_mb.fleet.job_alloc_kb":        median(allocs),
			"serve.exact.fleet.rounds_per_job":            float64(total.rounds) / jobs,
			"serve.count.fleet.wal_bytes_per_job":         float64(total.walBytes) / jobs,
			"serve.exact.fleet.events_per_job":            float64(total.events) / jobs,
			"serve.exact.farm.station_opps_per_round":     float64(total.opps) / float64(max(1, total.rounds)),
		}
	}
	return o, nil
}

// runSession stands up a fresh service, serves jobs through the tenants'
// closed loop, stops it, and checks the outputs: every job Completed with
// all its tasks, and the WAL holding one line per event after its header.
// With decode set, the WAL must also decode to exactly the session's events
// (fleet.ReadWAL costs about 40% of a session's window, so a run decodes
// one session's log). Op results land in o; an error means the session
// itself could not run; op ids of its jobs start at firstOp.
func runSession(ctx context.Context, dir string, job fleet.Job, seed int64, firstOp, jobs int, decode bool, tr *tracer, o *outcome) (sessionStats, error) {
	st := sessionStats{jobs: jobs}
	path := filepath.Join(dir, fmt.Sprintf("serve-%d.wal", seed))
	f, err := os.Create(path)
	if err != nil {
		return st, err
	}
	defer os.Remove(path)
	defer f.Close()

	cfg := serveConfig(seed)
	cfg.WAL = f
	var tap *walTap
	var heap0 uint64
	if tr != nil {
		tap = &walTap{f: f, tr: tr}
		cfg.WAL = tap
		heap0 = liveHeap()
	}
	svc, err := fleet.NewService(cfg)
	if err != nil {
		return st, err
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := svc.Start(sctx); err != nil {
		return st, err
	}

	a0 := heapAllocs()
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex // guards o
	for t := 0; t < serveTenants; t++ {
		n := jobs / serveTenants
		if t < jobs%serveTenants {
			n++
		}
		wg.Add(1)
		go func(t, n int) {
			defer wg.Done()
			runTenant(svc, fmt.Sprintf("tenant-%d", t), firstOp+t, n, job, tr, o, &mu)
		}(t, n)
	}
	wg.Wait()
	st.window = time.Since(start)
	if tap != nil {
		tap.stop.Store(true) // later syncs are shutdown, not round barriers
		st.allocKB = float64(heapAllocs()-a0) / 1024 / float64(jobs)
		st.retainedKB = float64(liveHeap()-heap0) / 1024 / float64(jobs)
	}

	cancel()
	res, err := svc.Wait()
	if err != nil && !errors.Is(err, context.Canceled) {
		return st, fmt.Errorf("service stopped: %w", err)
	}
	st.rounds, st.events = res.Rounds, len(res.Events)
	for _, s := range res.Fleet.Stations {
		st.opps += s.Opportunities
	}
	// The WAL checks happen off the clock, once the session has stopped.
	wal, err := os.ReadFile(path)
	if err != nil {
		return st, err
	}
	st.walBytes = int64(len(wal))
	if lines := bytes.Count(wal, []byte("\n")); lines != len(res.Events)+1 {
		o.fail("session %d: the WAL holds %d lines for %d events", seed, lines, len(res.Events))
	} else if decode {
		events, err := fleet.ReadWAL(bytes.NewReader(wal))
		if err != nil || !reflect.DeepEqual(events, res.Events) {
			o.fail("session %d: the WAL does not decode to the session's %d events (%v)", seed, len(res.Events), err)
		}
	}
	return st, nil
}

// liveHeap is the live heap in bytes after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runTenant is one tenant's closed loop: keep serveWindow jobs outstanding,
// submit the next whenever one is Done, until n jobs have been submitted.
// A refused Submit or a job that ends without all its tasks completed is a
// failed op.
//
// Spans: a job's op id is firstOp + tenant index + tenants × its submission
// index, unique within a pass.
func runTenant(svc *fleet.Service, tenant string, firstOp, n int, job fleet.Job, tr *tracer, o *outcome, mu *sync.Mutex) {
	type finished struct {
		h          *fleet.JobHandle
		start, end time.Time
	}
	done := make(chan finished, serveWindow)
	outstanding, submitted := 0, 0
	submit := func() {
		op := firstOp + serveTenants*submitted
		submitted++
		span := tr.open("serve.job", op, -1)
		start := time.Now()
		h, err := svc.Submit(tenant, job)
		tr.add("fleet.submit", op, span, start, time.Now())
		mu.Lock()
		o.attempted++
		if err != nil {
			o.fail("%s: submit refused: %v", tenant, err)
		}
		mu.Unlock()
		if err != nil {
			tr.close(span)
			return
		}
		outstanding++
		go func() {
			<-h.Done()
			end := time.Now()
			tr.close(span)
			done <- finished{h, start, end}
		}()
	}
	for submitted < min(serveWindow, n) {
		submit()
	}
	for outstanding > 0 {
		d := <-done
		outstanding--
		r, err := d.h.Result()
		mu.Lock()
		o.latencies = append(o.latencies, d.end.Sub(d.start))
		if err != nil || !r.Completed || r.TasksCompleted != r.Tasks || r.Tasks != len(job.Tasks) {
			o.fail("%s job %d: completed %v, %d of %d tasks (%v)", tenant, d.h.ID, r.Completed, r.TasksCompleted, r.Tasks, err)
		}
		mu.Unlock()
		if submitted < n {
			submit()
		}
	}
}

// walTap is the WAL writer of a traced session. The service syncs it once
// per round barrier, from its loop goroutine, so the interval between syncs
// is one round.
type walTap struct {
	f        *os.File
	tr       *tracer
	stop     atomic.Bool
	lastSync time.Time
}

func (w *walTap) Write(b []byte) (int, error) { return w.f.Write(b) }

func (w *walTap) Sync() error {
	start := time.Now()
	err := w.f.Sync()
	end := time.Now()
	if !w.stop.Load() {
		w.tr.add("fleet.wal_sync", -1, -1, start, end)
		if !w.lastSync.IsZero() {
			w.tr.add("fleet.round", -1, -1, w.lastSync, end)
		}
		w.lastSync = end
	}
	return err
}
