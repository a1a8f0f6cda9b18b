package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"

	"cyclesteal/internal/farm"
	"cyclesteal/internal/fault"
	"cyclesteal/internal/lazyrand"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/task"
)

// ErrStopped fails the handles of jobs still unfinished when a resident
// Service stops — shutdown, cancellation, or the MaxRounds bound.
var ErrStopped = errors.New("fleet: service stopped before job completed")

// ErrSchedulerKilled is the error a Service stops with when its fault plan's
// KillRound arrives: the scheduler itself dies mid-session. Handles of
// unfinished jobs fail with it. A session with a durable log
// (ServiceConfig.WAL) can be rebuilt past the kill with RecoverService.
var ErrSchedulerKilled = errors.New("fleet: scheduler killed by fault plan")

// ErrTasksLost fails a job's handle when injected faults destroyed some of
// its tasks: every task is accounted for (completed or lost), but the job
// can never complete. The service itself keeps running.
var ErrTasksLost = errors.New("fleet: job lost tasks to injected faults")

// ServiceConfig describes a resident fleet service: one standing fleet
// serving a continuous stream of jobs.
type ServiceConfig struct {
	// Fleet is the standing fleet. The Service drives the deterministic
	// round engine underneath, so the whole Config applies with three
	// exceptions: Opportunities is ignored (a resident service plays rounds
	// for as long as there is work — bound it with MaxRounds), Progress is
	// ignored (poll Stats instead), and Pool Private, Clusters ≥ 2,
	// trace-recording and trace-replay owners are rejected (a service
	// multiplexes one shared pool, and churn cannot drain a queue whose
	// stolen tasks are mid-flight between clusters).
	Fleet Config
	// MaxActive bounds how many jobs multiplex over the fleet at once;
	// queued jobs activate round-robin across tenants as slots free up.
	// 0 means 4.
	MaxActive int
	// MaxQueuedPerTenant is the admission bound: a tenant with this many
	// jobs waiting (not yet active) has further submissions rejected.
	// 0 means 16.
	MaxQueuedPerTenant int
	// MaxRounds, when > 0, stops the service after that many rounds even if
	// work remains — the resident analogue of Config.Opportunities. 0 means
	// unbounded: Drain returns when the queue is empty, Start runs until its
	// context is cancelled.
	MaxRounds int
	// Churn makes stations come and go while jobs run.
	Churn ChurnConfig
	// WAL, when non-nil, makes the session durable: the service write-ahead
	// encodes its event log as JSONL — one header line naming the format
	// and tick grid, then one line per event — flushed (and fsync'd when
	// the writer has a Sync method, as *os.File does) at every round
	// barrier and at a scheduler kill, whose final kill record closes the
	// log. RecoverService rebuilds the session from such a log,
	// bit-identical to the uninterrupted run. A write error stops the
	// service: an event that cannot be made durable must not take effect
	// silently. See ReadWAL for the line format.
	WAL io.Writer
}

// ChurnConfig drives station arrivals and departures — the "network of
// workstations" as a population, not a fixed set. Each round, every live
// station leaves with probability LeaveProb (a departing station's queued
// tasks drain back to the pool — exactly a kill without the loss, since at a
// round barrier nothing is mid-period), and one new station joins with
// probability JoinProb, taking its temperament from the owner cycle at its
// fresh ID. All sampling comes from the service's own churn stream, and
// every sampled join and leave is logged as a concrete event, so a replay
// never re-samples.
type ChurnConfig struct {
	// LeaveProb is each live station's per-round departure probability,
	// in [0, 1).
	LeaveProb float64
	// JoinProb is the per-round probability one station joins, in [0, 1).
	JoinProb float64
	// MinStations floors departures: churn never shrinks the live fleet
	// below it. 0 means 1.
	MinStations int
	// MaxStations caps arrivals. 0 means twice the initial fleet.
	MaxStations int
	// Seed drives the churn stream, independent of the fleet seed.
	// 0 derives a stream from Fleet.Seed.
	Seed int64
}

// EventKind tags a ServiceEvent.
type EventKind int

const (
	// EventSubmit records a job entering the service.
	EventSubmit EventKind = iota
	// EventJoin records a station joining the fleet.
	EventJoin
	// EventLeave records a station leaving the fleet.
	EventLeave
	// EventCheckpoint records a checkpoint-policy change.
	EventCheckpoint
	// EventCrash records a station crashing under the fault plan — a
	// leave that loses queued work instead of draining it.
	EventCrash
	// EventKill records the scheduler kill that ended the session; always
	// the log's last entry when present.
	EventKill
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventSubmit:
		return "submit"
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	case EventCheckpoint:
		return "checkpoint"
	case EventCrash:
		return "crash"
	case EventKill:
		return "kill"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// ServiceEvent is one entry of a service run's deterministic event log:
// everything that happened to the fleet beyond playing rounds, stamped with
// the round at which it applied. The log is the run's replay key — Replay
// applies the same events at the same rounds and the seed-stream contract
// does the rest, bit-identically at any Workers setting.
type ServiceEvent struct {
	// Round is the round the event applied at (events apply at round tops,
	// before any station plays).
	Round int
	Kind  EventKind
	// Tenant, JobID and Tasks describe a Submit: the submitting tenant, the
	// job's service-wide ID, and its task durations in caller units — the
	// log is self-contained, a replay rebuilds the job from it.
	Tenant string
	JobID  int
	Tasks  []float64
	// Station is the slot a Join opened or a Leave vacated.
	Station int
	// Checkpoint and Adaptive carry a checkpoint-policy change (Checkpoint
	// in caller units; 0 with Adaptive false restores pure draconian).
	Checkpoint float64
	Adaptive   bool
	// Sampled marks events the service generated itself — churn and fault
	// sampling, scheduled crashes, the kill record. A recovery regenerates
	// these from the seeds instead of applying them from the log (and
	// checks the regenerated sequence against it); a replay applies them
	// like any other event.
	Sampled bool
}

// JobResult is one job's outcome, in caller time units.
type JobResult struct {
	ID             int
	Tenant         string
	Tasks          int
	TasksCompleted int
	JobWork        float64 // submitted task duration (as quantized)
	TaskWork       float64 // completed task duration
	// TasksLost counts the job's tasks destroyed by injected faults; a job
	// that lost any can never complete, and its handle fails with
	// ErrTasksLost once every task is accounted for.
	TasksLost      int
	Completed      bool
	SubmittedRound int // round the submission applied (-1: never applied)
	FinishedRound  int // round the last task completed (-1: unfinished)
}

// ServiceResult is a whole service run's outcome.
type ServiceResult struct {
	// Rounds is how many rounds the fleet played.
	Rounds int
	// Jobs lists every job in submission order, unfinished ones included.
	Jobs []JobResult
	// Fleet is the standing fleet's aggregate accounting over the whole run,
	// in the batch Result shape: JobWork totals everything ever submitted,
	// station reports cover departed stations too.
	Fleet Result
	// Joined and Departed count stations that joined and left after start.
	Joined, Departed int
	// Crashed counts stations destroyed by the fault plan (not included in
	// Departed — a departure drains its queue, a crash loses it).
	Crashed int
	// Events is the run's deterministic event log — feed it to Replay.
	Events []ServiceEvent
}

// ServiceStats is a point-in-time service snapshot, exact at round barriers.
type ServiceStats struct {
	Round        int
	Stations     int // live stations
	Joined       int // stations joined since start
	Departed     int // stations departed since start
	QueuedJobs   int // admitted, waiting for an active slot
	ActiveJobs   int // multiplexing over the fleet now
	FinishedJobs int
	TasksPending int // tasks admitted to the fleet, not yet completed
	Steals       int
	Crashed      int // stations crashed by the fault plan since start
	TasksLost    int // tasks destroyed by faults since start
	// Recovering is true while a RecoverService session is still replaying
	// its log; a snapshot taken then describes the partially rebuilt past,
	// not the live present (in particular, an idle-looking snapshot before
	// the logged submissions have replayed does not mean the session is
	// done).
	Recovering bool
}

// svcJob is one submitted job's live state.
type svcJob struct {
	id        int
	tenant    string
	specs     []float64 // caller-unit durations, for the event log
	walTasks  []byte    // specs encoded for the WAL until logged; nil without one
	tasks     []task.Task
	work      quant.Tick
	base      int // first task ID (contiguous range), set at apply
	submitted int // round the submission applied; -1 until then
	finished  int // round the last task completed; -1 until then
	doneTasks int
	doneWork  quant.Tick
	lostTasks int // tasks destroyed by injected faults
	err       error
	done      chan struct{}
}

func (j *svcJob) result(g grid) JobResult {
	return JobResult{
		ID:             j.id,
		Tenant:         j.tenant,
		Tasks:          len(j.tasks),
		TasksCompleted: j.doneTasks,
		JobWork:        g.units(j.work),
		TaskWork:       g.units(j.doneWork),
		TasksLost:      j.lostTasks,
		Completed:      j.finished >= 0,
		SubmittedRound: j.submitted,
		FinishedRound:  j.finished,
	}
}

// JobHandle tracks one submitted job. Done closes when the job completes or
// the service stops; Result then reports the outcome (with ErrStopped or
// the stopping error when the job never finished).
type JobHandle struct {
	ID     int
	Tenant string
	s      *Service
	j      *svcJob
}

// Done returns the job's completion signal.
func (h *JobHandle) Done() <-chan struct{} { return h.j.done }

// Result reports the job's outcome so far — final once Done has closed.
func (h *JobHandle) Result() (JobResult, error) {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.j.result(h.s.f.g), h.j.err
}

// op is one queued mutation awaiting the next round top.
type op struct {
	kind       EventKind
	job        *svcJob // submit
	slot       int     // leave
	checkpoint float64 // checkpoint
	adaptive   bool
}

// Service is a resident fleet: the deterministic round engine kept alive
// between jobs. Tenants submit jobs onto per-tenant queues; up to MaxActive
// jobs multiplex over one standing task pool, activated fairly round-robin
// across tenants; stations join and leave mid-flight; and the checkpoint
// policy can change while work runs. Every mutation lands at a round
// barrier and is stamped into the event log, so the entire run is a pure
// function of (ServiceConfig, event log): Replay reproduces it
// bit-identically at any Workers setting, and a zero-churn single-job run
// is bit-identical to the batch RunDeterministic on the same Config.
//
// Two driving modes. Paused (the default): Submit/JoinStation/LeaveStation/
// SetCheckpoint queue mutations, and Drain plays rounds synchronously until
// the service is idle (or MaxRounds). Live: Start launches the loop on its
// own goroutine — it plays while there is work, sleeps while there is none,
// and wakes on submissions; cancel the context to stop it and Wait collects
// the result. Either way the service itself owns no goroutines while idle,
// and shutdown leaves none behind.
type Service struct {
	f   *Fleet
	cfg ServiceConfig

	maxActive   int
	maxQueued   int
	minStations int
	maxStations int

	mu          sync.Mutex
	core        *farm.Core
	churn       *rand.Rand
	round       int
	nextJobID   int
	nextTaskID  int
	nextStation int
	alive       []bool // per-slot liveness, for churn sampling
	queues      map[string][]*svcJob
	tenants     []string // first-submission order, the fairness cycle
	rrNext      int      // next tenant offset in the activation round-robin
	queuedTotal int
	active      []*svcJob
	jobs        []*svcJob
	finished    int
	totalWork   quant.Tick
	events      []ServiceEvent
	joined      int
	departed    int
	pendingOps  []op
	replayLog   []ServiceEvent // non-nil: drive from a log, not live ops
	doneBuf     []task.Task
	lostBuf     []task.Task

	faults  *fault.Injector // nil: no fault plan
	crashed int

	walw    *bufio.Writer // nil: no durable log
	walSync interface{ Sync() error }
	walErr  error // sticky: first WAL write/flush failure or recovery divergence

	// Recovery mode: replay rounds [0, recoverTo) applying the log's
	// non-sampled events while churn/fault sampling regenerates the rest —
	// logEvent checks every regenerated event against the log cursor, so a
	// mismatched config or seed is detected, not silently diverged from.
	recovering bool
	recoverLog []ServiceEvent
	recoverCur int
	recoverTo  int

	started bool
	exited  bool
	exitErr error
	notify  chan struct{}
	stopped chan struct{}
}

// NewService validates the configuration and builds a paused Service.
func NewService(cfg ServiceConfig) (*Service, error) {
	f, err := New(cfg.Fleet)
	if err != nil {
		return nil, err
	}
	if cfg.Fleet.Pool == Private {
		return nil, fmt.Errorf("fleet: a service multiplexes jobs over a shared pool; the Private pool shares nothing — use Run for fleet surveys")
	}
	if cfg.Fleet.Clusters > 1 {
		return nil, fmt.Errorf("fleet: a service cannot span clusters: churn would drain queues whose stolen tasks are mid-flight between them")
	}
	if cfg.Fleet.Record != nil {
		return nil, fmt.Errorf("fleet: a service records its own event log; trace recording covers single runs — record a Run or RunDeterministic instead")
	}
	if f.stateful {
		return nil, fmt.Errorf("fleet: a service cannot drive trace-replay owners: a recorded trace names one batch run, not a resident fleet")
	}
	if cfg.MaxActive < 0 {
		return nil, fmt.Errorf("fleet: max active jobs must be ≥ 0, got %d", cfg.MaxActive)
	}
	if cfg.MaxQueuedPerTenant < 0 {
		return nil, fmt.Errorf("fleet: max queued per tenant must be ≥ 0, got %d", cfg.MaxQueuedPerTenant)
	}
	if cfg.MaxRounds < 0 {
		return nil, fmt.Errorf("fleet: max rounds must be ≥ 0, got %d", cfg.MaxRounds)
	}
	cc := cfg.Churn
	if math.IsNaN(cc.LeaveProb) || cc.LeaveProb < 0 || cc.LeaveProb >= 1 {
		return nil, fmt.Errorf("fleet: churn leave probability must be in [0, 1), got %g", cc.LeaveProb)
	}
	if math.IsNaN(cc.JoinProb) || cc.JoinProb < 0 || cc.JoinProb >= 1 {
		return nil, fmt.Errorf("fleet: churn join probability must be in [0, 1), got %g", cc.JoinProb)
	}
	if cc.MinStations < 0 || cc.MaxStations < 0 {
		return nil, fmt.Errorf("fleet: churn station bounds must be ≥ 0, got min %d max %d", cc.MinStations, cc.MaxStations)
	}

	s := &Service{
		f:           f,
		cfg:         cfg,
		maxActive:   cfg.MaxActive,
		maxQueued:   cfg.MaxQueuedPerTenant,
		minStations: cc.MinStations,
		maxStations: cc.MaxStations,
		queues:      make(map[string][]*svcJob),
		notify:      make(chan struct{}, 1),
	}
	if s.maxActive == 0 {
		s.maxActive = 4
	}
	if s.maxQueued == 0 {
		s.maxQueued = 16
	}
	if s.minStations == 0 {
		s.minStations = 1
	}
	if s.maxStations == 0 {
		s.maxStations = 2 * cfg.Fleet.Stations
	}
	if cc.LeaveProb > 0 || cc.JoinProb > 0 {
		seed := cc.Seed
		if seed == 0 {
			seed = cfg.Fleet.Seed ^ 0x636875726e // "churn"
		}
		s.churn = lazyrand.New(seed)
	}
	if plan := cfg.Fleet.Faults.internal(); plan.Active() {
		s.faults = plan.NewInjector(cfg.Fleet.Seed ^ farm.FaultSeedSalt)
	}
	if cfg.WAL != nil {
		s.walSync, _ = cfg.WAL.(interface{ Sync() error })
		s.walw = bufio.NewWriter(cfg.WAL)
		if err := writeWALHeader(s.walw, int(f.g.ticksC)); err != nil {
			return nil, fmt.Errorf("fleet: write-ahead log: %w", err)
		}
	}

	fm := f.farm(f.stations)
	groups := farm.ResolveShards(fm.Shards, len(fm.Stations))
	s.core = fm.NewCore(f.factory, cfg.Fleet.Seed, groups, len(f.stations), true)
	for _, ws := range f.stations {
		s.core.Join(ws)
		s.alive = append(s.alive, true)
	}
	s.nextStation = len(f.stations)
	return s, nil
}

// Submit admits a job for the tenant and returns its handle. Admission is
// immediate: a tenant already holding MaxQueuedPerTenant unactivated jobs is
// rejected here, as is an empty job, a NaN, infinite, negative or
// grid-overflowing duration (the error names the task), or a stopped
// service. The job itself enters the fleet at the next round top.
//
// Submit copies, validates and quantizes the durations — and, with a WAL,
// encodes them for the log — on the caller's goroutine before it takes the
// service lock: O(job) work the caller pays and the round loop never does.
// The job's WAL record is still exactly what encoding/json writes for it.
func (s *Service) Submit(tenant string, j Job) (*JobHandle, error) {
	if len(j.Tasks) == 0 {
		return nil, fmt.Errorf("fleet: a service job needs ≥ 1 task")
	}
	job, err := s.newJob(tenant, append([]float64(nil), j.Tasks...))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.exited {
		return nil, fmt.Errorf("fleet: service has stopped")
	}
	if s.replayLog != nil {
		return nil, fmt.Errorf("fleet: a replaying service takes jobs from its event log")
	}
	if n := s.pendingFor(tenant) + len(s.queues[tenant]); n >= s.maxQueued {
		return nil, fmt.Errorf("fleet: tenant %q has %d jobs queued (max %d)", tenant, n, s.maxQueued)
	}
	job.id = s.nextJobID
	s.nextJobID++
	s.pendingOps = append(s.pendingOps, op{kind: EventSubmit, job: job})
	s.wake()
	return &JobHandle{ID: job.id, Tenant: tenant, s: s, j: job}, nil
}

// newJob builds a job from its caller-unit durations, which it keeps:
// validated and quantized (task IDs are assigned at apply), and encoded for
// the WAL when the service has one. It touches no service state, so Submit
// runs it before taking the lock.
func (s *Service) newJob(tenant string, specs []float64) (*svcJob, error) {
	tasks, work, err := s.f.g.quantize(specs)
	if err != nil {
		return nil, err
	}
	j := &svcJob{
		tenant:    tenant,
		specs:     specs,
		tasks:     tasks,
		work:      work,
		submitted: -1,
		finished:  -1,
		done:      make(chan struct{}),
	}
	if s.cfg.WAL != nil {
		j.walTasks = appendWALTasks(nil, specs)
	}
	return j, nil
}

// pendingFor counts a tenant's submissions still waiting to apply.
func (s *Service) pendingFor(tenant string) int {
	n := 0
	for _, o := range s.pendingOps {
		if o.kind == EventSubmit && o.job.tenant == tenant {
			n++
		}
	}
	return n
}

// JoinStation queues a station arrival: at the next round top a fresh slot
// opens, its temperament drawn from the owner cycle at the new ID.
func (s *Service) JoinStation() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pendingOps = append(s.pendingOps, op{kind: EventJoin})
	s.wake()
}

// LeaveStation queues a departure of the given station slot, applied at the
// next round top (a no-op if the slot is not live by then). The departing
// station's queued tasks drain back to the pool.
func (s *Service) LeaveStation(slot int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pendingOps = append(s.pendingOps, op{kind: EventLeave, slot: slot})
	s.wake()
}

// SetCheckpoint queues a checkpoint-policy change, applied at the next
// round top: interval > 0 checkpoints every interval time units, adaptive
// picks the interval per opportunity by Young's rule, and 0/false restores
// the pure draconian contract.
func (s *Service) SetCheckpoint(interval float64, adaptive bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pendingOps = append(s.pendingOps, op{kind: EventCheckpoint, checkpoint: interval, adaptive: adaptive})
	s.wake()
}

// wake nudges a sleeping live loop; never blocks.
func (s *Service) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Stats snapshots the service. Between rounds the counts are exact; during
// a live round they lag by at most that round.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ServiceStats{
		Round:        s.round,
		Stations:     s.core.Live(),
		Joined:       s.joined,
		Departed:     s.departed,
		QueuedJobs:   s.queuedTotal + s.pendingSubmits(),
		ActiveJobs:   len(s.active),
		FinishedJobs: s.finished,
		TasksPending: s.core.Pending(),
		Steals:       s.core.Steals(),
		Crashed:      s.crashed,
		TasksLost:    s.core.TasksLost(),
		Recovering:   s.recovering,
	}
}

func (s *Service) pendingSubmits() int {
	n := 0
	for _, o := range s.pendingOps {
		if o.kind == EventSubmit {
			n++
		}
	}
	return n
}

// --- the round loop -----------------------------------------------------------

// logEvent stamps an event into the log and the write-ahead log; tasks is a
// submit's walTasks, nil for every other event. During recovery it also
// checks the event against the recorded log at the cursor: regenerated
// sampling must reproduce the original sequence exactly, so a recovery
// under different seeds or config fails loudly instead of diverging
// silently.
func (s *Service) logEvent(ev ServiceEvent, tasks []byte) {
	if s.recovering {
		if s.recoverCur < len(s.recoverLog) && eventsMatch(s.recoverLog[s.recoverCur], ev) {
			s.recoverCur++
		} else if s.walErr == nil {
			s.walErr = fmt.Errorf("fleet: recovery diverged at round %d: regenerated %s event does not match the log (different seeds or config than the original run?)", s.round, ev.Kind)
		}
	}
	s.events = append(s.events, ev)
	if s.walw != nil && s.walErr == nil {
		if err := writeWALRecord(s.walw, ev, tasks); err != nil {
			s.walErr = fmt.Errorf("fleet: write-ahead log: %w", err)
		}
	}
}

// eventsMatch compares two events for recovery verification (Tasks by
// value).
func eventsMatch(a, b ServiceEvent) bool {
	if a.Round != b.Round || a.Kind != b.Kind || a.Tenant != b.Tenant ||
		a.JobID != b.JobID || a.Station != b.Station ||
		a.Checkpoint != b.Checkpoint || a.Adaptive != b.Adaptive ||
		a.Sampled != b.Sampled || len(a.Tasks) != len(b.Tasks) {
		return false
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			return false
		}
	}
	return true
}

// flushWAL pushes buffered log lines to the writer and syncs it — the round
// barrier's durability point. Reports the sticky WAL error, if any.
func (s *Service) flushWAL() error {
	if s.walw == nil {
		return s.walErr
	}
	if err := s.walw.Flush(); err != nil && s.walErr == nil {
		s.walErr = fmt.Errorf("fleet: write-ahead log: %w", err)
	}
	if s.walSync != nil && s.walErr == nil {
		if err := s.walSync.Sync(); err != nil {
			s.walErr = fmt.Errorf("fleet: write-ahead log: %w", err)
		}
	}
	return s.walErr
}

// applyOps applies every queued mutation at a round top, in arrival order,
// stamping each into the event log — or, when replaying or recovering,
// applies the log's events due at this round (recovery skips sampled ones;
// sampling regenerates those).
func (s *Service) applyOps() error {
	if s.replayLog != nil {
		for len(s.replayLog) > 0 && s.replayLog[0].Round <= s.round {
			if err := s.applyEvent(s.replayLog[0]); err != nil {
				return err
			}
			s.replayLog = s.replayLog[1:]
		}
		return nil
	}
	if s.recovering {
		// New live ops (pendingOps) wait until the session is rebuilt.
		for s.recoverCur < len(s.recoverLog) && s.walErr == nil {
			ev := s.recoverLog[s.recoverCur]
			if ev.Round > s.round || ev.Sampled {
				break
			}
			cur := s.recoverCur
			if err := s.applyEvent(ev); err != nil {
				return err
			}
			if s.recoverCur == cur {
				return fmt.Errorf("fleet: recovery: logged %s event at round %d did not apply (corrupt or mismatched log)", ev.Kind, ev.Round)
			}
		}
		return nil
	}
	ops := s.pendingOps
	s.pendingOps = nil
	for _, o := range ops {
		var err error
		switch o.kind {
		case EventSubmit:
			s.applySubmit(o.job)
		case EventJoin:
			err = s.applyJoin(false)
		case EventLeave:
			s.applyLeave(o.slot, false)
		case EventCheckpoint:
			s.applyCheckpoint(o.checkpoint, o.adaptive)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// applyEvent replays one logged event.
func (s *Service) applyEvent(ev ServiceEvent) error {
	switch ev.Kind {
	case EventSubmit:
		j, err := s.newJob(ev.Tenant, ev.Tasks)
		if err != nil {
			return fmt.Errorf("%w (logged job %d, round %d)", err, ev.JobID, ev.Round)
		}
		j.id = ev.JobID
		if ev.JobID >= s.nextJobID {
			s.nextJobID = ev.JobID + 1
		}
		s.applySubmit(j)
		return nil
	case EventJoin:
		return s.applyJoin(ev.Sampled)
	case EventLeave:
		s.applyLeave(ev.Station, ev.Sampled)
		return nil
	case EventCheckpoint:
		s.applyCheckpoint(ev.Checkpoint, ev.Adaptive)
		return nil
	case EventCrash:
		s.applyCrash(ev.Station, ev.Sampled)
		return nil
	case EventKill:
		// Replaying a killed session re-kills it at the same round; the
		// replayed result matches the original, error included.
		s.logEvent(ev, nil)
		if err := s.flushWAL(); err != nil {
			return err
		}
		return ErrSchedulerKilled
	default:
		return fmt.Errorf("fleet: replay: unknown event kind %d", int(ev.Kind))
	}
}

func (s *Service) applySubmit(j *svcJob) {
	j.base = s.nextTaskID
	for i := range j.tasks {
		j.tasks[i].ID = j.base + i
	}
	s.nextTaskID += len(j.tasks)
	j.submitted = s.round
	s.totalWork += j.work
	s.jobs = append(s.jobs, j)
	if _, seen := s.queues[j.tenant]; !seen {
		s.tenants = append(s.tenants, j.tenant)
	}
	s.queues[j.tenant] = append(s.queues[j.tenant], j)
	s.queuedTotal++
	s.logEvent(ServiceEvent{
		Round: s.round, Kind: EventSubmit, Tenant: j.tenant, JobID: j.id, Tasks: j.specs,
	}, j.walTasks)
	j.walTasks = nil
}

func (s *Service) applyJoin(sampled bool) error {
	id := s.nextStation
	ws, err := s.f.buildStation(id)
	if err != nil {
		return err
	}
	s.nextStation++
	slot := s.core.Join(ws)
	s.alive = append(s.alive, true)
	s.joined++
	s.logEvent(ServiceEvent{Round: s.round, Kind: EventJoin, Station: slot, Sampled: sampled}, nil)
	return nil
}

func (s *Service) applyLeave(slot int, sampled bool) {
	if slot < 0 || slot >= len(s.alive) || !s.alive[slot] {
		return
	}
	s.core.Leave(slot)
	s.alive[slot] = false
	s.departed++
	s.logEvent(ServiceEvent{Round: s.round, Kind: EventLeave, Station: slot, Sampled: sampled}, nil)
}

// applyCrash fails a station hard: unlike a leave, an orphaned group's
// queued tasks are lost, not drained. A no-op on dead or out-of-range slots.
func (s *Service) applyCrash(slot int, sampled bool) {
	if slot < 0 || slot >= len(s.alive) || !s.alive[slot] {
		return
	}
	s.core.Crash(slot)
	s.alive[slot] = false
	s.crashed++
	s.logEvent(ServiceEvent{Round: s.round, Kind: EventCrash, Station: slot, Sampled: sampled}, nil)
}

func (s *Service) applyCheckpoint(interval float64, adaptive bool) {
	var ticks quant.Tick
	if interval > 0 {
		ticks = s.f.g.ticks(interval)
	}
	s.core.SetCheckpoint(ticks, adaptive)
	s.logEvent(ServiceEvent{
		Round: s.round, Kind: EventCheckpoint, Checkpoint: interval, Adaptive: adaptive,
	}, nil)
}

// sampleChurn runs one round's churn: each live slot leaves with LeaveProb
// (floored at MinStations), then one station joins with JoinProb (capped at
// MaxStations). Every sampled action becomes a concrete logged event, so a
// replay applies the outcomes without re-sampling. Never called while
// replaying — Replay zeroes the probabilities.
func (s *Service) sampleChurn() error {
	if s.churn == nil {
		return nil
	}
	cc := s.cfg.Churn
	if cc.LeaveProb > 0 {
		for slot := 0; slot < len(s.alive); slot++ {
			if !s.alive[slot] {
				continue
			}
			if s.core.Live() <= s.minStations {
				break
			}
			if s.churn.Float64() < cc.LeaveProb {
				s.applyLeave(slot, true)
			}
		}
	}
	if cc.JoinProb > 0 && s.core.Live() < s.maxStations && s.churn.Float64() < cc.JoinProb {
		return s.applyJoin(true)
	}
	return nil
}

// sampleFaults runs one round's fault plan after churn: scheduled crashes
// first, then each live slot crashes with CrashProb, in slot order. Like
// churn, every outcome is a concrete logged event — a replay applies them
// without re-sampling, a recovery regenerates them from the seed.
func (s *Service) sampleFaults() {
	if s.faults == nil {
		return
	}
	for _, slot := range s.faults.ScheduledCrashes(s.round) {
		s.applyCrash(slot, true)
	}
	if s.faults.Plan().CrashProb > 0 {
		for slot := 0; slot < len(s.alive); slot++ {
			if s.alive[slot] && s.faults.SampleCrash() {
				s.applyCrash(slot, true)
			}
		}
	}
}

// activate moves queued jobs into the active set, round-robin across
// tenants in first-submission order, until MaxActive jobs multiplex. An
// activated job's tasks are dealt into the fleet's group queues.
func (s *Service) activate() {
	for len(s.active) < s.maxActive && s.queuedTotal > 0 {
		for i := 0; i < len(s.tenants); i++ {
			t := s.tenants[(s.rrNext+i)%len(s.tenants)]
			q := s.queues[t]
			if len(q) == 0 {
				continue
			}
			j := q[0]
			s.queues[t] = q[1:]
			s.queuedTotal--
			s.rrNext = (s.rrNext + i + 1) % len(s.tenants)
			s.core.AddTasks(j.tasks)
			s.active = append(s.active, j)
			break
		}
	}
}

// collect attributes the round's completed and lost tasks back to their
// jobs, settles jobs with every task accounted for, flushes the write-ahead
// log (the round barrier is the durability point), and advances the round
// counter. Jobs own contiguous task-ID ranges, so attribution is a range
// lookup over the active set.
func (s *Service) collect() {
	s.doneBuf = s.core.TakeCompleted(s.doneBuf[:0])
	for _, t := range s.doneBuf {
		if j := s.activeFor(t.ID); j != nil {
			j.doneTasks++
			j.doneWork += t.Duration
		}
	}
	s.collectLost()
	s.flushWAL()
	s.round++
	if s.recovering && s.recoverCur < len(s.recoverLog) && s.recoverLog[s.recoverCur].Round < s.round && s.walErr == nil {
		// A sampled event the log recorded for a finished round never
		// regenerated: the recovery is not reproducing the original run.
		ev := s.recoverLog[s.recoverCur]
		s.walErr = fmt.Errorf("fleet: recovery diverged: logged %s event at round %d never regenerated (different seeds or config than the original run?)", ev.Kind, ev.Round)
	}
}

// activeFor finds the active job owning a task ID.
func (s *Service) activeFor(id int) *svcJob {
	for _, j := range s.active {
		if id >= j.base && id < j.base+len(j.tasks) {
			return j
		}
	}
	return nil
}

// collectLost attributes fault-destroyed tasks to their jobs and settles
// jobs whose every task is accounted for — completed, or lost for good.
func (s *Service) collectLost() {
	// Unconditional: a replayed crash destroys tasks even when the replaying
	// session itself carries no fault plan.
	s.lostBuf = s.core.TakeLost(s.lostBuf[:0])
	for _, t := range s.lostBuf {
		if j := s.activeFor(t.ID); j != nil {
			j.lostTasks++
		}
	}
	kept := s.active[:0]
	for _, j := range s.active {
		if j.doneTasks+j.lostTasks < len(j.tasks) {
			kept = append(kept, j)
			continue
		}
		if j.lostTasks == 0 {
			j.finished = s.round
			s.finished++
		} else {
			// Every task is completed or destroyed: the job can never
			// finish, and waiting callers should learn that now.
			j.err = ErrTasksLost
		}
		close(j.done)
	}
	s.active = kept
}

// step prepares and plays one round; it reports done=true when the service
// has nothing to do (idle, a dead fleet, or the MaxRounds bound) or must
// stop (a scheduler kill, a WAL failure).
func (s *Service) step(ctx context.Context) (done bool, err error) {
	if s.recovering && s.recoverCur >= len(s.recoverLog) && s.round >= s.recoverTo {
		// The session is rebuilt: back to live sampling and live ops.
		s.recovering = false
		s.recoverLog = nil
	}
	if s.walErr != nil {
		return true, s.walErr
	}
	if s.faults != nil && !s.recovering && s.faults.KillsAt(s.round) {
		// The scheduler dies at this round top: nothing of the round runs,
		// the durable log closes with a kill record, and RecoverService can
		// rebuild the session from it. (A recovery with the same plan must
		// raise or clear KillRound, or it re-kills here immediately.)
		s.logEvent(ServiceEvent{Round: s.round, Kind: EventKill, Sampled: true}, nil)
		if err := s.flushWAL(); err != nil {
			return true, err
		}
		return true, ErrSchedulerKilled
	}
	if err := s.applyOps(); err != nil {
		return true, err
	}
	if s.walErr != nil {
		return true, s.walErr
	}
	hasWork := len(s.active) > 0 || s.queuedTotal > 0 || s.core.Pending() > 0
	if !hasWork {
		if len(s.replayLog) > 0 {
			// Defensive round jump for a foreign log: a live service's
			// rounds only advance while work plays, so its own stamps never
			// land in a gap — but an edited log can still replay; idle
			// rounds fast-forward to the next event.
			s.round = s.replayLog[0].Round
			return false, nil
		}
		return true, nil
	}
	if s.core.Live() == 0 {
		// A dead fleet plays nothing; work waits for a join.
		return true, nil
	}
	if s.cfg.MaxRounds > 0 && s.round >= s.cfg.MaxRounds {
		return true, nil
	}
	if err := s.sampleChurn(); err != nil {
		return true, err
	}
	s.sampleFaults()
	if s.core.Live() == 0 {
		// The plan wiped out the fleet this round: whatever its queues held
		// is already lost; settle those jobs and idle awaiting joins.
		s.collectLost()
		s.flushWAL()
		return true, s.walErr
	}
	s.activate()
	if err := s.core.PlayRound(ctx, s.cfg.Fleet.Workers); err != nil {
		return true, err
	}
	s.collect()
	return false, s.walErr
}

// Drain plays rounds synchronously until the service is idle — every
// submitted job finished, nothing queued — or MaxRounds is reached, and
// returns the run so far. The paused-mode driver: no goroutines outlive the
// call. Drain composes: queue more work afterwards and Drain again, the
// round counter and event log continue. On cancellation or a station error
// every unfinished job's handle fails and the service stops for good.
func (s *Service) Drain(ctx context.Context) (ServiceResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return ServiceResult{}, fmt.Errorf("fleet: service is running live; use Wait")
	}
	if s.exited {
		return s.resultLocked(), s.exitErr
	}
	for {
		if err := ctx.Err(); err != nil {
			s.shutdownLocked(err)
			return s.resultLocked(), err
		}
		done, err := s.step(ctx)
		if err != nil {
			s.shutdownLocked(err)
			return s.resultLocked(), err
		}
		if done {
			return s.resultLocked(), nil
		}
	}
}

// Start launches the live loop on its own goroutine: it plays while there
// is work, sleeps while there is none, wakes on submissions, and stops when
// ctx is cancelled or MaxRounds is reached. Collect the outcome with Wait.
func (s *Service) Start(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("fleet: service already started")
	}
	if s.exited {
		return fmt.Errorf("fleet: service has stopped")
	}
	s.started = true
	s.stopped = make(chan struct{})
	go s.loop(ctx)
	return nil
}

// loop is the live round loop. It holds the service lock while playing a
// round (Stats and Submit interleave at round boundaries) and releases it
// while idle.
func (s *Service) loop(ctx context.Context) {
	defer close(s.stopped)
	for {
		s.mu.Lock()
		if err := ctx.Err(); err != nil {
			s.shutdownLocked(err)
			s.mu.Unlock()
			return
		}
		done, err := s.step(ctx)
		if err != nil {
			s.shutdownLocked(err)
			s.mu.Unlock()
			return
		}
		if !done {
			s.mu.Unlock()
			continue
		}
		if s.cfg.MaxRounds > 0 && s.round >= s.cfg.MaxRounds {
			// The round budget is spent: stop for good, failing whatever
			// never finished.
			s.shutdownLocked(nil)
			s.mu.Unlock()
			return
		}
		// Idle: wait for a submission (or any queued op) without holding the
		// lock, burning no cycles and owning no timers.
		s.mu.Unlock()
		select {
		case <-s.notify:
		case <-ctx.Done():
			s.mu.Lock()
			s.shutdownLocked(ctx.Err())
			s.mu.Unlock()
			return
		}
	}
}

// Wait blocks until the live loop has stopped (cancel its context to force
// that) and returns the run's outcome. The returned error is the loop's
// stopping error — ctx.Err() after a cancellation, nil after a clean
// MaxRounds stop.
func (s *Service) Wait() (ServiceResult, error) {
	s.mu.Lock()
	stopped := s.stopped
	started := s.started
	s.mu.Unlock()
	if !started {
		return ServiceResult{}, fmt.Errorf("fleet: service not started")
	}
	<-stopped
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resultLocked(), s.exitErr
}

// shutdownLocked stops the service for good: every unfinished job's handle
// fails with cause (ErrStopped when the stop itself was clean).
func (s *Service) shutdownLocked(cause error) {
	if s.exited {
		return
	}
	s.exited = true
	s.exitErr = cause
	s.flushWAL()
	fail := cause
	if fail == nil {
		fail = ErrStopped
	}
	for _, j := range s.jobs {
		if j.finished < 0 && j.err == nil {
			j.err = fail
			close(j.done)
		}
	}
	for _, o := range s.pendingOps {
		if o.kind == EventSubmit && o.job.err == nil {
			o.job.err = fail
			close(o.job.done)
		}
	}
	s.pendingOps = nil
}

// resultLocked snapshots the run so far.
func (s *Service) resultLocked() ServiceResult {
	jobs := make([]JobResult, len(s.jobs))
	for i, j := range s.jobs {
		jobs[i] = j.result(s.f.g)
	}
	return ServiceResult{
		Rounds:   s.round,
		Jobs:     jobs,
		Fleet:    s.f.result(s.core.Result(), s.totalWork),
		Joined:   s.joined,
		Departed: s.departed,
		Crashed:  s.crashed,
		Events:   append([]ServiceEvent(nil), s.events...),
	}
}

// ReplayService re-runs a recorded service run from its event log: the
// same configuration, churn and fault sampling disabled, and the log's
// submits, joins, leaves, checkpoint changes, crashes and kill applied at
// their recorded rounds. The result — job outcomes, fleet accounting, even
// the re-logged event sequence — is bit-identical to the original at any
// Workers setting, a replayed kill re-killing the replay with
// ErrSchedulerKilled. (The Replay type is the unrelated trace-driven owner
// for batch runs.)
func ReplayService(ctx context.Context, cfg ServiceConfig, events []ServiceEvent) (ServiceResult, error) {
	cfg.Churn.LeaveProb = 0
	cfg.Churn.JoinProb = 0
	cfg.Fleet.Faults = FaultPlan{}
	s, err := NewService(cfg)
	if err != nil {
		return ServiceResult{}, err
	}
	s.replayLog = append([]ServiceEvent(nil), events...)
	return s.Drain(ctx)
}
