package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"

	"cyclesteal/internal/farm"
	"cyclesteal/internal/jsonl"
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
	// barrier, whenever the service runs out of rounds to play (a Drain
	// returning, the live loop going to sleep), and at a scheduler kill,
	// whose final kill record closes the log. The round barrier makes the
	// round durable before it settles any job, so a job's Done closes only
	// once the records of its finishing round are synced. RecoverService
	// rebuilds the session from such a log, bit-identical to the
	// uninterrupted run. A write or sync error stops the service, and no
	// job of the round it failed in settles: an event that cannot be made
	// durable must not take effect silently. A submit record logs its job
	// as the grid ticks the service plays, and the header names that grid
	// (see ServiceEvent); see ReadWAL for the line format.
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

// eventKindNames spells every EventKind: its String, and its kind field in
// the write-ahead log.
var eventKindNames = [...]string{
	EventSubmit:     "submit",
	EventJoin:       "join",
	EventLeave:      "leave",
	EventCheckpoint: "checkpoint",
	EventCrash:      "crash",
	EventKill:       "kill",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k >= 0 && int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// ServiceEvent is one entry of a service run's deterministic event log:
// everything that happened to the fleet beyond playing rounds, stamped with
// the round at which it applied. The log is the run's replay key — Replay
// applies the same events at the same rounds and the seed-stream contract
// does the rest, bit-identically at any Workers setting. Its durations are
// on the configuration's tick grid, Setup/Fleet.Ticks() caller units per
// tick; Fleet.Units converts them.
type ServiceEvent struct {
	// Round is the round the event applied at (events apply at round tops,
	// before any station plays).
	Round int
	Kind  EventKind
	// Tenant, JobID and Ticks describe a Submit: the submitting tenant, the
	// job's service-wide ID, and its task durations as the service plays
	// them — task i's duration in ticks, each ≥ 1. The log is
	// self-contained: a replay deals the job from these ticks, with no
	// second quantization.
	Tenant string
	JobID  int
	Ticks  []int64
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
	// from the log where the original run sampled them.
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
	size      int         // the job's task count
	walTasks  []byte      // its ticks encoded for the WAL until logged; nil without one
	tasks     []task.Task // the job on the grid until activate deals it; nil after
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

func (j *svcJob) result(g quant.Grid) JobResult {
	return JobResult{
		ID:             j.id,
		Tenant:         j.tenant,
		Tasks:          j.size,
		TasksCompleted: j.doneTasks,
		JobWork:        g.Units(j.work),
		TaskWork:       g.Units(j.doneWork),
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

// op is one queued mutation awaiting the next round top: the event it
// applies, and for a submit the job Submit built.
type op struct {
	ev  ServiceEvent
	job *svcJob
}

// logCursor drives a service from a recorded event log: a whole
// ReplayService run, or a RecoverService session until it is rebuilt. Each
// logged event applies where the original run applied it, except that a
// recovery regenerates the sampled ones from the seeds instead.
type logCursor struct {
	events []ServiceEvent // the log, less a closing kill record
	pos    int            // the next event to reproduce
	to     int            // the round the session reaches before it plays live
	regen  bool           // sampled events regenerate from the seeds (a recovery)
}

// active reports whether the session is still reproducing its log at round.
func (c *logCursor) active(round int) bool { return c.pos < len(c.events) || round < c.to }

// due reports whether the next logged event applies at this round top
// (sampled false) or at this round's sampling point (sampled true).
func (c *logCursor) due(round int, sampled bool) bool {
	return c.pos < len(c.events) && c.events[c.pos].Round <= round && c.events[c.pos].Sampled == sampled
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
	crashed     int
	pendingOps  []op
	doneBuf     []task.Task
	lostBuf     []task.Task

	walw    *bufio.Writer // nil: no durable log
	walSync interface{ Sync() error }
	walErr  error // sticky: first WAL write/flush failure or log divergence

	log logCursor // ReplayService, or RecoverService until rebuilt

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
	if cfg.WAL != nil {
		s.walSync, _ = cfg.WAL.(interface{ Sync() error })
		s.walw = bufio.NewWriter(cfg.WAL)
		if err := writeWALHeader(s.walw, int(f.g.TicksPerSetup)); err != nil {
			return nil, fmt.Errorf("fleet: write-ahead log: %w", err)
		}
	}

	fm := f.farm(f.stations)
	groups := farm.ResolveShards(fm.Shards, len(fm.Stations))
	s.core = fm.NewCore(f.factory, cfg.Fleet.Seed, groups, len(f.stations), true)
	if plan := cfg.Fleet.Faults.internal(); plan.Active() {
		s.core.SetFaults(plan.NewInjector(cfg.Fleet.Seed ^ farm.FaultSeedSalt))
	}
	for _, ws := range f.stations {
		s.core.Join(ws)
	}
	s.nextStation = len(f.stations)
	return s, nil
}

// Submit admits a job for the tenant and returns its handle. Admission is
// immediate: a tenant already holding MaxQueuedPerTenant unactivated jobs is
// rejected here, as is an empty job, a NaN, infinite, negative or
// grid-overflowing duration (the error names the task), a job whose WAL
// record could outgrow the log's 256 MiB line cap, or a stopped service.
// The job itself enters the fleet at the next round top.
//
// Submit validates and quantizes the durations once — and, with a WAL,
// encodes the ticks for the log — on the caller's goroutine before it takes
// the service lock: O(job) work the caller pays and the round loop never
// does. It keeps no copy of the caller's durations: the job keeps its
// tasks on the grid until they are dealt, and its submit event their
// ticks. The job's WAL record is still exactly what encoding/json writes
// for it.
func (s *Service) Submit(tenant string, j Job) (*JobHandle, error) {
	if len(j.Tasks) == 0 {
		return nil, fmt.Errorf("fleet: a service job needs ≥ 1 task")
	}
	tasks, work, err := quantizeFlat(s.f.g, j.Tasks)
	if err != nil {
		return nil, err
	}
	ticks := taskTicks(tasks)
	job, err := s.newJob(tenant, ticks, tasks, work)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.exited {
		return nil, fmt.Errorf("fleet: service has stopped")
	}
	if n := s.pending(tenant, false) + len(s.queues[tenant]); n >= s.maxQueued {
		return nil, fmt.Errorf("fleet: tenant %q has %d jobs queued (max %d)", tenant, n, s.maxQueued)
	}
	job.id = s.nextJobID
	s.nextJobID++
	ev := ServiceEvent{Kind: EventSubmit, Tenant: tenant, JobID: job.id, Ticks: ticks}
	s.pendingOps = append(s.pendingOps, op{ev: ev, job: job})
	s.wake()
	return &JobHandle{ID: job.id, Tenant: tenant, s: s, j: job}, nil
}

// newJob builds a job from its ticks, the tasks they make in one hand (task
// i at index i; task IDs are assigned at apply) and their total, encoding
// the ticks for the WAL when the service has one. It touches no service
// state, so Submit runs it before taking the lock.
func (s *Service) newJob(tenant string, ticks []int64, tasks []task.Task, work quant.Tick) (*svcJob, error) {
	j := &svcJob{
		tenant:    tenant,
		size:      len(tasks),
		tasks:     tasks,
		work:      work,
		submitted: -1,
		finished:  -1,
		done:      make(chan struct{}),
	}
	if s.cfg.WAL != nil {
		j.walTasks = jsonl.AppendInt64s(nil, ticks)
		if n := len(j.walTasks) + 6*len(tenant) + walRecordSlack; n > walMaxLine {
			return nil, fmt.Errorf("fleet: the job's write-ahead log record could run to %d bytes, over the %d-byte line cap", n, walMaxLine)
		}
	}
	return j, nil
}

// pending counts the submissions still waiting to apply: all of them, or
// only the tenant's.
func (s *Service) pending(tenant string, all bool) int {
	n := 0
	for _, o := range s.pendingOps {
		if o.job != nil && (all || o.job.tenant == tenant) {
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
	s.pendingOps = append(s.pendingOps, op{ev: ServiceEvent{Kind: EventJoin}})
	s.wake()
}

// LeaveStation queues a departure of the given station slot, applied at the
// next round top (a no-op if the slot is not live by then). The departing
// station's queued tasks drain back to the pool.
func (s *Service) LeaveStation(slot int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pendingOps = append(s.pendingOps, op{ev: ServiceEvent{Kind: EventLeave, Station: slot}})
	s.wake()
}

// SetCheckpoint queues a checkpoint-policy change, applied at the next
// round top: interval > 0 checkpoints every interval time units, adaptive
// picks the interval per opportunity by Young's rule, and 0/false restores
// the pure draconian contract. An interval that is negative, NaN, infinite
// or too large for the tick grid is refused with an error naming the
// cause, and nothing is queued.
func (s *Service) SetCheckpoint(interval float64, adaptive bool) error {
	if _, err := checkpointTicks(s.f.g, interval); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pendingOps = append(s.pendingOps, op{ev: ServiceEvent{Kind: EventCheckpoint, Checkpoint: interval, Adaptive: adaptive}})
	s.wake()
	return nil
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
		QueuedJobs:   s.queuedTotal + s.pending("", true),
		ActiveJobs:   len(s.active),
		FinishedJobs: s.finished,
		TasksPending: s.core.Pending(),
		Steals:       s.core.Steals(),
		Crashed:      s.crashed,
		TasksLost:    s.core.TasksLost(),
		Recovering:   s.log.active(s.round),
	}
}

// --- the round loop -----------------------------------------------------------

// logEvent stamps an event into the log and the write-ahead log; tasks is a
// submit's walTasks, nil for every other event. While the session follows a
// recorded log it also checks the event against the log at the cursor, so
// a log that does not reproduce fails loudly instead of diverging silently.
func (s *Service) logEvent(ev ServiceEvent, tasks []byte) {
	if c := &s.log; c.active(s.round) {
		if c.pos < len(c.events) && eventsMatch(c.events[c.pos], ev) {
			c.pos++
		} else if s.walErr == nil {
			s.walErr = fmt.Errorf("fleet: event log diverged at round %d: %s event does not match the log (an edited log, or different seeds or config than the original run?)", s.round, ev.Kind)
		}
	}
	s.events = append(s.events, ev)
	if s.walw != nil && s.walErr == nil {
		if err := writeWALRecord(s.walw, ev, tasks); err != nil {
			s.walErr = fmt.Errorf("fleet: write-ahead log: %w", err)
		}
	}
}

// eventsMatch compares two events for log verification (Ticks by value).
func eventsMatch(a, b ServiceEvent) bool {
	return a.Round == b.Round && a.Kind == b.Kind && a.Tenant == b.Tenant &&
		a.JobID == b.JobID && a.Station == b.Station &&
		a.Checkpoint == b.Checkpoint && a.Adaptive == b.Adaptive &&
		a.Sampled == b.Sampled && slices.Equal(a.Ticks, b.Ticks)
}

// flushWAL pushes buffered log lines to the writer and syncs it: at every
// round barrier (the durability point, before any job of the round
// settles), at an idle round top, at the kill and at shutdown. Reports the
// sticky WAL error, if any.
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

// applyOps applies the mutations due at a round top, in order, stamping
// each into the event log: the queued ops of a live session, or the logged
// ops of one that follows a log (new queued ops wait until it is rebuilt).
func (s *Service) applyOps() error {
	if s.log.active(s.round) {
		return s.applyLogged(false)
	}
	ops := s.pendingOps
	s.pendingOps = nil
	for _, o := range ops {
		if err := s.applyEvent(o.ev, o.job); err != nil {
			return err
		}
	}
	return nil
}

// applyLogged applies the logged ops due at a round top (sampled false), or
// the churn and crash outcomes due at a replay's sampling point. An event
// that applies nothing, or reproduces differently, fails the session.
func (s *Service) applyLogged(sampled bool) error {
	for c := &s.log; c.due(s.round, sampled); {
		ev, pos := c.events[c.pos], c.pos
		if err := s.applyEvent(ev, nil); err != nil {
			return err
		}
		if s.walErr != nil {
			return s.walErr
		}
		if c.pos == pos {
			return fmt.Errorf("fleet: logged %s event at round %d did not apply (corrupt or mismatched log)", ev.Kind, ev.Round)
		}
	}
	return nil
}

// applyEvent applies one event at the current round and logs it: a queued
// op (j is a submit's job), a logged event, a sampled churn outcome or the
// kill. A leave or crash of a slot that is not live does nothing.
func (s *Service) applyEvent(ev ServiceEvent, j *svcJob) error {
	ev.Round = s.round
	var tasks []byte
	switch ev.Kind {
	case EventSubmit:
		if j == nil {
			// A logged job: its ticks dealt straight into one hand, with no
			// second quantization.
			hand := []task.Hand{{}}
			work, err := dealTicks(hand, ev.Ticks)
			if err == nil {
				j, err = s.newJob(ev.Tenant, ev.Ticks, hand[0].Tasks, work)
			}
			if err != nil {
				return fmt.Errorf("%w (logged job %d, round %d)", err, ev.JobID, ev.Round)
			}
			j.id = ev.JobID
		}
		j.base = s.nextTaskID
		for i := range j.tasks {
			j.tasks[i].ID = j.base + i
		}
		s.nextTaskID += j.size
		j.submitted = s.round
		s.totalWork += j.work
		s.jobs = append(s.jobs, j)
		if _, seen := s.queues[j.tenant]; !seen {
			s.tenants = append(s.tenants, j.tenant)
		}
		s.queues[j.tenant] = append(s.queues[j.tenant], j)
		s.queuedTotal++
		tasks, j.walTasks = j.walTasks, nil
	case EventJoin:
		ws, err := s.f.buildStation(s.nextStation)
		if err != nil {
			return err
		}
		s.nextStation++
		ev.Station = s.core.Join(ws)
		s.joined++
	case EventLeave:
		if !s.core.Leave(ev.Station) {
			return nil
		}
		s.departed++
	case EventCrash:
		// Unlike a leave, an orphaned group's queued tasks are lost.
		if !s.core.Crash(ev.Station) {
			return nil
		}
		s.crashed++
	case EventCheckpoint:
		ticks, err := checkpointTicks(s.f.g, ev.Checkpoint)
		if err != nil {
			return fmt.Errorf("%w (logged at round %d)", err, ev.Round)
		}
		s.core.SetCheckpoint(ticks, ev.Adaptive)
	case EventKill:
		s.logEvent(ev, nil)
		if err := s.flushWAL(); err != nil {
			return err
		}
		return ErrSchedulerKilled
	default:
		return fmt.Errorf("fleet: unknown event kind %d", int(ev.Kind))
	}
	s.logEvent(ev, tasks)
	return nil
}

// sample runs one round's churn and crash sampling: each live slot (a
// station's slot is its ID) leaves with LeaveProb, floored at MinStations;
// one station joins with JoinProb, capped at MaxStations; then the fault
// plan crashes stations. Every outcome is logged, so a replay, which
// samples nothing, applies the logged outcomes here instead.
func (s *Service) sample() error {
	if !s.log.regen {
		if err := s.applyLogged(true); err != nil {
			return err
		}
	}
	if cc := s.cfg.Churn; s.churn != nil {
		for slot := 0; cc.LeaveProb > 0 && slot < s.nextStation && s.core.Live() > s.minStations; slot++ {
			if s.core.Alive(slot) && s.churn.Float64() < cc.LeaveProb {
				_ = s.applyEvent(ServiceEvent{Kind: EventLeave, Station: slot, Sampled: true}, nil) // a leave cannot fail
			}
		}
		if cc.JoinProb > 0 && s.core.Live() < s.maxStations && s.churn.Float64() < cc.JoinProb {
			if err := s.applyEvent(ServiceEvent{Kind: EventJoin, Sampled: true}, nil); err != nil {
				return err
			}
		}
	}
	for _, slot := range s.core.ApplyFaults(s.round, nil) {
		s.crashed++
		s.logEvent(ServiceEvent{Round: s.round, Kind: EventCrash, Station: slot, Sampled: true}, nil)
	}
	return nil
}

// activate moves queued jobs into the active set, round-robin across
// tenants in first-submission order, until MaxActive jobs multiplex. An
// activated job's tasks are dealt into the fleet's group queues, which copy
// them, so the job lets go of its own: from then on it is counted by its
// size.
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
			j.tasks = nil
			s.active = append(s.active, j)
			break
		}
	}
}

// collect attributes the round's completed and lost tasks back to their
// jobs, flushes and syncs the write-ahead log (the round barrier is the
// durability point), settles jobs with every task accounted for, and
// advances the round counter. A live round writes every record at its top
// and collect writes none, so a job's Done closes only once every record
// of its finishing round is durable. When the log fails, no job settles;
// the service stops with the error. Jobs own contiguous task-ID ranges, so
// attribution is a range lookup over the active set.
func (s *Service) collect() {
	s.doneBuf = s.core.TakeCompleted(s.doneBuf[:0])
	for _, t := range s.doneBuf {
		if j := s.activeFor(t.ID); j != nil {
			j.doneTasks++
			j.doneWork += t.Duration
		}
	}
	s.collectLost()
	if s.flushWAL() == nil {
		s.settle()
	}
	s.round++
	if c := &s.log; c.pos < len(c.events) && c.events[c.pos].Round < s.round && s.walErr == nil {
		// An event the log recorded for a finished round never reproduced:
		// the session is not the original run.
		ev := c.events[c.pos]
		s.walErr = fmt.Errorf("fleet: event log diverged: logged %s event at round %d never reproduced (an edited log, or different seeds or config than the original run?)", ev.Kind, ev.Round)
	}
}

// activeFor finds the active job owning a task ID.
func (s *Service) activeFor(id int) *svcJob {
	for _, j := range s.active {
		if id >= j.base && id < j.base+j.size {
			return j
		}
	}
	return nil
}

// collectLost attributes fault-destroyed tasks to their jobs.
func (s *Service) collectLost() {
	// Unconditional: a replayed crash destroys tasks even when the replaying
	// session itself carries no fault plan.
	s.lostBuf = s.core.TakeLost(s.lostBuf[:0])
	for _, t := range s.lostBuf {
		if j := s.activeFor(t.ID); j != nil {
			j.lostTasks++
		}
	}
}

// settle retires the active jobs whose every task is accounted for —
// completed, or lost for good — and closes their Done. Call it once the
// records of the round are durable.
func (s *Service) settle() {
	kept := s.active[:0]
	for _, j := range s.active {
		if j.doneTasks+j.lostTasks < j.size {
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
// stop (a scheduler kill, a WAL failure). Before it reports nothing to do
// it flushes the write-ahead log, so the ops a round top applied without
// playing are durable before a Drain returns or the live loop sleeps. A
// round it plays, or one that wipes out the fleet, is made durable before
// any of its jobs settles.
func (s *Service) step(ctx context.Context) (done bool, err error) {
	if s.walErr != nil {
		return true, s.walErr
	}
	if !s.log.active(s.round) {
		s.log = logCursor{} // the log is spent: live ops, sampling and kills
		if in := s.core.Faults(); in != nil && in.KillsAt(s.round) {
			// The scheduler dies at this round top: nothing of the round
			// runs, and the durable log closes with a kill record that
			// RecoverService rebuilds the session from. (A recovery with
			// the same plan must raise or clear KillRound, or it re-kills.)
			return true, s.applyEvent(ServiceEvent{Kind: EventKill, Sampled: true}, nil)
		}
	}
	if err := s.applyOps(); err != nil {
		return true, err
	}
	if s.walErr != nil {
		return true, s.walErr
	}
	hasWork := len(s.active) > 0 || s.queuedTotal > 0 || s.core.Pending() > 0
	if !hasWork {
		if c := &s.log; c.pos < len(c.events) && c.events[c.pos].Round > s.round {
			// Defensive round jump for a foreign log: a live service's
			// rounds only advance while work plays, so its own stamps never
			// land in a gap — but an edited log can still be followed; idle
			// rounds fast-forward to the next event.
			s.round = c.events[c.pos].Round
			return false, nil
		}
		return true, s.flushWAL()
	}
	if s.core.Live() == 0 {
		// A dead fleet plays nothing; work waits for a join.
		return true, s.flushWAL()
	}
	if s.cfg.MaxRounds > 0 && s.round >= s.cfg.MaxRounds {
		return true, s.flushWAL()
	}
	if err := s.sample(); err != nil {
		return true, err
	}
	if s.core.Live() == 0 {
		// The plan wiped out the fleet this round: whatever its queues held
		// is already lost; make the round durable, settle those jobs and
		// idle awaiting joins — or, following a log, go on to the join it
		// applied next.
		s.collectLost()
		if s.flushWAL() == nil {
			s.settle()
		}
		return !s.log.due(s.round, false), s.walErr
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
		if o.job != nil && o.job.err == nil {
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
// their recorded rounds. A submit's Ticks are read on cfg's grid and dealt
// as they are; a tick below 1 or a job whose total overflows the grid fails
// the replay, naming the task and the logged job. The result — job outcomes, fleet accounting, even
// the re-logged event sequence — is bit-identical to the original at any
// Workers setting, a replayed kill re-killing the replay with
// ErrSchedulerKilled. Like a recovery, the replay checks every event
// against the log: an event that does not apply (a leave of a slot that
// is not live) or does not reproduce (a join whose Station is not the slot
// it opens) fails it with an error naming the round and the kind. (The
// Replay type is the unrelated trace-driven owner for batch runs.)
func ReplayService(ctx context.Context, cfg ServiceConfig, events []ServiceEvent) (ServiceResult, error) {
	cfg.Churn.LeaveProb = 0
	cfg.Churn.JoinProb = 0
	cfg.Fleet.Faults = FaultPlan{}
	if n := len(events); n > 0 && events[n-1].Kind == EventKill {
		cfg.Fleet.Faults.KillRound = events[n-1].Round
	}
	s, err := NewService(cfg)
	if err != nil {
		return ServiceResult{}, err
	}
	s.follow(events, false)
	res, err := s.Drain(ctx)
	if c := &s.log; err == nil && c.pos < len(c.events) {
		err = fmt.Errorf("fleet: replay stopped at round %d, short of the logged %s event at round %d", s.round, c.events[c.pos].Kind, c.events[c.pos].Round)
	}
	return res, err
}

// follow points the session at a recorded log, which it reproduces up to
// the round of its last event: a closing kill record is dropped, for the
// fault plan to repeat or not. regen selects a recovery, which regenerates
// the log's sampled events instead of applying them. Live submissions get
// IDs past every logged job's.
func (s *Service) follow(events []ServiceEvent, regen bool) {
	to := 0
	if n := len(events); n > 0 {
		to = events[n-1].Round
		if events[n-1].Kind == EventKill {
			events = events[:n-1]
		}
	}
	for _, ev := range events {
		if ev.Kind == EventSubmit {
			s.nextJobID = max(s.nextJobID, ev.JobID+1)
		}
	}
	s.log = logCursor{events: events, to: to, regen: regen}
}
