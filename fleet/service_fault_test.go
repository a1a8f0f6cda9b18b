package fleet

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// faultedConfig is the recovery stress shape: churn, checkpointing, split
// checkpoint costs and random station crashes all on, plus an optional
// scheduler kill and durable log.
func faultedConfig(workers, kill int, wal *bytes.Buffer) ServiceConfig {
	cfg := serviceFleet(workers)
	cfg.Checkpoint = 12
	cfg.CheckpointSaveCost = 3
	cfg.CheckpointRestartCost = 2
	cfg.Faults = FaultPlan{Seed: 7, CrashProb: 0.02, KillRound: kill}
	sc := ServiceConfig{
		Fleet:     cfg,
		MaxActive: 2,
		MaxRounds: 120,
		Churn:     ChurnConfig{LeaveProb: 0.05, JoinProb: 0.20, MinStations: 4, Seed: 41},
	}
	if wal != nil {
		sc.WAL = wal
	}
	return sc
}

// runFaulted drives the faulted scenario: two tenants' jobs submitted up
// front, drained until idle, killed, or out of rounds.
func runFaulted(t *testing.T, cfg ServiceConfig) (ServiceResult, *JobHandle, error) {
	t.Helper()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit("ana", Job{Tasks: ExponentialTasks(12000, 12, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("bo", Job{Tasks: ExponentialTasks(8000, 20, 4)}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Drain(context.Background())
	return res, h, err
}

// TestServiceKillRecoverBitIdentical is the acceptance pin: a churned,
// checkpointed, crash-faulted session killed at an arbitrary round and
// rebuilt from its durable log completes bit-identically to the session
// that was never killed — at any Workers setting.
func TestServiceKillRecoverBitIdentical(t *testing.T) {
	want, _, err := runFaulted(t, faultedConfig(1, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if want.Crashed == 0 {
		t.Fatal("scenario sampled no crashes; the recovery pin would be vacuous")
	}
	if want.Rounds < 4 {
		t.Fatalf("scenario too short to kill mid-run: %d rounds", want.Rounds)
	}
	for _, workers := range []int{1, 8} {
		for _, kill := range []int{1, want.Rounds / 2, want.Rounds - 1} {
			var wal bytes.Buffer
			killed, h, err := runFaulted(t, faultedConfig(workers, kill, &wal))
			if !errors.Is(err, ErrSchedulerKilled) {
				t.Fatalf("workers=%d kill=%d: Drain error %v, want ErrSchedulerKilled", workers, kill, err)
			}
			if killed.Rounds != kill {
				t.Fatalf("workers=%d: killed at round %d, want %d", workers, killed.Rounds, kill)
			}
			// The handle fails with the kill — unless the job already
			// settled (completed, or lost tasks to a crash) beforehand.
			if jr, herr := h.Result(); !jr.Completed && !errors.Is(herr, ErrSchedulerKilled) && !errors.Is(herr, ErrTasksLost) {
				t.Fatalf("workers=%d kill=%d: unfinished handle error %v, want ErrSchedulerKilled or ErrTasksLost", workers, kill, herr)
			}
			evs, err := ReadWAL(bytes.NewReader(wal.Bytes()))
			if err != nil {
				t.Fatalf("workers=%d kill=%d: WAL does not decode: %v", workers, kill, err)
			}
			if len(evs) == 0 || evs[len(evs)-1].Kind != EventKill || evs[len(evs)-1].Round != kill {
				t.Fatalf("workers=%d kill=%d: WAL does not end with the kill record: %+v", workers, kill, evs[len(evs)-1:])
			}

			s, err := RecoverService(faultedConfig(workers, 0, nil), bytes.NewReader(wal.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Drain(context.Background())
			if err != nil {
				t.Fatalf("workers=%d kill=%d: recovered Drain: %v", workers, kill, err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("workers=%d kill=%d: recovered run diverges from the uninterrupted one:\nrecovered: %+v\nwant:      %+v", workers, kill, res, want)
			}
		}
	}
}

// TestServiceRecoverThenCrashAgain chains recoveries: kill, recover into a
// second kill, recover again from the second log, and still land exactly on
// the uninterrupted run.
func TestServiceRecoverThenCrashAgain(t *testing.T) {
	want, _, err := runFaulted(t, faultedConfig(1, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := want.Rounds/3, 2*want.Rounds/3
	if k1 < 1 || k2 <= k1 {
		t.Fatalf("scenario too short for two kills: %d rounds", want.Rounds)
	}
	var wal1 bytes.Buffer
	if _, _, err := runFaulted(t, faultedConfig(1, k1, &wal1)); !errors.Is(err, ErrSchedulerKilled) {
		t.Fatalf("first kill: %v", err)
	}
	// Recover with the kill round raised: the rebuilt session dies again
	// later, its own WAL carrying the full history.
	var wal2 bytes.Buffer
	cfg2 := faultedConfig(1, k2, &wal2)
	s, err := RecoverService(cfg2, bytes.NewReader(wal1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Drain(context.Background()); !errors.Is(err, ErrSchedulerKilled) {
		t.Fatalf("second kill: %v", err)
	}
	s2, err := RecoverService(faultedConfig(1, 0, nil), bytes.NewReader(wal2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatal("twice-recovered run diverges from the uninterrupted one")
	}
}

// TestServiceInactiveFaultsAndWALPinned is the compatibility pin: an
// inactive fault plan and an attached WAL change nothing about the run —
// bit-identical to the plain churned service — and the WAL decodes back to
// exactly the run's event log.
func TestServiceInactiveFaultsAndWALPinned(t *testing.T) {
	want := runChurned(t, churnedConfig(1))
	cfg := churnedConfig(1)
	cfg.Fleet.Faults = FaultPlan{StealRetries: 5} // set but inactive
	var wal bytes.Buffer
	cfg.WAL = &wal
	got := runChurned(t, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("inactive fault plan or WAL perturbed the service run")
	}
	evs, err := ReadWAL(bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, want.Events) {
		t.Fatalf("WAL round-trip diverges from the event log:\nwal: %+v\nlog: %+v", evs, want.Events)
	}
}

// TestServiceCrashLosesQueuedWork pins the crash-vs-leave contract at the
// service level: crashing every station of one steal group destroys its
// queued tasks — the job settles with ErrTasksLost, every task accounted
// for — while the service itself keeps running.
func TestServiceCrashLosesQueuedWork(t *testing.T) {
	cfg := serviceFleet(0)
	// Groups = 4 over 12 stations: slots 0, 4 and 8 form group 0.
	cfg.Faults = FaultPlan{Crashes: []StationCrash{
		{Round: 2, Station: 0}, {Round: 2, Station: 4}, {Round: 2, Station: 8},
	}}
	s, err := NewService(ServiceConfig{Fleet: cfg})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit("t", Job{Tasks: FixedTasks(5000, 10)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Drain(context.Background())
	if err != nil {
		t.Fatalf("a crash-lossy run should drain cleanly, got %v", err)
	}
	if res.Crashed != 3 {
		t.Fatalf("Crashed = %d, want 3", res.Crashed)
	}
	jr, herr := h.Result()
	if !errors.Is(herr, ErrTasksLost) {
		t.Fatalf("job handle error %v, want ErrTasksLost", herr)
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("handle Done not closed for a settled lossy job")
	}
	if jr.Completed || jr.TasksLost == 0 {
		t.Fatalf("job result %+v: want incomplete with lost tasks", jr)
	}
	if jr.TasksCompleted+jr.TasksLost != jr.Tasks {
		t.Fatalf("job conservation broken: %d done + %d lost != %d", jr.TasksCompleted, jr.TasksLost, jr.Tasks)
	}
	if got := res.Fleet.TasksCompleted + res.Fleet.TasksLeft + res.Fleet.TasksLost; got != 5000 {
		t.Fatalf("fleet conservation broken: %d accounted of 5000", got)
	}
	if res.Fleet.TasksLost != jr.TasksLost {
		t.Fatalf("fleet lost %d, job lost %d", res.Fleet.TasksLost, jr.TasksLost)
	}
	st := s.Stats()
	if st.Crashed != 3 || st.TasksLost != jr.TasksLost {
		t.Fatalf("stats %+v disagree with result", st)
	}
	// Crash events carry the sampled mark and replay bit-identically.
	rep, err := ReplayService(context.Background(), ServiceConfig{Fleet: cfg}, res.Events)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, res) {
		t.Fatal("crash-lossy run does not replay bit-identically")
	}
}

// TestServiceFaultWipeoutSettlesJobs pins the wipeout branch: a plan that
// crashes the whole fleet in one round loses everything queued, settles the
// jobs immediately, and leaves the service idle rather than spinning.
func TestServiceFaultWipeoutSettlesJobs(t *testing.T) {
	cfg := serviceFleet(0)
	var crashes []StationCrash
	for s := 0; s < cfg.Stations; s++ {
		crashes = append(crashes, StationCrash{Round: 1, Station: s})
	}
	cfg.Faults = FaultPlan{Crashes: crashes}
	s, err := NewService(ServiceConfig{Fleet: cfg})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit("t", Job{Tasks: FixedTasks(5000, 10)})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("wipeout drain did not return promptly")
	}
	if res.Crashed != cfg.Stations {
		t.Fatalf("Crashed = %d, want %d", res.Crashed, cfg.Stations)
	}
	if _, herr := h.Result(); !errors.Is(herr, ErrTasksLost) {
		t.Fatalf("job handle error %v, want ErrTasksLost", herr)
	}
	if got := res.Fleet.TasksCompleted + res.Fleet.TasksLost; got != 5000 {
		t.Fatalf("wipeout accounting: %d done + lost of 5000 (left %d)", got, res.Fleet.TasksLeft)
	}
	if st := s.Stats(); st.Stations != 0 || st.TasksPending != 0 {
		t.Fatalf("dead fleet stats %+v", st)
	}
}

// TestServiceRecoverLive drives a recovery through the live Start/Wait
// loop instead of Drain, leak-checked: the rebuilt session replays, then
// serves, then shuts down without leaving goroutines behind.
func TestServiceRecoverLive(t *testing.T) {
	defer leakCheck(t)()
	want, _, err := runFaulted(t, faultedConfig(1, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	kill := want.Rounds / 2
	var wal bytes.Buffer
	if _, _, err := runFaulted(t, faultedConfig(1, kill, &wal)); !errors.Is(err, ErrSchedulerKilled) {
		t.Fatal(err)
	}
	s, err := RecoverService(faultedConfig(1, 0, nil), bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s.Stats()
		// Jobs that lost tasks settle without ever counting as finished, so
		// idle here means "caught up to the uninterrupted run, nothing left".
		if st.Round >= want.Rounds && st.ActiveJobs == 0 && st.QueuedJobs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered live loop never went idle: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	res, err := s.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait error %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(res.Jobs, want.Jobs) || !reflect.DeepEqual(res.Fleet, want.Fleet) {
		t.Fatal("live recovery diverges from the uninterrupted run")
	}
}

// TestServiceRecoverMismatchFailsLoudly pins the divergence check: a
// recovery under different churn seeds cannot silently produce a different
// session — the regenerated events fail the log comparison.
func TestServiceRecoverMismatchFailsLoudly(t *testing.T) {
	want, _, err := runFaulted(t, faultedConfig(1, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	var wal bytes.Buffer
	if _, _, err := runFaulted(t, faultedConfig(1, want.Rounds/2, &wal)); !errors.Is(err, ErrSchedulerKilled) {
		t.Fatal(err)
	}
	cfg := faultedConfig(1, 0, nil)
	cfg.Churn.Seed = 999 // not the seed the log was sampled under
	s, err := RecoverService(cfg, bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Drain(context.Background()); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("mismatched recovery error %v, want divergence", err)
	}
}

// TestServiceWALWriteErrorStops pins the durability contract: an event that
// cannot be made durable stops the service instead of taking effect
// silently — at a round barrier, and at an idle round top that plays no
// round.
func TestServiceWALWriteErrorStops(t *testing.T) {
	cfg := churnedConfig(1)
	w := &failAfter{} // every write fails; the first round-barrier flush hits it
	cfg.WAL = w
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("t", Job{Tasks: FixedTasks(500, 10)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Drain(context.Background()); err == nil || !strings.Contains(err.Error(), "write-ahead log") {
		t.Fatalf("Drain error %v, want a write-ahead log failure", err)
	}

	idle, err := NewService(ServiceConfig{Fleet: serviceFleet(1), WAL: &failAfter{}})
	if err != nil {
		t.Fatal(err)
	}
	idle.JoinStation()
	if _, err := idle.Drain(context.Background()); err == nil || !strings.Contains(err.Error(), "write-ahead log") {
		t.Fatalf("idle Drain error %v, want a write-ahead log failure", err)
	}
	if _, err := idle.Submit("t", Job{Tasks: FixedTasks(5, 10)}); err == nil || !strings.Contains(err.Error(), "stopped") {
		t.Fatalf("Submit after the idle flush failed: error %v, want the stopped service's", err)
	}
}

// failAfter is an io.Writer that fails every write after the first n.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestServiceFaultValidation covers the facade's fault checks.
func TestServiceFaultValidation(t *testing.T) {
	base := serviceFleet(1)
	bad := base
	bad.Faults = FaultPlan{CrashProb: 1.5}
	if _, err := NewService(ServiceConfig{Fleet: bad}); err == nil || !strings.Contains(err.Error(), "crash probability") {
		t.Errorf("crash prob: %v", err)
	}
	loss := base
	loss.Faults = FaultPlan{LossProb: 0.1}
	if _, err := New(loss); err == nil || !strings.Contains(err.Error(), "parcel loss") {
		t.Errorf("loss without clusters: %v", err)
	}
	// Replicate refuses active plans; Run takes them exactly as
	// RunDeterministic does.
	crash := base
	crash.Faults = FaultPlan{Crashes: []StationCrash{{Round: 1, Station: 0}}}
	f, err := New(crash)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Replicate(context.Background(), Job{Tasks: FixedTasks(10, 5)}, 2); err == nil || !strings.Contains(err.Error(), "fault plans") {
		t.Errorf("replicate with faults: %v", err)
	}
	res, err := f.RunDeterministic(context.Background(), Job{Tasks: FixedTasks(200, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted+res.TasksLeft+res.TasksLost != 200 {
		t.Fatalf("batch conservation broken: %+v", res)
	}
	// KillRound is a service concept; the batch engine rejects it.
	kill := base
	kill.Faults = FaultPlan{KillRound: 5}
	fk, err := New(kill)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fk.RunDeterministic(context.Background(), Job{Tasks: FixedTasks(10, 5)}); err == nil || !strings.Contains(err.Error(), "kill") {
		t.Errorf("batch kill round: %v", err)
	}
}

// TestRunTakesFaultPlans pins fault injection on every pool: with a
// scheduled crash, Run is RunDeterministic, bit for bit, work is lost, and
// completed + left + lost is the job. Crashing every station of a shared
// pool's steal group destroys the group's queue; a Private-pool station's
// crash destroys its own.
func TestRunTakesFaultPlans(t *testing.T) {
	ctx := context.Background()
	// More work than one opportunity can finish, so a crash after the first
	// round has queued tasks to destroy.
	job := Job{Tasks: FixedTasks(6000, 10)}
	// Four groups of three: stations 0, 4 and 8 form group 0.
	shared := serviceFleet(4)
	shared.Faults = FaultPlan{Crashes: []StationCrash{{Round: 1, Station: 0}, {Round: 1, Station: 4}, {Round: 1, Station: 8}}}
	private := serviceFleet(4)
	private.Pool = Private
	private.Faults = FaultPlan{Crashes: []StationCrash{{Round: 1, Station: 0}}}
	for _, cfg := range []Config{shared, private} {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		det, err := f.RunDeterministic(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, det) {
			t.Errorf("%v pool: faulted Run and RunDeterministic diverge", cfg.Pool)
		}
		if res.TasksLost == 0 {
			t.Errorf("%v pool: the scheduled crash destroyed nothing", cfg.Pool)
		}
		if res.TasksCompleted+res.TasksLeft+res.TasksLost != len(job.Tasks) {
			t.Errorf("%v pool: conservation broken: %d + %d + %d ≠ %d",
				cfg.Pool, res.TasksCompleted, res.TasksLeft, res.TasksLost, len(job.Tasks))
		}
		if cfg.Pool == Private {
			// Station 0's hand is every 12th task; what it had not completed
			// before the crash died with it.
			if want := len(job.Tasks)/12 - res.Stations[0].TasksCompleted; res.TasksLost != want {
				t.Errorf("private pool: lost %d tasks, want station 0's remaining %d", res.TasksLost, want)
			}
		}
	}
}

// TestRecoverServiceGridMismatch pins the header check: a log quantized on
// a different tick grid is refused, not misread.
func TestRecoverServiceGridMismatch(t *testing.T) {
	var wal bytes.Buffer
	cfg := faultedConfig(1, 2, &wal)
	if _, _, err := runFaulted(t, cfg); !errors.Is(err, ErrSchedulerKilled) {
		t.Fatal(err)
	}
	other := faultedConfig(1, 0, nil)
	other.Fleet.TicksPerSetup = 50
	if _, err := RecoverService(other, bytes.NewReader(wal.Bytes())); err == nil || !strings.Contains(err.Error(), "ticks per setup") {
		t.Fatalf("grid mismatch error %v", err)
	}
}

// TestServiceWipeoutReplaysAndRecovers pins a crash that empties the whole
// fleet: the replay settles the wiped-out job where the live run did (it
// once applied the logged crash at the round top, skipping the settlement),
// and the rejoin queued after the wipeout applies at the same round in the
// live run, the replay and a recovery.
func TestServiceWipeoutReplaysAndRecovers(t *testing.T) {
	cfg := ServiceConfig{
		Fleet:     Config{Stations: 2, Setup: 5, Seed: 3, Faults: FaultPlan{Crashes: []StationCrash{{Round: 1, Station: 0}, {Round: 1, Station: 1}}}},
		MaxActive: 1,
		MaxRounds: 40,
	}
	play := func(s *Service) (ServiceResult, error) {
		t.Helper()
		for _, tenant := range []string{"ana", "bo"} {
			if _, err := s.Submit(tenant, Job{Tasks: FixedTasks(60, 10)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Drain(context.Background()); err != nil {
			return ServiceResult{}, err
		}
		s.JoinStation()
		return s.Drain(context.Background())
	}
	var wal bytes.Buffer
	live := cfg
	live.WAL = &wal
	s, err := NewService(live)
	if err != nil {
		t.Fatal(err)
	}
	want, err := play(s)
	if err != nil {
		t.Fatal(err)
	}
	if want.Crashed != 2 || want.Jobs[0].TasksLost == 0 || want.Joined != 1 || !want.Jobs[1].Completed {
		t.Fatalf("scenario did not wipe out, settle and rejoin: %+v", want)
	}
	rep, err := ReplayService(context.Background(), cfg, want.Events)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("wipeout replay diverges:\nreplay: %+v\nlive:   %+v", rep, want)
	}

	// Killed after the rejoin, the recovery must go on past the wipeout by
	// itself.
	kill := want.Rounds
	killed := cfg
	killed.Fleet.Faults.KillRound = kill
	var klog bytes.Buffer
	killed.WAL = &klog
	ks, err := NewService(killed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := play(ks); !errors.Is(err, ErrSchedulerKilled) {
		t.Fatalf("kill at round %d: %v", kill, err)
	}
	rs, err := RecoverService(cfg, bytes.NewReader(klog.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rs.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wipeout recovery diverges:\nrecovered: %+v\nwant:      %+v", got, want)
	}
}

// TestRecoverServiceSubmitGetsFreshID pins job IDs across a recovery: a job
// submitted before the rebuild has replayed the logged submissions still
// gets an ID past theirs, not a duplicate of one.
func TestRecoverServiceSubmitGetsFreshID(t *testing.T) {
	want, _, err := runFaulted(t, faultedConfig(1, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	var wal bytes.Buffer
	if _, _, err := runFaulted(t, faultedConfig(1, want.Rounds/2, &wal)); !errors.Is(err, ErrSchedulerKilled) {
		t.Fatal(err)
	}
	s, err := RecoverService(faultedConfig(1, 0, nil), bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit("cy", Job{Tasks: FixedTasks(50, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != len(want.Jobs) {
		t.Fatalf("job submitted during recovery got ID %d, want %d (past the %d logged jobs)", h.ID, len(want.Jobs), len(want.Jobs))
	}
	res, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Jobs[:len(want.Jobs)], want.Jobs) || res.Jobs[len(want.Jobs)].ID != h.ID {
		t.Fatalf("recovered jobs %+v, want the uninterrupted run's then job %d", res.Jobs, h.ID)
	}
}
