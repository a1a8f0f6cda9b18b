package fleet

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// serviceFleet is the standing fleet the service tests run on: small enough
// to be fast, sharded enough to exercise the group engine.
func serviceFleet(workers int) Config {
	return Config{Stations: 12, Setup: 5, Opportunities: 40, Seed: 9, Workers: workers, Shards: 4}
}

func serviceJob() Job { return Job{Tasks: ExponentialTasks(400, 12, 3)} }

func TestServiceValidation(t *testing.T) {
	base := serviceFleet(1)
	cases := []struct {
		name string
		cfg  ServiceConfig
		want string
	}{
		{"private pool", ServiceConfig{Fleet: func() Config { c := base; c.Pool = Private; return c }()}, "Private pool"},
		{"clusters", ServiceConfig{Fleet: func() Config { c := base; c.Clusters = 2; return c }()}, "clusters"},
		{"leave prob", ServiceConfig{Fleet: base, Churn: ChurnConfig{LeaveProb: 1}}, "leave probability"},
		{"join prob", ServiceConfig{Fleet: base, Churn: ChurnConfig{JoinProb: -0.1}}, "join probability"},
		{"max active", ServiceConfig{Fleet: base, MaxActive: -1}, "max active"},
		{"max rounds", ServiceConfig{Fleet: base, MaxRounds: -1}, "max rounds"},
	}
	for _, tc := range cases {
		if _, err := NewService(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}

	s, err := NewService(ServiceConfig{Fleet: base})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("t", Job{}); err == nil {
		t.Error("empty job submission should be rejected")
	}
}

// TestServiceZeroChurnPinsBatch is the tentpole pin: a zero-churn,
// zero-checkpoint service run on one job is bit-identical to the batch
// deterministic engine on the same Config — at any Workers setting — and
// its aggregate accounting matches batch Run when the job completes.
func TestServiceZeroChurnPinsBatch(t *testing.T) {
	job := serviceJob()
	var first ServiceResult
	for i, workers := range []int{1, 8} {
		cfg := serviceFleet(workers)
		s, err := NewService(ServiceConfig{Fleet: cfg, MaxRounds: cfg.Opportunities})
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Submit("tenant", job)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := f.RunDeterministic(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Fleet, batch) {
			t.Fatalf("workers=%d: service fleet result diverges from batch RunDeterministic:\nservice: %+v\nbatch:   %+v", workers, res.Fleet, batch)
		}
		if batch.TasksLeft == 0 {
			// The job completed: Run's aggregate accounting must agree too.
			run, err := f.Run(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			if run.TasksCompleted != res.Fleet.TasksCompleted || run.TaskWork != res.Fleet.TaskWork {
				t.Fatalf("workers=%d: batch Run disagrees on completed totals: run %d/%g, service %d/%g",
					workers, run.TasksCompleted, run.TaskWork, res.Fleet.TasksCompleted, res.Fleet.TaskWork)
			}
			jr, err := h.Result()
			if err != nil || !jr.Completed {
				t.Fatalf("workers=%d: job handle should be complete: %+v, err %v", workers, jr, err)
			}
			select {
			case <-h.Done():
			default:
				t.Fatalf("workers=%d: handle Done not closed for completed job", workers)
			}
		}
		if i == 0 {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Fatalf("service result differs between Workers settings:\nw=1: %+v\nw=%d: %+v", first, workers, res)
		}
	}
}

// churnedConfig is a service run with everything on: churn, an initial
// checkpoint interval, several tenants — the replay stress shape.
func churnedConfig(workers int) ServiceConfig {
	cfg := serviceFleet(workers)
	cfg.Checkpoint = 12
	return ServiceConfig{
		Fleet:     cfg,
		MaxActive: 2,
		MaxRounds: 60,
		Churn:     ChurnConfig{LeaveProb: 0.10, JoinProb: 0.25, MinStations: 4, Seed: 41},
	}
}

// runChurned drives the churned scenario: two tenants, a mid-run checkpoint
// policy change, explicit join/leave on top of sampled churn.
func runChurned(t *testing.T, cfg ServiceConfig) ServiceResult {
	t.Helper()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("ana", Job{Tasks: ExponentialTasks(150, 12, 3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("bo", Job{Tasks: ExponentialTasks(90, 20, 4)}); err != nil {
		t.Fatal(err)
	}
	s.JoinStation()
	if _, err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Second phase at a later round: a policy switch to adaptive
	// checkpointing, one departure, more work.
	if err := s.SetCheckpoint(0, true); err != nil {
		t.Fatal(err)
	}
	s.LeaveStation(0)
	if _, err := s.Submit("ana", Job{Tasks: ExponentialTasks(120, 15, 5)}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServiceReplayBitIdentical is the acceptance pin: a churned,
// checkpointed service run replays bit-identically from its event log at
// Workers 1 vs 8 — and the live run itself is already bit-identical across
// Workers settings.
func TestServiceReplayBitIdentical(t *testing.T) {
	res1 := runChurned(t, churnedConfig(1))
	res8 := runChurned(t, churnedConfig(8))
	if !reflect.DeepEqual(res1, res8) {
		t.Fatal("live service run differs between Workers 1 and 8")
	}
	if res1.Joined == 0 && res1.Departed == 0 {
		t.Fatal("scenario sampled no churn; the replay pin would be vacuous")
	}
	hasKind := func(k EventKind) bool {
		for _, ev := range res1.Events {
			if ev.Kind == k {
				return true
			}
		}
		return false
	}
	for _, k := range []EventKind{EventSubmit, EventJoin, EventLeave, EventCheckpoint} {
		if !hasKind(k) {
			t.Fatalf("event log never recorded a %v event; scenario too weak", k)
		}
	}

	for _, workers := range []int{1, 8} {
		cfg := churnedConfig(workers)
		rep, err := ReplayService(context.Background(), cfg, res1.Events)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, res1) {
			t.Fatalf("replay at workers=%d diverges from the recorded run:\nreplay: %+v\nlive:   %+v", workers, rep, res1)
		}
	}
}

// TestServiceChurnDrainsLeavingStations pins the churn contract: with heavy
// departures the job still completes — a leaving station's queued tasks
// migrate instead of stranding.
func TestServiceChurnDrainsLeavingStations(t *testing.T) {
	cfg := serviceFleet(0)
	s, err := NewService(ServiceConfig{
		Fleet: cfg,
		Churn: ChurnConfig{LeaveProb: 0.3, MinStations: 2, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("t", Job{Tasks: FixedTasks(200, 10)}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Departed == 0 {
		t.Fatal("no station departed; churn pin is vacuous")
	}
	if res.Fleet.TasksLeft != 0 || !res.Jobs[0].Completed {
		t.Fatalf("departures stranded work: %d tasks left, job %+v", res.Fleet.TasksLeft, res.Jobs[0])
	}
	st := s.Stats()
	if st.Stations != cfg.Stations-res.Departed {
		t.Fatalf("stats live count %d, want %d", st.Stations, cfg.Stations-res.Departed)
	}
}

// TestServiceDeadFleetParksWork pins the dead-fleet contract: with every
// station departed, Drain returns instead of spinning, and a later join
// picks the parked work back up.
func TestServiceDeadFleetParksWork(t *testing.T) {
	cfg := Config{Stations: 2, Setup: 5, Seed: 3}
	s, err := NewService(ServiceConfig{Fleet: cfg})
	if err != nil {
		t.Fatal(err)
	}
	s.LeaveStation(0)
	s.LeaveStation(1)
	if _, err := s.Submit("t", Job{Tasks: FixedTasks(50, 10)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var res ServiceResult
	go func() {
		defer close(done)
		res, err = s.Drain(context.Background())
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain hung on a dead fleet")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Completed {
		t.Fatal("job completed with zero live stations")
	}
	s.JoinStation()
	res2, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Jobs[0].Completed || res2.Fleet.TasksLeft != 0 {
		t.Fatalf("rejoined fleet should finish the parked job: %+v (%d left)", res2.Jobs[0], res2.Fleet.TasksLeft)
	}
}

// TestServiceAdmissionAndFairness pins per-tenant admission (the queue
// bound rejects, not blocks) and round-robin activation across tenants.
func TestServiceAdmissionAndFairness(t *testing.T) {
	cfg := serviceFleet(0)
	s, err := NewService(ServiceConfig{Fleet: cfg, MaxActive: 1, MaxQueuedPerTenant: 2})
	if err != nil {
		t.Fatal(err)
	}
	small := Job{Tasks: FixedTasks(30, 10)}
	a1, err := s.Submit("ana", small)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Submit("ana", small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("ana", small); err == nil {
		t.Fatal("third queued job for one tenant should be rejected")
	}
	b1, err := s.Submit("bo", small)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]JobResult{}
	for _, j := range res.Jobs {
		if !j.Completed {
			t.Fatalf("job %d did not complete: %+v", j.ID, j)
		}
		byID[j.ID] = j
	}
	// With one active slot, fairness interleaves the tenants: ana's first
	// job, then bo's, then ana's second.
	if !(byID[a1.ID].FinishedRound <= byID[b1.ID].FinishedRound && byID[b1.ID].FinishedRound <= byID[a2.ID].FinishedRound) {
		t.Fatalf("activation was not round-robin across tenants: ana1 %d, bo1 %d, ana2 %d",
			byID[a1.ID].FinishedRound, byID[b1.ID].FinishedRound, byID[a2.ID].FinishedRound)
	}
}

// serviceCancellation runs a live service against a big fleet and job mix,
// cancels mid-flight, and asserts a prompt ctx.Err() from Wait, failed
// handles, and zero leaked goroutines.
func serviceCancellation(t *testing.T, cfg ServiceConfig, jobs []Job) {
	t.Helper()
	check := leakCheck(t)
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	handles := make([]*JobHandle, 0, len(jobs))
	for i, j := range jobs {
		h, err := s.Submit("tenant", j)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	time.AfterFunc(5*time.Millisecond, cancel)
	start := time.Now()
	_, err = s.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from Wait, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown not prompt: %v", elapsed)
	}
	for i, h := range handles {
		select {
		case <-h.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("handle %d not released on shutdown", i)
		}
		if _, err := h.Result(); !errors.Is(err, context.Canceled) {
			t.Fatalf("handle %d: want context.Canceled, got %v", i, err)
		}
	}
	if _, err := s.Submit("tenant", jobs[0]); err == nil {
		t.Fatal("submission after shutdown should be rejected")
	}
	check()
}

// bigServiceFleet cannot finish its jobs in the few milliseconds before the
// shutdown tests cancel it.
func bigServiceFleet() Config {
	return Config{Stations: 500, Setup: 5, Seed: 5, Shards: 64}
}

func TestServiceShutdownMidJob(t *testing.T) {
	serviceCancellation(t, ServiceConfig{Fleet: bigServiceFleet()},
		[]Job{{Tasks: FixedTasks(500000, 10)}, {Tasks: FixedTasks(500000, 12)}})
}

func TestServiceShutdownMidCheckpoint(t *testing.T) {
	cfg := bigServiceFleet()
	cfg.Checkpoint = 7 // every period saves repeatedly when it can
	serviceCancellation(t, ServiceConfig{Fleet: cfg},
		[]Job{{Tasks: FixedTasks(500000, 10)}})
}

func TestServiceShutdownWithStationsInFlight(t *testing.T) {
	// Heavy churn keeps stations joining and leaving every round, so the
	// cancellation lands with the fleet roster itself mid-change.
	serviceCancellation(t, ServiceConfig{
		Fleet: bigServiceFleet(),
		Churn: ChurnConfig{LeaveProb: 0.2, JoinProb: 0.5, MinStations: 100, Seed: 13},
	}, []Job{{Tasks: FixedTasks(500000, 10)}})
}

// TestServiceLiveMatchesDrain pins the two driving modes to each other: a
// live Start/Wait run over a fixed submission set ends in the same state as
// the paused Drain (live wall-clock interleaving shifts which round a
// submission lands on, so the pin runs the live pass first and replays its
// log through a paused service).
func TestServiceLiveMatchesDrain(t *testing.T) {
	cfg := ServiceConfig{Fleet: serviceFleet(0), MaxRounds: 80}
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit("t", serviceJob())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("live service never finished the job")
	}
	cancel()
	live, _ := s.Wait() // error is the cancellation; the state is what we pin
	rep, err := ReplayService(context.Background(), cfg, live.Events)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Fleet, live.Fleet) || !reflect.DeepEqual(rep.Jobs, live.Jobs) {
		t.Fatalf("paused replay diverges from live run:\nreplay: %+v\nlive:   %+v", rep, live)
	}
}

// TestReplayRefusesEditedLogs pins replay's divergence check: an edited
// log whose event does not apply, or does not reproduce, fails the replay
// with an error naming the round and the kind — instead of dropping the
// event or replaying it under another slot.
func TestReplayRefusesEditedLogs(t *testing.T) {
	cfg := ServiceConfig{Fleet: serviceFleet(1)}
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("t", Job{Tasks: FixedTasks(200, 10)}); err != nil {
		t.Fatal(err)
	}
	s.JoinStation()
	res, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Events[1]; got.Kind != EventJoin || got.Station != 12 {
		t.Fatalf("second event %+v, want the join of slot 12", got)
	}
	edit := func(i int, ev ServiceEvent) []ServiceEvent {
		evs := append([]ServiceEvent(nil), res.Events...)
		evs[i] = ev
		return evs
	}
	for _, tc := range []struct {
		name   string
		events []ServiceEvent
		want   []string
	}{
		{"leave of a slot that never joined", edit(1, ServiceEvent{Round: 0, Kind: EventLeave, Station: 40}), []string{"round 0", "leave"}},
		{"join of another slot", edit(1, ServiceEvent{Round: 0, Kind: EventJoin, Station: 3}), []string{"round 0", "join"}},
	} {
		_, err := ReplayService(context.Background(), cfg, tc.events)
		for _, want := range tc.want {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: replay error %v, want one naming %q", tc.name, err, want)
			}
		}
	}
}
