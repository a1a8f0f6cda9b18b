package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// badDurations are jobs no run can hold: the tick grid cannot represent a
// non-finite or negative duration, or one whose tick count — alone or
// summed over the job — overflows. want names the offending task and the
// cause.
var badDurations = []struct {
	name  string
	tasks []float64
	want  string
}{
	{"NaN", []float64{3, math.NaN()}, "task 1 duration must be ≥ 0 and finite, got NaN"},
	{"+Inf", []float64{math.Inf(1)}, "task 0 duration must be ≥ 0 and finite, got +Inf"},
	{"-Inf", []float64{2, 2, math.Inf(-1)}, "task 2 duration must be ≥ 0 and finite, got -Inf"},
	{"negative", []float64{4, -1}, "task 1 duration must be ≥ 0 and finite, got -1"},
	{"tick overflow", []float64{1e300}, "task 0 duration 1e+300 overflows the tick grid"},
	{"job total overflow", []float64{1, 3e17, 3e17}, "task 2: the job's total duration overflows the tick grid"},
}

// A job with a duration the grid cannot hold is refused at Submit, naming
// the task, instead of stopping the whole WAL'd service at the next round
// top and failing every other tenant's job with it; a valid job submitted
// alongside still completes and the log stays readable.
func TestSubmitRefusesBadDurations(t *testing.T) {
	var wal bytes.Buffer
	// MaxRounds bounds a regression that admits a job of grid-overflowing
	// tasks, which no period could ever fit.
	s, err := NewService(ServiceConfig{Fleet: serviceFleet(0), MaxRounds: 1000, WAL: &wal})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit("ana", serviceJob())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range badDurations {
		if _, err := s.Submit("mallory", Job{Tasks: tc.tasks}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Submit error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	res, err := s.Drain(context.Background())
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if jr, err := h.Result(); err != nil || !jr.Completed {
		t.Fatalf("valid job: completed %v, error %v", jr.Completed, err)
	}
	if len(res.Jobs) != 1 {
		t.Fatalf("%d jobs ran, want only the valid one", len(res.Jobs))
	}
	if evs, err := ReadWAL(bytes.NewReader(wal.Bytes())); err != nil || !reflect.DeepEqual(evs, res.Events) {
		t.Fatalf("WAL does not decode to the run's events (%v)", err)
	}
	for _, j := range s.jobs {
		if j.walTasks != nil {
			t.Errorf("job %d keeps its %d encoded WAL bytes after they were logged", j.id, len(j.walTasks))
		}
	}
}

// Submit quantizes a job once and keeps no copy of the caller's durations:
// its submit event holds the ticks JobTicks gives, and the caller may
// overwrite its slice at once.
func TestSubmitLogsTicks(t *testing.T) {
	f, err := New(serviceFleet(1))
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Tasks: ExponentialTasks(300, 12, 5)}
	want, err := f.JobTicks(job)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewService(ServiceConfig{Fleet: serviceFleet(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("ana", job); err != nil {
		t.Fatal(err)
	}
	for i := range job.Tasks {
		job.Tasks[i] = math.NaN()
	}
	res, err := s.Drain(context.Background())
	if err != nil || !res.Jobs[0].Completed {
		t.Fatalf("Drain: %v, completed %v", err, res.Jobs[0].Completed)
	}
	if got := res.Events[0].Ticks; !slices.Equal(got, want) {
		t.Fatalf("the submit event logged %d ticks %v…, JobTicks gives %v…", len(got), got[:3], want[:3])
	}
}

// A logged submit is dealt from its ticks as they are: a replay refuses a
// tick below 1 or a job whose total overflows the grid, naming the task and
// the logged job, and so does a recovery of a log that holds such a job.
func TestReplayRefusesBadTicks(t *testing.T) {
	ctx := context.Background()
	cfg := ServiceConfig{Fleet: serviceFleet(1)}
	cases := []struct {
		name  string
		ticks []int64
		want  string
	}{
		{"zero tick", []int64{500, 0}, "task 1 duration must be ≥ 1 tick, got 0 (logged job 3, round 0)"},
		{"negative tick", []int64{-5}, "task 0 duration must be ≥ 1 tick, got -5 (logged job 3, round 0)"},
		{"total overflow", []int64{1, math.MaxInt64, 1}, "task 1: the job's total duration overflows the tick grid (logged job 3, round 0)"},
	}
	for _, tc := range cases {
		ev := ServiceEvent{Kind: EventSubmit, Tenant: "ana", JobID: 3, Ticks: tc.ticks}
		if _, err := ReplayService(ctx, cfg, []ServiceEvent{ev}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: replay error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	var log bytes.Buffer
	if err := writeWALHeader(&log, 100); err != nil {
		t.Fatal(err)
	}
	if err := writeEvent(&log, ServiceEvent{Kind: EventSubmit, Tenant: "ana", JobID: 3, Ticks: cases[2].ticks}); err != nil {
		t.Fatal(err)
	}
	s, err := RecoverService(cfg, &log)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Drain(ctx); err == nil || !strings.Contains(err.Error(), cases[2].want) {
		t.Errorf("recovery of an overflowing job: error %v, want one naming %q", err, cases[2].want)
	}
}

// The batch paths share Submit's check: Run, RunDeterministic and Study
// (behind Replicate and the distrib coordinator) refuse the same jobs, on
// every pool — Run quantizes into one hand per group, so Shared (one hand),
// Sharded and Private (one per station) each take their own path there.
func TestRunsRefuseBadDurations(t *testing.T) {
	ctx := context.Background()
	for _, pool := range []Pool{Sharded, Shared, Private} {
		f, err := New(Config{Stations: 4, Setup: 5, Opportunities: 4, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range badDurations {
			job := Job{Tasks: tc.tasks}
			_, runErr := f.Run(ctx, job)
			_, detErr := f.RunDeterministic(ctx, job)
			_, studyErr := f.Study(job, 2)
			for name, err := range map[string]error{"Run": runErr, "RunDeterministic": detErr, "Study": studyErr} {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s pool, %s: %s error %v, want one naming %q", pool, tc.name, name, err, tc.want)
				}
			}
		}
	}
}

// badIntervals are checkpoint intervals no service can apply and log: a
// negative one (once applied as 0 but logged as given, which ReadWAL then
// refused), a NaN or infinite one (which the WAL cannot encode), and one
// whose tick count overflows the grid (once applied as a 1-tick interval).
var badIntervals = []struct {
	name     string
	interval float64
	want     string
}{
	{"negative", -1, "≥ 0 and finite, got -1"},
	{"NaN", math.NaN(), "got NaN"},
	{"+Inf", math.Inf(1), "got +Inf"},
	{"tick overflow", 1e300, "1e+300 overflows the tick grid"},
}

// SetCheckpoint refuses an interval the log cannot hold, naming the cause
// and queueing nothing, so the session and its WAL go on as if it was never
// called; a replay refuses the same interval in a caller-built event.
func TestSetCheckpointRefusesBadIntervals(t *testing.T) {
	ctx := context.Background()
	for _, tc := range badIntervals {
		var wal bytes.Buffer
		cfg := ServiceConfig{Fleet: serviceFleet(1), WAL: &wal}
		s, err := NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetCheckpoint(tc.interval, false); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: SetCheckpoint error %v, want one naming %q", tc.name, err, tc.want)
		}
		if _, err := s.Submit("ana", Job{Tasks: FixedTasks(200, 10)}); err != nil {
			t.Fatal(err)
		}
		res, err := s.Drain(ctx)
		if err != nil {
			t.Fatalf("%s: Drain: %v", tc.name, err)
		}
		if len(res.Events) != 1 || !res.Jobs[0].Completed {
			t.Fatalf("%s: %d events logged and job completed %v, want the submit alone, completed", tc.name, len(res.Events), res.Jobs[0].Completed)
		}
		if evs, err := ReadWAL(bytes.NewReader(wal.Bytes())); err != nil || !reflect.DeepEqual(evs, res.Events) {
			t.Fatalf("%s: the WAL does not decode to the run's events (%v)", tc.name, err)
		}
		cfg.WAL = nil
		logged := []ServiceEvent{{Kind: EventCheckpoint, Checkpoint: tc.interval}, res.Events[0]}
		if _, err := ReplayService(ctx, cfg, logged); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: replay of a logged checkpoint event: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// Ops that a round top applies without playing a round — a join and a
// checkpoint change on a service with no work — are in the WAL by the time
// a Drain returns, and before the live loop goes to sleep.
func TestIdleOpsAreDurable(t *testing.T) {
	queue := func(s *Service) {
		s.JoinStation()
		if err := s.SetCheckpoint(2, false); err != nil {
			t.Fatal(err)
		}
	}
	var wal bytes.Buffer
	s, err := NewService(ServiceConfig{Fleet: serviceFleet(1), WAL: &wal})
	if err != nil {
		t.Fatal(err)
	}
	queue(s)
	res, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Stations != 13 || len(res.Events) != 2 {
		t.Fatalf("%d stations and %d events after an idle Drain, want 13 and 2", st.Stations, len(res.Events))
	}
	if evs, err := ReadWAL(bytes.NewReader(wal.Bytes())); err != nil || !reflect.DeepEqual(evs, res.Events) {
		t.Fatalf("after an idle Drain the WAL holds %d bytes, which do not decode to the run's events (%v)", wal.Len(), err)
	}

	var live bytes.Buffer
	ls, err := NewService(ServiceConfig{Fleet: serviceFleet(1), WAL: &live})
	if err != nil {
		t.Fatal(err)
	}
	queue(ls)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ls.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// The loop applies both ops at its first round top and flushes under
	// the same hold of the service lock, so once Stats shows the join, the
	// WAL has been written.
	for deadline := time.Now().Add(30 * time.Second); ls.Stats().Stations != 13; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the live loop never applied the join")
		}
	}
	evs, err := ReadWAL(bytes.NewReader(live.Bytes()))
	if err != nil || len(evs) != 2 {
		t.Fatalf("the sleeping live loop's WAL decodes to %d events (%v), want the join and the checkpoint change", len(evs), err)
	}
	cancel()
	if res, _ := ls.Wait(); !reflect.DeepEqual(evs, res.Events) {
		t.Fatalf("the sleeping live loop's WAL held %+v, the run logged %+v", evs, res.Events)
	}
}

// runLogged drives a WAL'd session to its end: a job of distinct
// durations, one of repeats and float edge cases, and (with a kill round
// set) the scheduler kill.
func runLogged(t *testing.T, kill int, wal *bytes.Buffer) (ServiceResult, error) {
	t.Helper()
	s, err := NewService(faultedConfig(1, kill, wal))
	if err != nil {
		t.Fatal(err)
	}
	jobs := map[string]Job{
		"ana":       {Tasks: ExponentialTasks(3000, 12, 3)},
		`<bo&"co">`: {Tasks: append(FixedTasks(2000, 7.5), 0, math.Copysign(0, -1), 1e-7, 1e-7, 5e-324, 123456.125, 123456.125)},
	}
	for _, tenant := range []string{"ana", `<bo&"co">`} {
		if _, err := s.Submit(tenant, jobs[tenant]); err != nil {
			t.Fatal(err)
		}
	}
	return s.Drain(context.Background())
}

// A session's WAL holds exactly json.Marshal's record for every event, and
// the WAL a recovery re-logs, at Workers 1 or 8, is byte-identical to the
// one the uninterrupted session wrote — recovered submits go through the
// same encoder.
func TestServiceWALRecoversByteIdentical(t *testing.T) {
	var full bytes.Buffer
	want, err := runLogged(t, 0, &full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(full.Bytes(), []byte("\n"))
	if len(lines) != len(want.Events)+2 || len(lines[len(lines)-1]) != 0 { // header, events, empty tail
		t.Fatalf("WAL holds %d lines for %d events", len(lines)-1, len(want.Events))
	}
	for i, ev := range want.Events {
		if ref := marshalWALRecord(t, ev); !bytes.Equal(lines[i+1], ref) {
			t.Fatalf("event %d logged as\n%s\nwant\n%s", i, lines[i+1], ref)
		}
	}

	for _, kill := range []int{0, want.Rounds / 2} {
		log := full.Bytes()
		if kill > 0 {
			var killed bytes.Buffer
			if _, err := runLogged(t, kill, &killed); err == nil {
				t.Fatalf("kill %d: session was not killed", kill)
			}
			log = killed.Bytes()
		}
		for _, workers := range []int{1, 8} {
			var relogged bytes.Buffer
			s, err := RecoverService(faultedConfig(workers, 0, &relogged), bytes.NewReader(log))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Drain(context.Background()); err != nil {
				t.Fatalf("kill %d, workers %d: recovered Drain: %v", kill, workers, err)
			}
			if !bytes.Equal(relogged.Bytes(), full.Bytes()) {
				t.Fatalf("kill %d, workers %d: the recovery's WAL (%d bytes) differs from the uninterrupted session's (%d bytes)", kill, workers, relogged.Len(), full.Len())
			}
		}
	}
}

// Tenants submit concurrently into a started, WAL'd, churning service.
// Whatever order their submissions land in, the run is the one its own
// event log replays, and the log decodes to those events. Run it under
// -race.
func TestServiceConcurrentSubmitsReplay(t *testing.T) {
	const tenants, perTenant = 4, 5
	var wal bytes.Buffer
	cfg := ServiceConfig{
		Fleet:              serviceFleet(0),
		MaxQueuedPerTenant: perTenant,
		Churn:              ChurnConfig{LeaveProb: 0.05, JoinProb: 0.2, MinStations: 4, Seed: 3},
		WAL:                &wal,
	}
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	handles := make([][]*JobHandle, tenants)
	var wg sync.WaitGroup
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			for k := 0; k < perTenant; k++ {
				job := Job{Tasks: FixedTasks(40+10*k, float64(3+tn))}
				if k%2 == 1 {
					job = Job{Tasks: ExponentialTasks(60, 10, int64(10*tn+k))}
				}
				h, err := s.Submit(fmt.Sprintf("tenant-%d", tn), job)
				if err != nil {
					t.Errorf("tenant %d job %d: %v", tn, k, err)
					return
				}
				handles[tn] = append(handles[tn], h)
			}
		}(tn)
	}
	wg.Wait()
	for _, hs := range handles {
		for _, h := range hs {
			select {
			case <-h.Done():
			case <-time.After(30 * time.Second):
				t.Fatal("live service never finished a job")
			}
		}
	}
	cancel()
	live, _ := s.Wait() // the error is the cancellation
	if len(live.Jobs) != tenants*perTenant {
		t.Fatalf("%d jobs ran, want %d", len(live.Jobs), tenants*perTenant)
	}
	for _, j := range live.Jobs {
		if !j.Completed {
			t.Fatalf("job %d of %s unfinished", j.ID, j.Tenant)
		}
	}
	cfg.WAL = nil
	rep, err := ReplayService(context.Background(), cfg, live.Events)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, live) {
		t.Fatalf("replay diverges from the live run:\nreplay: %+v\nlive:   %+v", rep, live)
	}
	if evs, err := ReadWAL(bytes.NewReader(wal.Bytes())); err != nil || !reflect.DeepEqual(evs, live.Events) {
		t.Fatalf("WAL does not decode to the run's events (%v)", err)
	}
}

// With a WAL, Submit refuses a job whose record could outgrow the log's
// line cap, which the session's own recovery could not read back; without
// one, the job is fine. A job under the cap logs, and recovers, as usual.
func TestSubmitRefusesRecordsOverTheLineCap(t *testing.T) {
	withWALMaxLine(t, 512)
	var wal bytes.Buffer
	s, err := NewService(ServiceConfig{Fleet: serviceFleet(1), WAL: &wal})
	if err != nil {
		t.Fatal(err)
	}
	big := Job{Tasks: FixedTasks(200, 12.5)} // 200 × "250," alone is 800 bytes
	if _, err := s.Submit("ana", big); err == nil || !strings.Contains(err.Error(), "line cap") {
		t.Fatalf("over-cap record: Submit error %v, want the line cap named", err)
	}
	if _, err := s.Submit("ana", Job{Tasks: FixedTasks(40, 12.5)}); err != nil {
		t.Fatalf("a record under the cap: %v", err)
	}
	want, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RecoverService(ServiceConfig{Fleet: serviceFleet(1)}, bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatalf("the session's own log does not recover: %v", err)
	}
	if got, err := rs.Drain(context.Background()); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery under the lowered cap diverges (%v)", err)
	}
	plain, err := NewService(ServiceConfig{Fleet: serviceFleet(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Submit("ana", big); err != nil {
		t.Fatalf("without a WAL the cap does not apply: %v", err)
	}
}
