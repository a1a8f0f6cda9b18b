package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncLog is an in-memory write-ahead log with a Sync method, so a service
// syncs it at every round barrier. It records the bytes every completed
// Sync covered, and notes the first Write or Sync that runs while a Sync
// is in flight. delay holds each Sync in flight that long, long enough for
// a job settled before its round's Sync completes to be seen settling
// early; failAt ≥ 1 makes that Sync call fail with errSync.
type syncLog struct {
	delay  time.Duration
	failAt int

	mu      sync.Mutex
	buf     bytes.Buffer
	syncing bool
	calls   int
	covered []int  // bytes written when each completed Sync began
	overlap string // the first Write or Sync that ran during a Sync
}

var errSync = errors.New("sync failed")

func (w *syncLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.syncing && w.overlap == "" {
		w.overlap = fmt.Sprintf("a %d-byte Write ran during Sync %d", len(p), w.calls)
	}
	return w.buf.Write(p)
}

func (w *syncLog) Sync() error {
	w.mu.Lock()
	if w.syncing && w.overlap == "" {
		w.overlap = fmt.Sprintf("Sync %d began during Sync %d", w.calls+1, w.calls)
	}
	w.syncing = true
	w.calls++
	call, n := w.calls, w.buf.Len()
	w.mu.Unlock()
	time.Sleep(w.delay)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncing = false
	if call == w.failAt {
		return errSync
	}
	w.covered = append(w.covered, n)
	return nil
}

// durable reports how many Syncs have completed and how many bytes the
// last one covered.
func (w *syncLog) durable() (syncs, n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.covered) > 0 {
		n = w.covered[len(w.covered)-1]
	}
	return len(w.covered), n
}

func (w *syncLog) Bytes() []byte { return w.buf.Bytes() }

// checkQuiet fails the test when a Write or a second Sync ran during a
// Sync, or when a Sync is still in flight or the bytes written are not
// all durable (every Drain, Wait and kill ends in a synced flush).
func (w *syncLog) checkQuiet(t *testing.T) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.overlap != "" {
		t.Fatalf("write-ahead log: %s", w.overlap)
	}
	if w.syncing {
		t.Fatal("a Sync is still in flight after the service returned")
	}
	if n := len(w.covered); w.failAt == 0 && (n == 0 || w.covered[n-1] != w.buf.Len()) {
		t.Fatalf("the last of %d Syncs covered %v bytes of the %d written", n, w.covered[max(n-1, 0):], w.buf.Len())
	}
}

// walOffsets returns, for a WAL's bytes, the offset just past the header
// line and past each event line, with the decoded events.
func walOffsets(t *testing.T, b []byte) (header int, ends []int, events []ServiceEvent) {
	t.Helper()
	events, err := ReadWAL(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	for at := 0; at < len(b); {
		i := bytes.IndexByte(b[at:], '\n')
		if i < 0 {
			t.Fatalf("the WAL ends in a partial line at byte %d", at)
		}
		at += i + 1
		ends = append(ends, at)
	}
	if len(ends) != len(events)+1 {
		t.Fatalf("%d WAL lines for %d events", len(ends), len(events))
	}
	return ends[0], ends[1:], events
}

// throughRound is the WAL offset just past the last record of a round ≤ k.
func throughRound(header int, ends []int, events []ServiceEvent, k int) int {
	at := header
	for i, ev := range events {
		if ev.Round <= k {
			at = ends[i]
		}
	}
	return at
}

// syncScenario is a churned service with six jobs from two tenants
// submitted before it plays, so jobs finish at different rounds, most
// round tops write records, and no idle flush comes before the last round.
func syncScenario(t *testing.T, w io.Writer, workers int) (*Service, []*JobHandle) {
	t.Helper()
	cfg := churnedConfig(workers)
	cfg.MaxRounds = 0
	cfg.WAL = w
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var hs []*JobHandle
	for i := 0; i < 6; i++ {
		h, err := s.Submit([]string{"ana", "bo"}[i%2], Job{Tasks: ExponentialTasks(200+150*i, 12, int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	return s, hs
}

// settledAt is what a job's waiter saw when its Done closed: the Syncs
// completed and the bytes the last one covered.
type settledAt struct{ syncs, durable int }

// watchDone starts one waiter per handle; wait returns what each saw.
func watchDone(w *syncLog, hs []*JobHandle) (wait func() map[int]settledAt) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := make(map[int]settledAt)
	for _, h := range hs {
		wg.Add(1)
		go func(h *JobHandle) {
			defer wg.Done()
			<-h.Done()
			n, b := w.durable()
			mu.Lock()
			seen[h.ID] = settledAt{n, b}
			mu.Unlock()
		}(h)
	}
	return func() map[int]settledAt { wg.Wait(); return seen }
}

// TestServiceSettlesAfterSync pins the round barrier's write-ahead log
// sync, paused and live. A played round's records are synced once, at its
// barrier: no Write lands during a Sync, the round's Sync covers exactly
// the records through its round top, and a Drain syncs once per played
// round plus once when it returns. Every job's Done closes only after the
// Sync of its finishing round has completed, covering every line written
// through that round.
func TestServiceSettlesAfterSync(t *testing.T) {
	for _, live := range []bool{false, true} {
		t.Run(fmt.Sprintf("live=%v", live), func(t *testing.T) {
			w := &syncLog{delay: 2 * time.Millisecond}
			s, hs := syncScenario(t, w, 2)
			wait := watchDone(w, hs)
			var res ServiceResult
			var err error
			if live {
				ctx, cancel := context.WithCancel(context.Background())
				if err := s.Start(ctx); err != nil {
					t.Fatal(err)
				}
				for _, h := range hs {
					<-h.Done()
				}
				cancel()
				if res, err = s.Wait(); !errors.Is(err, context.Canceled) {
					t.Fatalf("Wait: %v, want the cancellation", err)
				}
			} else if res, err = s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			seen := wait()
			w.checkQuiet(t)

			header, ends, events := walOffsets(t, w.Bytes())
			switch syncs := len(w.covered); {
			case !live && syncs != res.Rounds+1:
				t.Fatalf("%d Syncs for %d played rounds and one Drain: want one per round and one for the Drain", syncs, res.Rounds)
			case live && syncs < res.Rounds+1:
				t.Fatalf("%d Syncs for %d played rounds and the shutdown", syncs, res.Rounds)
			}
			for k := 0; k < res.Rounds; k++ {
				if want := throughRound(header, ends, events, k); w.covered[k] != want {
					t.Fatalf("round %d's Sync covered %d bytes, want the %d written through its round top", k, w.covered[k], want)
				}
			}
			finished := 0
			for _, j := range res.Jobs {
				if !j.Completed {
					t.Fatalf("job %d did not complete", j.ID)
				}
				k := j.FinishedRound
				got := seen[j.ID]
				if got.syncs < k+1 {
					t.Errorf("job %d finished at round %d, and its Done closed after %d Syncs: before its round's Sync completed", j.ID, k, got.syncs)
				}
				if want := throughRound(header, ends, events, k); got.durable < want {
					t.Errorf("job %d finished at round %d, and its Done closed with %d bytes durable of the %d written through that round", j.ID, k, got.durable, want)
				}
				if k > 0 && throughRound(header, ends, events, k) > throughRound(header, ends, events, k-1) {
					finished++
				}
			}
			if finished == 0 {
				t.Fatal("no job finished at a round that wrote records: the scenario no longer tells an early settle apart")
			}
		})
	}
}

// TestServiceSyncFailureStops pins a failing Sync, paused and live: the
// service stops at that round's barrier with the write-ahead log error,
// no job finishing in that round is settled (each fails with the error),
// jobs that finished earlier keep their results, and once Drain or Wait
// returns no Sync is in flight and no goroutine of the service is left.
func TestServiceSyncFailureStops(t *testing.T) {
	ref := &syncLog{}
	s, _ := syncScenario(t, ref, 2)
	want, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Fail the Sync of the second round at which a job finishes, so an
	// earlier job has settled and a later one has not.
	first := want.Rounds
	for _, j := range want.Jobs {
		first = min(first, j.FinishedRound)
	}
	k := want.Rounds
	for _, j := range want.Jobs {
		if j.FinishedRound > first {
			k = min(k, j.FinishedRound)
		}
	}
	if k == want.Rounds {
		t.Fatal("every job finishes in one round; the scenario cannot tell the rounds apart")
	}

	for _, live := range []bool{false, true} {
		t.Run(fmt.Sprintf("live=%v", live), func(t *testing.T) {
			before := runtime.NumGoroutine()
			w := &syncLog{failAt: k + 1} // the first Sync is round 0's
			s, hs := syncScenario(t, w, 2)
			var err error
			if live {
				if err := s.Start(context.Background()); err != nil {
					t.Fatal(err)
				}
				_, err = s.Wait()
			} else {
				_, err = s.Drain(context.Background())
			}
			if !errors.Is(err, errSync) || !strings.Contains(err.Error(), "write-ahead log") {
				t.Fatalf("the service stopped with %v, want the write-ahead log's Sync failure", err)
			}
			w.checkQuiet(t)
			if w.calls != k+1 {
				t.Fatalf("%d Syncs, want %d: none after the one that failed", w.calls, k+1)
			}
			for i, h := range hs {
				<-h.Done()
				got, err := h.Result()
				ref := want.Jobs[i]
				if ref.FinishedRound < k {
					if err != nil || got != ref {
						t.Errorf("job %d finished at round %d, before the failure: %+v, %v; want %+v", h.ID, ref.FinishedRound, got, err, ref)
					}
				} else if got.Completed || !errors.Is(err, errSync) {
					t.Errorf("job %d, which finishes at round %d, settled past the failed Sync of round %d: completed %v, error %v", h.ID, ref.FinishedRound, k, got.Completed, err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines after the service stopped, %d before it started", n, before)
			}
		})
	}
}

// TestServiceWipeoutSettlesAfterSync pins the barrier of a round whose
// crashes empty the fleet: the round is synced before its lost job
// settles, and when that Sync fails the job does not settle as lost but
// fails with the write-ahead log's error.
func TestServiceWipeoutSettlesAfterSync(t *testing.T) {
	for _, failAt := range []int{0, 2} { // Sync 2 is the wipe-out round's
		t.Run(fmt.Sprintf("failAt=%d", failAt), func(t *testing.T) {
			cfg := serviceFleet(2)
			var crashes []StationCrash
			for s := 0; s < cfg.Stations; s++ {
				crashes = append(crashes, StationCrash{Round: 1, Station: s})
			}
			cfg.Faults = FaultPlan{Crashes: crashes}
			w := &syncLog{delay: 2 * time.Millisecond, failAt: failAt}
			s, err := NewService(ServiceConfig{Fleet: cfg, WAL: w})
			if err != nil {
				t.Fatal(err)
			}
			h, err := s.Submit("t", Job{Tasks: FixedTasks(5000, 10)})
			if err != nil {
				t.Fatal(err)
			}
			wait := watchDone(w, []*JobHandle{h})
			res, err := s.Drain(context.Background())
			seen := wait()[h.ID]
			w.checkQuiet(t)
			_, herr := h.Result()
			if failAt > 0 {
				if !errors.Is(err, errSync) || !errors.Is(herr, errSync) {
					t.Fatalf("Drain: %v; job: %v; want both to fail with the wipe-out round's Sync", err, herr)
				}
				return
			}
			if err != nil || res.Crashed != cfg.Stations || !errors.Is(herr, ErrTasksLost) {
				t.Fatalf("Drain: %v, %d of %d stations crashed, job: %v; want the fleet wiped out and the job lost", err, res.Crashed, cfg.Stations, herr)
			}
			header, ends, events := walOffsets(t, w.Bytes())
			if want := throughRound(header, ends, events, 1); seen.syncs < 2 || seen.durable < want {
				t.Fatalf("the lost job's Done closed after %d Syncs with %d bytes durable; want the wipe-out round's Sync, covering %d", seen.syncs, seen.durable, want)
			}
		})
	}
}

// syncBuffer is a bytes.Buffer with a Sync that does nothing.
type syncBuffer struct{ bytes.Buffer }

func (*syncBuffer) Sync() error { return nil }

// TestServiceSyncAllocs pins that syncing the write-ahead log adds no
// allocation: a Drain of about 30 rounds on a writer with Sync allocates
// as often as the same Drain on a writer without one. Each side is the
// median of five single runs, steady against the odd run that allocates
// a few more or fewer (a map laid out by a different hash seed). It does
// not run under the race detector, whose sync.Pool drops entries at
// random, so that counts drift by several allocations from run to run.
func TestServiceSyncAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts drift under the race detector")
	}
	rounds := 0
	drain := func(w io.Writer) {
		s, err := NewService(ServiceConfig{Fleet: serviceFleet(1), WAL: w})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit("t", Job{Tasks: FixedTasks(36000, 10)}); err != nil {
			t.Fatal(err)
		}
		res, err := s.Drain(context.Background())
		if err != nil || res.Rounds < 20 {
			t.Fatalf("Drain: %d rounds, %v; the test wants at least 20", res.Rounds, err)
		}
		rounds = res.Rounds
	}
	median := func(f func()) float64 {
		var runs [5]float64
		for i := range runs {
			runs[i] = testing.AllocsPerRun(1, f)
		}
		slices.Sort(runs[:])
		return runs[len(runs)/2]
	}
	var plain bytes.Buffer
	var synced syncBuffer
	plainAllocs := median(func() { plain.Reset(); drain(&plain) })
	syncAllocs := median(func() { synced.Reset(); drain(&synced) })
	if syncAllocs != plainAllocs {
		t.Fatalf("a %d-round Drain allocates %v times with a Sync-capable writer, %v without", rounds, syncAllocs, plainAllocs)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "-race" {
				return kv.Value == "true"
			}
		}
	}
	return false
}
