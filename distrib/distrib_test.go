package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyclesteal/fleet"
)

// TestMain doubles as the worker executable: re-invoked with the worker
// env var set, the test binary becomes a real distrib worker process on
// stdio — the multi-process tests dial it through ExecStarter. With the
// crash-ticket env var naming an existing file, the worker consumes the
// ticket and dies after its first shard frame, simulating one mid-stream
// worker death per ticket.
func TestMain(m *testing.M) {
	if os.Getenv("CSTEAL_DISTRIB_WORKER") == "1" {
		var out io.Writer = os.Stdout
		if ticket := os.Getenv("CSTEAL_DISTRIB_CRASH_TICKET"); ticket != "" {
			if os.Remove(ticket) == nil {
				out = &crashAfterShard{w: os.Stdout}
			}
		}
		if err := Serve(context.Background(), os.Stdin, out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// crashAfterShard kills the process right after the first shard frame hits
// the pipe: the coordinator receives one complete shard of the assignment
// and then silence — the harshest mid-assignment death.
type crashAfterShard struct {
	w      io.Writer
	shards int
}

func (c *crashAfterShard) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	if strings.Contains(string(b), `"frame":"shard"`) {
		c.shards++
		if c.shards == 1 {
			os.Exit(3)
		}
	}
	return n, err
}

func testSpec(t *testing.T, trials int) (Spec, fleet.Replication) {
	t.Helper()
	cfg := fleet.Config{
		Stations:      6,
		Setup:         5,
		Opportunities: 3,
		Seed:          11,
		Owners:        []fleet.Owner{fleet.Office{MeanIdle: 400}, fleet.Laptop{MeanIdle: 250}},
	}
	job := fleet.Job{Tasks: fleet.FixedTasks(150, 12)}
	spec, err := NewSpec(cfg, job, trials)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Replicate(context.Background(), job, trials)
	if err != nil {
		t.Fatal(err)
	}
	return spec, want
}

// leakCheck snapshots the goroutine count and verifies, with a bounded
// retry loop, that it returns to the baseline — coordinator shutdown must
// not strand readers, slots or in-process workers.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestCoordinatorBitIdentical is the tentpole acceptance pin: a
// distributed run merges bit-identical to single-process fleet.Replicate
// at worker counts 1 and 4.
func TestCoordinatorBitIdentical(t *testing.T) {
	defer leakCheck(t)()
	spec, want := testSpec(t, 90)
	for _, workers := range []int{1, 4} {
		c, err := NewCoordinator(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d distributed run differs from Replicate:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// dyingWorker speaks the worker protocol faithfully — hello, study,
// assign, progress — but closes the connection right after its first shard
// frame, a deterministic in-process stand-in for a worker killed
// mid-shard-stream.
func dyingWorkerStarter(t *testing.T, deaths *atomic.Int32) Starter {
	healthy := InProcess()
	return func(ctx context.Context) (io.ReadWriteCloser, error) {
		if deaths.Add(-1) < 0 {
			return healthy(ctx)
		}
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		go func() {
			defer inR.Close()
			defer outW.Close()
			s := newStream(inR, outW)
			if err := s.send(Frame{Kind: FrameHello, Format: wireFormat, Version: wireVersion}); err != nil {
				return
			}
			study, err := s.recv()
			if err != nil || study.Kind != FrameStudy {
				return
			}
			st, err := study.Spec.Study()
			if err != nil {
				return
			}
			assign, err := s.recv()
			if err != nil || assign.Kind != FrameAssign {
				return
			}
			results, err := st.RunShards(ctx, assign.Shards, nil)
			if err != nil || len(results) == 0 {
				return
			}
			s.send(Frame{Kind: FrameShard, Shard: &results[0]})
			// ...and dies: deferred closes sever the connection with the
			// assignment unacknowledged.
		}()
		return &pipeConn{r: outR, w: inW}, nil
	}
}

// TestCoordinatorReassignsDeadWorker pins the fault-tolerance contract:
// workers dying mid-shard-stream get their ranges re-dealt and the final
// summary is still bit-identical.
func TestCoordinatorReassignsDeadWorker(t *testing.T) {
	defer leakCheck(t)()
	spec, want := testSpec(t, 90)
	var deaths atomic.Int32
	deaths.Store(2)
	c, err := NewCoordinator(spec, Options{Workers: 3, Start: dyingWorkerStarter(t, &deaths)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("run with dying workers differs from Replicate:\n got %+v\nwant %+v", got, want)
	}
}

// TestCoordinatorWritesOneStudyLine pins the study frame's single
// encoding: every dial, re-dials after worker deaths included, hands its
// transport the same buffer, holding json.Marshal's bytes for the frame.
func TestCoordinatorWritesOneStudyLine(t *testing.T) {
	defer leakCheck(t)()
	spec, want := testSpec(t, 90)
	var deaths atomic.Int32
	deaths.Store(2)
	dying := dyingWorkerStarter(t, &deaths)
	tap := &studyTap{}
	start := func(ctx context.Context) (io.ReadWriteCloser, error) {
		rwc, err := dying(ctx)
		if err != nil {
			return nil, err
		}
		return tappedConn{rwc, tap}, nil
	}
	c, err := NewCoordinator(spec, Options{Workers: 2, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run differs from Replicate:\n got %+v\nwant %+v", got, want)
	}
	raw, err := json.Marshal(Frame{Kind: FrameStudy, Format: wireFormat, Version: wireVersion, Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	// The first two dials die, so the study needs at least one healthy
	// re-dial. One is enough: a slot's healthy re-dial can finish every
	// re-dealt chunk before the other slot dials again.
	if len(tap.lines) < 3 {
		t.Fatalf("%d dials wrote a study frame, want at least 3 (2 dials that die, then a healthy re-dial)", len(tap.lines))
	}
	for i, line := range tap.lines {
		if !bytes.Equal(line, append(raw, '\n')) {
			t.Fatalf("dial %d wrote\n%s\nwant json.Marshal's\n%s", i, line, raw)
		}
		if tap.buffers[i] != tap.buffers[0] {
			t.Fatalf("dial %d wrote a study frame encoded anew", i)
		}
	}
}

// studyTap records each study frame line written on its connections, and
// the address of the buffer that held it.
type studyTap struct {
	mu      sync.Mutex
	lines   [][]byte
	buffers []*byte
}

type tappedConn struct {
	io.ReadWriteCloser
	tap *studyTap
}

func (c tappedConn) Write(b []byte) (int, error) {
	if bytes.HasPrefix(b, []byte(`{"frame":"study"`)) {
		c.tap.mu.Lock()
		c.tap.lines = append(c.tap.lines, append([]byte(nil), b...))
		c.tap.buffers = append(c.tap.buffers, &b[0])
		c.tap.mu.Unlock()
	}
	return c.ReadWriteCloser.Write(b)
}

// TestCoordinatorRetriesExhausted pins the loud-failure side: a chunk that
// keeps dying eventually fails the study with an error naming the shards.
func TestCoordinatorRetriesExhausted(t *testing.T) {
	defer leakCheck(t)()
	spec, _ := testSpec(t, 40)
	var deaths atomic.Int32
	deaths.Store(1 << 20) // every connection dies
	c, err := NewCoordinator(spec, Options{Workers: 2, MaxRetries: 2, Start: dyingWorkerStarter(t, &deaths)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background())
	if err == nil {
		t.Fatal("study with permanently dying workers succeeded")
	}
	if !strings.Contains(err.Error(), "failed 3 times") || !strings.Contains(err.Error(), "shards") {
		t.Errorf("retry-exhausted error lacks the story: %v", err)
	}
}

// TestCoordinatorProgressRelay pins the study-level progress contract: the
// trials-completed observer reaches study scale through the coordinator,
// ends exactly on (total, total), and never leaves the [0, total] range.
func TestCoordinatorProgressRelay(t *testing.T) {
	defer leakCheck(t)()
	spec, _ := testSpec(t, 90)
	var snaps [][2]int
	c, err := NewCoordinator(spec, Options{Workers: 2, Progress: func(done, total int) {
		snaps = append(snaps, [2]int{done, total})
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress observed")
	}
	last := snaps[len(snaps)-1]
	if last != [2]int{90, 90} {
		t.Fatalf("final snapshot %v, want [90 90]", last)
	}
	for _, s := range snaps {
		if s[1] != 90 || s[0] < 0 || s[0] > 90 {
			t.Fatalf("snapshot %v out of range", s)
		}
	}
}

// TestCoordinatorCancelFinalSnapshot is the regression pin for
// cancellation: Run returns ctx's error and the observer still receives a
// final snapshot (the partial count, not a hang and not silence).
func TestCoordinatorCancelFinalSnapshot(t *testing.T) {
	defer leakCheck(t)()
	spec, _ := testSpec(t, 90)
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	var final atomic.Int64
	c, err := NewCoordinator(spec, Options{Workers: 2, Progress: func(done, total int) {
		calls.Add(1)
		final.Store(int64(done)<<32 | int64(total))
		cancel() // cancel as soon as the study starts moving
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if calls.Load() == 0 {
		t.Fatal("no final snapshot after cancellation")
	}
	if total := final.Load() & 0xffffffff; total != 90 {
		t.Fatalf("final snapshot total %d, want 90", total)
	}
}

// TestCoordinatorWorkerTimeout pins the per-worker timeout: a worker that
// goes silent mid-assignment is declared dead and its chunk re-dealt.
func TestCoordinatorWorkerTimeout(t *testing.T) {
	defer leakCheck(t)()
	spec, want := testSpec(t, 40)
	healthy := InProcess()
	var stalls atomic.Int32
	stalls.Store(1)
	stalled := make(chan struct{})
	starter := func(ctx context.Context) (io.ReadWriteCloser, error) {
		if stalls.Add(-1) < 0 {
			return healthy(ctx)
		}
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		go func() {
			defer inR.Close()
			defer outW.Close()
			s := newStream(inR, outW)
			s.send(Frame{Kind: FrameHello, Format: wireFormat, Version: wireVersion})
			for { // swallow study and assign, answer nothing, hold the line
				if _, err := s.recv(); err != nil {
					close(stalled)
					return
				}
			}
		}()
		return &pipeConn{r: outR, w: inW}, nil
	}
	c, err := NewCoordinator(spec, Options{Workers: 1, Start: starter, WorkerTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("run with a stalled worker differs from Replicate")
	}
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled worker never released")
	}
}

// TestSpecRoundTrip pins the spec wire form: NewSpec captures a config,
// JSON round-trips it exactly, and the rebuilt study replicates
// bit-identical to the original fleet.
func TestSpecRoundTrip(t *testing.T) {
	cfg := fleet.Config{
		Stations:      5,
		Setup:         4,
		Interrupts:    3,
		Opportunities: 2,
		Seed:          7,
		Policy:        fleet.Policy{Name: "fixedchunk", Chunk: 40},
		Owners: []fleet.Owner{
			fleet.Office{MeanIdle: 300, Interrupts: 1},
			fleet.Malicious{Base: fleet.Laptop{MeanIdle: 200}},
			fleet.Poisson{Base: fleet.Fixed{Lifespan: 500}, Mean: 90},
			fleet.Stochastic{Base: fleet.Overnight{Window: 350}, Prob: 0.25},
			fleet.Benign{Base: fleet.Office{MeanIdle: 260}},
		},
		StationSummaries: true,
	}
	job := fleet.Job{Tasks: fleet.ExponentialTasks(80, 15, 5)}
	spec, err := NewSpec(cfg, job, 40)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("spec JSON round trip diverged:\n got %+v\nwant %+v", back, spec)
	}
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Replicate(context.Background(), job, 40)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(back, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("round-tripped spec's distributed run differs from the original fleet's Replicate")
	}
}

// TestSpecRejectsUnexpressibleOwners pins the wire boundary: owners whose
// behavior is code, not named data, cannot travel.
func TestSpecRejectsUnexpressibleOwners(t *testing.T) {
	cases := []fleet.Owner{
		fleet.Scripted{Base: fleet.Office{}, Offsets: []float64{10}},
		fleet.SampledWorst{Base: fleet.Office{}, Candidates: 3},
		fleet.Malicious{Base: fleet.Benign{Base: fleet.Office{}}}, // nested wrappers
	}
	for _, o := range cases {
		cfg := fleet.Config{Stations: 2, Setup: 5, Owners: []fleet.Owner{o}}
		if _, err := NewSpec(cfg, fleet.Job{}, 5); err == nil {
			t.Errorf("owner %T crossed the wire", o)
		}
	}
}

// --- multi-process: the test binary re-invoked as a real worker ----------

func execStarter(t *testing.T, extraEnv ...string) Starter {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return ExecStarter(func() *exec.Cmd {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), append([]string{"CSTEAL_DISTRIB_WORKER=1"}, extraEnv...)...)
		return cmd
	})
}

// TestMultiProcessBitIdentical runs the study across real worker
// processes — the coordinator and ≥ 2 workers are separate OS processes —
// and pins the merged summary bit-identical to in-process Replicate.
func TestMultiProcessBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	defer leakCheck(t)()
	spec, want := testSpec(t, 90)
	c, err := NewCoordinator(spec, Options{Workers: 2, Start: execStarter(t)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("multi-process run differs from Replicate:\n got %+v\nwant %+v", got, want)
	}
}

// TestMultiProcessWorkerCrash kills one real worker process after its
// first shard frame (os.Exit mid-assignment) and pins that the re-dealt
// study still merges bit-identical.
func TestMultiProcessWorkerCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	defer leakCheck(t)()
	spec, want := testSpec(t, 90)
	ticket, err := os.CreateTemp(t.TempDir(), "crash-ticket")
	if err != nil {
		t.Fatal(err)
	}
	ticket.Close()
	c, err := NewCoordinator(spec, Options{
		Workers: 2,
		Start:   execStarter(t, "CSTEAL_DISTRIB_CRASH_TICKET="+ticket.Name()),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("crash-recovered run differs from Replicate:\n got %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(ticket.Name()); !os.IsNotExist(err) {
		t.Error("crash ticket never consumed: no worker actually died")
	}
}
