package distrib

import (
	"bytes"
	"context"
	"io"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cyclesteal/fleet"
)

// scriptedStarter opens connections whose worker side runs script and then
// hangs up, counting the dials.
func scriptedStarter(dials *atomic.Int32, script func(s *stream)) Starter {
	return func(ctx context.Context) (io.ReadWriteCloser, error) {
		dials.Add(1)
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		go func() {
			defer inR.Close()
			defer outW.Close()
			script(newStream(inR, outW))
		}()
		return &pipeConn{r: outR, w: inW}, nil
	}
}

// runWithin runs c and fails t unless Run returns within d.
func runWithin(t *testing.T, c *Coordinator, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("Run had not returned after %v", d)
		return nil
	}
}

// assigned scripts a worker that says hello, reads the study and its
// assignment, and then hands the assigned shards to misbehave.
func assigned(misbehave func(s *stream, shards []int)) func(s *stream) {
	return func(s *stream) {
		if s.send(Frame{Kind: FrameHello, Format: wireFormat, Version: wireVersion}) != nil {
			return
		}
		if f, err := s.recv(); err != nil || f.Kind != FrameStudy {
			return
		}
		if a, err := s.recv(); err == nil && a.Kind == FrameAssign {
			misbehave(s, a.Shards)
		}
	}
}

// sendShard sends an empty (valid) result for shard id.
func sendShard(s *stream, id int) {
	s.send(Frame{Kind: FrameShard, Shard: &fleet.ShardResult{Shard: id}})
}

// Every way a worker can fail its handshake, or the assignment it took,
// fails the study with an error naming the cause, after the retry budget:
// each chunk is dealt MaxRetries+1 times, every deal dials afresh, and no
// goroutine outlives Run.
func TestDialRefusesBadHandshakes(t *testing.T) {
	spec, _ := testSpec(t, 40)
	hangUp := func(*stream) {}
	cases := []struct {
		name    string
		script  func(s *stream)
		timeout time.Duration
		want    []string
	}{
		{"a version-1 hello", func(s *stream) {
			s.write([]byte(version1Lines[0] + "\n"))
		}, 0, []string{"wire version 1", "version 2"}},
		{"a first frame that is not a hello", func(s *stream) {
			s.send(Frame{Kind: FrameProgress, Done: 1, Total: 2})
		}, 0, []string{`expected hello, got "progress"`}},
		{"a worker that exits before its hello", hangUp, 0, []string{"worker exited before hello"}},
		{"a worker that hangs up after its hello", func(s *stream) {
			s.send(Frame{Kind: FrameHello, Format: wireFormat, Version: wireVersion})
		}, 0, []string{"sending study"}},
		{"a silent worker", func(s *stream) {
			for {
				if _, err := s.recv(); err != nil {
					return
				}
			}
		}, 20 * time.Millisecond, []string{"worker never said hello"}},
		{"a shard it was not assigned", assigned(func(s *stream, shards []int) {
			for id := 0; ; id++ {
				if !slices.Contains(shards, id) {
					sendShard(s, id)
					return
				}
			}
		}), 0, []string{"worker returned unassigned shard"}},
		{"an assigned shard twice", assigned(func(s *stream, shards []int) {
			sendShard(s, shards[0])
			sendShard(s, shards[0])
		}), 0, []string{"worker returned shard 0 twice"}},
		{"done after fewer shards than assigned", assigned(func(s *stream, shards []int) {
			sendShard(s, shards[0])
			s.send(Frame{Kind: FrameDone, Shards: shards})
		}), 0, []string{"worker acknowledged 16 shards but sent 1"}},
		{"an error frame", assigned(func(s *stream, _ []int) {
			s.send(Frame{Kind: FrameError, Error: "disk full"})
		}), 0, []string{"worker failed: disk full"}},
		{"a frame of another kind", assigned(func(s *stream, shards []int) {
			s.send(Frame{Kind: FrameAssign, Shards: shards})
		}), 0, []string{`unexpected "assign" frame mid-assignment`}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer leakCheck(t)()
			var dials atomic.Int32
			coord, err := NewCoordinator(spec, Options{Workers: 1, MaxRetries: 1, WorkerTimeout: c.timeout,
				Start: scriptedStarter(&dials, c.script)})
			if err != nil {
				t.Fatal(err)
			}
			err = runWithin(t, coord, 5*time.Second)
			if err == nil {
				t.Fatal("the study succeeded")
			}
			for _, want := range append(c.want, "failed 2 times") {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
			if n := dials.Load(); n < 2 {
				t.Errorf("%d dials, want a fresh one per deal", n)
			}
		})
	}
}

// A worker handed a version-1 study frame refuses it with an error naming
// both versions, whether its task array holds caller-unit floats or
// integers.
func TestServeRefusesVersion1Study(t *testing.T) {
	for _, line := range version1Lines[1:] {
		var out bytes.Buffer
		err := Serve(context.Background(), strings.NewReader(line+"\n"), &out)
		if err == nil || !strings.Contains(err.Error(), "wire version 1") || !strings.Contains(err.Error(), "version 2") {
			t.Errorf("Serve of %s: error %v, want one naming versions 1 and 2", line, err)
		}
		if !strings.HasPrefix(out.String(), `{"frame":"hello","format":"cyclesteal-distrib","version":2}`) {
			t.Errorf("Serve greeted with %q", out.String())
		}
	}
	for _, line := range version1Lines {
		if _, err := ParseFrame([]byte(line)); err == nil || !strings.Contains(err.Error(), "wire version 1") {
			t.Errorf("ParseFrame(%s): error %v, want one naming version 1", line, err)
		}
	}
}

// NewCoordinator refuses a spec its workers would refuse — a tick below 1,
// ticks past the grid, a fleet fleet.New refuses — before any worker
// starts.
func TestNewCoordinatorRefusesBadSpec(t *testing.T) {
	good, _ := testSpec(t, 10)
	cases := []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"a zero tick", func(s *Spec) { s.Ticks = []int64{5, 0, 5} }, "task 1 duration must be ≥ 1 tick, got 0"},
		{"ticks past the grid", func(s *Spec) { s.Ticks = []int64{5, math.MaxInt64 - 5, 1} }, "task 2: the job's total duration overflows"},
		{"clusters that cannot partition the shards", func(s *Spec) { s.Clusters = 4 }, "clusters"},
		{"no trials", func(s *Spec) { s.Trials = 0 }, "trials"},
	}
	for _, c := range cases {
		spec := good
		spec.Ticks = append([]int64(nil), good.Ticks...)
		c.edit(&spec)
		var dials atomic.Int32
		_, err := NewCoordinator(spec, Options{Start: scriptedStarter(&dials, func(*stream) {})})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
		if dials.Load() != 0 {
			t.Errorf("%s: a worker started", c.name)
		}
	}
}

// NewSpec quantizes the job once, on the grid it names, with the intake's
// refusals in their words.
func TestNewSpecQuantizesOnce(t *testing.T) {
	cfg := fleet.Config{Stations: 3, Setup: 5, Seed: 2}
	job := fleet.Job{Tasks: []float64{12, 0.01, 7.5, 5}}
	spec, err := NewSpec(cfg, job, 4)
	if err != nil {
		t.Fatal(err)
	}
	if spec.TicksPerSetup != 100 {
		t.Errorf("TicksPerSetup %d, want the resolved grid 100", spec.TicksPerSetup)
	}
	if want := []int64{240, 1, 150, 100}; !slices.Equal(spec.Ticks, want) {
		t.Errorf("ticks %v, want %v", spec.Ticks, want)
	}
	job.Tasks[2] = math.NaN()
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, want := f.Study(job, 4)
	if _, err := NewSpec(cfg, job, 4); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("NewSpec of a NaN task: error %v, the intake's %v", err, want)
	}
}
