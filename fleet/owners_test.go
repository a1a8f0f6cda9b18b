package fleet

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cyclesteal/internal/game"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/trace"
)

// surveyConfig is the small fleet the owner-surface tests run as a fluid
// survey (empty job → the deterministic private path).
func surveyConfig() Config {
	return Config{Stations: 7, Setup: 5, Opportunities: 4, Seed: 11}
}

func mustRun(t *testing.T, cfg Config, job Job) Result {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRecordReplaySurveyBitIdentical(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := surveyConfig()
	cfg.Record = rec
	orig := mustRun(t, cfg, Job{})
	tr := rec.Trace()
	if tr == nil {
		t.Fatal("recording run published no trace")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
	if tr.Stations() == 0 || len(tr.Opportunities) == 0 {
		t.Fatalf("recorded trace empty: %d stations, %d opportunities", tr.Stations(), len(tr.Opportunities))
	}

	// Golden round trip: the trace must survive the documented encoding and
	// replay bit-identically at any worker count.
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		cfg := surveyConfig()
		cfg.Workers = workers
		cfg.Owners = []Owner{Replay{Trace: loaded}}
		got := mustRun(t, cfg, Job{})
		if !reflect.DeepEqual(got, orig) {
			t.Errorf("replay at Workers=%d diverged from the recorded run:\n got %+v\nwant %+v", workers, got, orig)
		}
	}
}

func TestRecordReplaySharedJobBitIdentical(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := surveyConfig()
	cfg.Record = rec
	job := Job{Tasks: FixedTasks(300, 12)}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := f.RunDeterministic(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	if tr == nil {
		t.Fatal("recording run published no trace")
	}

	for _, workers := range []int{1, 8} {
		cfg := surveyConfig()
		cfg.Workers = workers
		cfg.Owners = []Owner{Replay{Trace: tr}}
		rf, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rf.RunDeterministic(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, orig) {
			t.Errorf("shared-job replay at Workers=%d diverged from the recorded run", workers)
		}
	}
}

func TestReplaySecondRunIsIdentical(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := surveyConfig()
	cfg.Record = rec
	mustRun(t, cfg, Job{})

	cfg = surveyConfig()
	cfg.Owners = []Owner{Replay{Trace: rec.Trace()}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := f.Run(context.Background(), Job{})
	if err != nil {
		t.Fatal(err)
	}
	// The replay cursors are per-run state: a second run on the same Fleet
	// must start from the top of the trace, not resume mid-way.
	second, err := f.Run(context.Background(), Job{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("second replay run on the same Fleet diverged — cursors leaked across runs")
	}
}

func TestReplayGridMismatch(t *testing.T) {
	tr := trace.New(50, []trace.Opportunity{{Station: 0, Lifespan: 100, Allowance: 1}})
	cfg := surveyConfig() // TicksPerSetup 0 → 100
	cfg.Owners = []Owner{Replay{Trace: tr}}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "ticks per setup") {
		t.Fatalf("grid mismatch not rejected: %v", err)
	}
}

func TestReplicateRejectsReplayAndRecord(t *testing.T) {
	cfg := surveyConfig()
	cfg.Record = trace.NewRecorder()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Replicate(context.Background(), Job{}, 3); err == nil {
		t.Error("recording fleet accepted by Replicate")
	}

	tr := trace.New(100, []trace.Opportunity{{Station: 0, Lifespan: 500, Allowance: 1}})
	cfg = surveyConfig()
	cfg.Owners = []Owner{Malicious{Base: Replay{Trace: tr}}}
	f, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Replicate(context.Background(), Job{}, 3); err == nil {
		t.Error("replay fleet accepted by Replicate (wrapped base not detected)")
	}
}

func TestCustomOwnerMatchesFixed(t *testing.T) {
	// A CustomOwner emitting one fixed caller-units contract must quantize
	// exactly like the built-in Fixed temperament with a Benign wrapper.
	custom := CustomOwner{
		Label:  "const",
		Sample: func(*rand.Rand) Contract { return Contract{Lifespan: 160, Interrupts: 2} },
	}
	cfgA := surveyConfig()
	cfgA.Owners = []Owner{custom}
	cfgB := surveyConfig()
	cfgB.Owners = []Owner{Benign{Base: Fixed{Lifespan: 160, Interrupts: 2}}}
	a, b := mustRun(t, cfgA, Job{}), mustRun(t, cfgB, Job{})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("custom const owner diverged from Benign(Fixed):\n got %+v\nwant %+v", a, b)
	}
}

// lastPeriodCustom interrupts at the very end of every episode — the public
// mirror of the classic last-instant adversary.
type lastPeriodCustom struct{}

func (lastPeriodCustom) NextInterrupt(allowance int, residual float64, episode []float64) (float64, bool) {
	total := 0.0
	for _, t := range episode {
		total += t
	}
	return total, true
}

func TestCustomInterrupterDrives(t *testing.T) {
	cfg := surveyConfig()
	cfg.Owners = []Owner{CustomOwner{
		Sample:      func(*rand.Rand) Contract { return Contract{Lifespan: 160, Interrupts: 2} },
		Interrupter: func(*rand.Rand, Contract) Interrupter { return lastPeriodCustom{} },
	}}
	res := mustRun(t, cfg, Job{})
	if res.Interrupts == 0 {
		t.Fatal("custom interrupter never fired")
	}
	// Determinism: the custom path must stay a pure function of the Config.
	if again := mustRun(t, cfg, Job{}); !reflect.DeepEqual(res, again) {
		t.Error("custom-owner run not reproducible")
	}
}

// A custom owner's contracts alternate between skipped and lent, and its
// interrupter overshoots and ignores its spent allowance. Every skipped
// lifespan — 0, one the grid cannot hold, +Inf, NaN — skips alike, and
// every overshoot — past the residual, past the grid, +Inf — lands at the
// residual alike, on any CPU.
func TestCustomOwnerSkipsAndClamps(t *testing.T) {
	run := func(skipped, overshoot float64) Result {
		t.Helper()
		calls := 0
		cfg := surveyConfig()
		cfg.Stations = 1
		cfg.Owners = []Owner{CustomOwner{
			Sample: func(*rand.Rand) Contract {
				calls++
				if calls%2 == 1 {
					return Contract{Lifespan: skipped, Interrupts: 1} // machine stayed busy
				}
				return Contract{Lifespan: 80, Interrupts: 1}
			},
			Interrupter: func(*rand.Rand, Contract) Interrupter {
				return overshootInterrupter(overshoot)
			},
		}}
		return mustRun(t, cfg, Job{})
	}
	res := run(0, 1e12)
	if got := res.Stations[0].Opportunities; got != 2 {
		t.Errorf("skipped contracts miscounted: %d opportunities, want 2", got)
	}
	if res.Interrupts != 2 {
		t.Errorf("clamped interrupts lost: %d, want 2", res.Interrupts)
	}
	for _, overshoot := range []float64{1e18, 1e300, math.Inf(1)} {
		if got := run(0, overshoot); !reflect.DeepEqual(got, res) {
			t.Errorf("overshoot %g: %+v, want the overshoot 1e12 run %+v", overshoot, got, res)
		}
	}
	for _, skipped := range []float64{1e18, math.Inf(1), math.NaN()} {
		if got := run(skipped, 1e12); !reflect.DeepEqual(got, res) {
			t.Errorf("lifespan %g: %+v, want the skipped run %+v", skipped, got, res)
		}
	}
}

// overshootInterrupter fires at its own value whatever its allowance: at
// least the residual lifespan, so the engine clamps it there on the way in.
type overshootInterrupter float64

func (o overshootInterrupter) NextInterrupt(int, float64, []float64) (float64, bool) {
	return float64(o), true
}

func TestCustomOwnerNeedsSample(t *testing.T) {
	cfg := surveyConfig()
	cfg.Owners = []Owner{CustomOwner{Label: "hollow"}}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "hollow") {
		t.Fatalf("sample-less custom owner accepted: %v", err)
	}
}

func TestAdversaryOrdering(t *testing.T) {
	// One station, one fixed contract: work under the exact minimax owner
	// must floor the heuristic, and the benign owner must ceiling both.
	base := Fixed{Lifespan: 20, Interrupts: 2}
	work := func(o Owner) float64 {
		cfg := Config{Stations: 1, Setup: 5, Opportunities: 1, Seed: 3, TicksPerSetup: 10}
		cfg.Owners = []Owner{o}
		return mustRun(t, cfg, Job{}).Work
	}
	benign := work(Benign{Base: base})
	malicious := work(Malicious{Base: base})
	minimax := work(Minimax{Base: base})
	if !(minimax <= malicious && malicious < benign) {
		t.Errorf("adversary ordering violated: minimax %g, malicious %g, benign %g", minimax, malicious, benign)
	}

	// The minimax owner's realized work IS the schedule's guaranteed work.
	g := quant.Grid{Setup: 5, TicksPerSetup: 10}
	sch, err := sched.NewAdaptiveEqualized(g.TicksPerSetup)
	if err != nil {
		t.Fatal(err)
	}
	u, err := g.Ticks(20)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := game.Evaluate(sch, 2, u, g.TicksPerSetup)
	if err != nil {
		t.Fatal(err)
	}
	if want := g.Units(floor); minimax != want {
		t.Errorf("minimax owner banked %g, guaranteed work is %g", minimax, want)
	}
}

func TestScriptedAndStochasticOwners(t *testing.T) {
	cfg := surveyConfig()
	cfg.Owners = []Owner{Scripted{Base: Fixed{Lifespan: 160, Interrupts: 2}, Offsets: []float64{40, 40}}}
	scripted := mustRun(t, cfg, Job{})
	if scripted.Interrupts == 0 {
		t.Error("scripted owner never fired")
	}
	if again := mustRun(t, cfg, Job{}); !reflect.DeepEqual(scripted, again) {
		t.Error("scripted owner not deterministic")
	}

	cfg.Owners = []Owner{Stochastic{Base: Office{}, Prob: 1}}
	if res := mustRun(t, cfg, Job{}); res.Interrupts == 0 {
		t.Error("stochastic owner with Prob 1 never fired")
	}
	cfg.Owners = []Owner{Poisson{Base: Overnight{}, Mean: 1}}
	if res := mustRun(t, cfg, Job{}); res.Interrupts == 0 {
		t.Error("poisson owner with tiny mean never fired")
	}
	cfg.Owners = []Owner{SampledWorst{Base: Laptop{}}}
	if res := mustRun(t, cfg, Job{}); res.Interrupts == 0 {
		t.Error("sampled-worst owner never fired")
	}
}

// A Poisson owner's mean must be finite and fit the tick grid. NaN used to
// become the default mean, and a mean whose tick count overflowed became a
// single tick, an owner who interrupts every contract.
func TestPoissonMeanRefusedUnlessFiniteOnGrid(t *testing.T) {
	cfg := Config{Stations: 4, Setup: 5, Opportunities: 4, Seed: 3}
	for _, mean := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e20, 1e300} {
		cfg.Owners = []Owner{Poisson{Base: Office{}, Mean: mean}}
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "poisson mean") {
			t.Errorf("mean %g: error %v, want one naming the poisson mean", mean, err)
		}
	}
	cfg.Owners = []Owner{Poisson{Base: Office{}, Mean: 1e6}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunDeterministic(context.Background(), Job{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupts != 0 {
		t.Errorf("an owner away 1e6 units on average interrupted %d times", res.Interrupts)
	}
}

func TestOwnerAndPolicyEnumerators(t *testing.T) {
	names := Owners()
	if len(names) != 16 {
		t.Fatalf("Owners() listed %d names, want 16: %v", len(names), names)
	}
	for _, name := range names {
		if _, err := OwnerByName(name); err != nil {
			t.Errorf("Owners() lists %q but OwnerByName rejects it: %v", name, err)
		}
	}
	if _, err := OwnerByName("toaster"); err == nil || !strings.Contains(err.Error(), "minimax-fixed") {
		t.Errorf("unknown-owner error does not list the valid names: %v", err)
	}

	for _, name := range Policies() {
		if _, err := PolicyByName(name); err != nil {
			t.Errorf("Policies() lists %q but PolicyByName rejects it: %v", name, err)
		}
	}
	if _, err := PolicyByName("fifo"); err == nil || !strings.Contains(err.Error(), "fixedchunk") {
		t.Errorf("unknown-policy error does not list the valid names: %v", err)
	}
}

func TestReplicateProgress(t *testing.T) {
	var mu sync.Mutex
	var snaps []Progress
	cfg := surveyConfig()
	cfg.Progress = func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		snaps = append(snaps, p)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 9
	if _, err := f.Replicate(context.Background(), Job{}, trials); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("Replicate emitted no progress")
	}
	last := snaps[len(snaps)-1]
	if last.Completed != trials || last.Remaining != 0 {
		t.Errorf("final snapshot %+v, want Completed=%d Remaining=0", last, trials)
	}
	for _, p := range snaps {
		if p.Completed+p.Remaining != trials {
			t.Errorf("snapshot %+v does not conserve the trial count", p)
		}
	}
}
