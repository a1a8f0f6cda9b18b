package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// serviceScript is one bounded resident session decoded from fuzz bytes: a
// small fleet (at most 16 stations to start, at most 32 live), at most 8
// submissions from 3 tenants, explicit joins and leaves, checkpoint
// changes, churn and crash probabilities, Drain points and a kill round.
type serviceScript struct {
	cfg    ServiceConfig // WAL unset; the runs attach their own
	refuse string        // non-empty: NewService must refuse cfg naming this cause
	steps  []scriptStep
	kill   int // picks the kill round among the uninterrupted run's rounds
}

// scriptStep is one call on the service: a submission, a join, a leave, a
// checkpoint change, or (kind drainStep) a Drain.
type scriptStep struct {
	kind       EventKind
	tenant     string
	tasks      []float64
	bad        string // non-empty: Submit must refuse tasks naming this cause
	slot       int
	checkpoint float64
	adaptive   bool
}

const drainStep EventKind = -1

// scriptTenants are the script's three tenants; two need escaping in the
// WAL's JSON strings.
var scriptTenants = [...]string{"ana", `<bo&"co">`, "zo\u00eb\u2028"}

// brokenServiceConfigs are the configuration errors a script can carry,
// each with the cause its refusal must name.
var brokenServiceConfigs = []struct {
	cause string
	brk   func(*ServiceConfig)
}{
	{"max active", func(c *ServiceConfig) { c.MaxActive = -1 }},
	{"max queued", func(c *ServiceConfig) { c.MaxQueuedPerTenant = -2 }},
	{"max rounds", func(c *ServiceConfig) { c.MaxRounds = -1 }},
	{"leave probability", func(c *ServiceConfig) { c.Churn.LeaveProb = 1 }},
	{"join probability", func(c *ServiceConfig) { c.Churn.JoinProb = math.NaN() }},
	{"station bounds", func(c *ServiceConfig) { c.Churn.MinStations = -1 }},
	{"crash probability", func(c *ServiceConfig) { c.Fleet.Faults.CrashProb = 1.5 }},
	{"crash 0", func(c *ServiceConfig) { c.Fleet.Faults.Crashes = []StationCrash{{Round: -1}} }},
	{"Private pool", func(c *ServiceConfig) { c.Fleet.Pool = Private }},
	{"clusters", func(c *ServiceConfig) { c.Fleet.Clusters = 2 }},
	{"checkpoint interval", func(c *ServiceConfig) { c.Fleet.Checkpoint = -3 }},
}

// scriptBytes reads a fuzz input one byte at a time, then zeros.
type scriptBytes []byte

func (b *scriptBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// pick returns one of opts, chosen by the next byte.
func pick[T any](b *scriptBytes, opts ...T) T { return opts[b.next()%len(opts)] }

// decodeServiceScript turns arbitrary bytes into a bounded script: the
// first bytes configure the session, each later byte (and its operands)
// one step. Every script ends with the runner's final Drain.
func decodeServiceScript(data []byte) serviceScript {
	b := scriptBytes(data)
	fc := Config{
		Stations:              1 + b.next()%16,
		Setup:                 5,
		Seed:                  int64(b.next()),
		Shards:                pick(&b, 0, 1, 2, 3, 4),
		Policy:                Policy{Name: pick(&b, Policies()...), Chunk: 15},
		Checkpoint:            pick(&b, 0.0, 0, 6, 12),
		CheckpointSaveCost:    pick(&b, 0.0, 2),
		CheckpointRestartCost: pick(&b, 0.0, 1),
		Workers:               1,
	}
	fc.CheckpointAdaptive = b.next()%4 == 0
	fc.Faults = FaultPlan{Seed: int64(b.next()), CrashProb: pick(&b, 0.0, 0, 0.02, 0.06)}
	for n := b.next() % 3; n > 0; n-- {
		fc.Faults.Crashes = append(fc.Faults.Crashes, StationCrash{Round: b.next() % 10, Station: b.next() % 20})
	}
	sc := serviceScript{cfg: ServiceConfig{
		Fleet:              fc,
		MaxActive:          1 + b.next()%3,
		MaxQueuedPerTenant: 1 + b.next()%3,
		MaxRounds:          8 + b.next()%56,
		Churn: ChurnConfig{
			LeaveProb:   pick(&b, 0.0, 0, 0.05, 0.15),
			JoinProb:    pick(&b, 0.0, 0, 0.1, 0.3),
			MinStations: b.next() % 5,
			MaxStations: 28, // with at most 4 explicit joins, never more than 32 live
			Seed:        int64(b.next()),
		},
	}}
	if v := b.next(); v%12 == 11 {
		brk := brokenServiceConfigs[(v/12)%len(brokenServiceConfigs)]
		brk.brk(&sc.cfg)
		sc.refuse = brk.cause
	}
	sc.kill = b.next()

	submits, joins := 0, 0
	for len(b) > 0 && len(sc.steps) < 24 {
		op := b.next()
		switch op % 8 {
		case 0, 1, 2:
			if submits == 8 {
				continue
			}
			submits++
			n, base, spread := 1+b.next()%40, 0.5+float64(b.next()%64)*0.75, b.next()%4
			tasks := make([]float64, n)
			for i := range tasks {
				tasks[i] = base * (1 + float64(spread*((i*7+op)%5))/4)
			}
			sc.steps = append(sc.steps, scriptStep{kind: EventSubmit, tenant: scriptTenants[(op/8)%3], tasks: tasks})
		case 3:
			if joins == 4 {
				continue
			}
			joins++
			sc.steps = append(sc.steps, scriptStep{kind: EventJoin})
		case 4:
			sc.steps = append(sc.steps, scriptStep{kind: EventLeave, slot: b.next() % 34})
		case 5:
			sc.steps = append(sc.steps, scriptStep{kind: EventCheckpoint, checkpoint: pick(&b, 0.0, 3, 7.5, 12), adaptive: op&8 != 0})
		case 6:
			sc.steps = append(sc.steps, scriptStep{kind: drainStep})
		case 7:
			// A submission no run can hold.
			if submits == 8 {
				continue
			}
			submits++
			i := b.next() % 3
			tasks := FixedTasks(i+1, 4)
			step := scriptStep{kind: EventSubmit, tenant: scriptTenants[(op/8)%3], tasks: tasks, bad: fmt.Sprintf("task %d", i)}
			switch b.next() % 4 {
			case 0:
				step.tasks, step.bad = nil, "≥ 1 task"
			case 1:
				tasks[i] = math.NaN()
			case 2:
				tasks[i] = -1
			case 3:
				tasks[i] = math.Inf(1)
			}
			sc.steps = append(sc.steps, step)
		}
	}
	return sc
}

// playScript runs steps on s, then one final Drain, and returns that
// Drain's result. It stops at the first Drain error and reports the index
// of the step that failed (len(steps) for the final Drain).
func playScript(t *testing.T, s *Service, steps []scriptStep) (ServiceResult, int, error) {
	t.Helper()
	for i, st := range steps {
		switch st.kind {
		case EventSubmit:
			_, err := s.Submit(st.tenant, Job{Tasks: st.tasks})
			switch {
			case st.bad != "":
				if err == nil || !strings.Contains(err.Error(), st.bad) {
					t.Fatalf("step %d: Submit of a bad job: error %v, want one naming %q", i, err, st.bad)
				}
			case err != nil && !(strings.Contains(err.Error(), "queued") && strings.Contains(err.Error(), fmt.Sprintf("%q", st.tenant))):
				t.Fatalf("step %d: Submit refused a valid job without naming the admission bound and tenant: %v", i, err)
			}
		case EventJoin:
			s.JoinStation()
		case EventLeave:
			s.LeaveStation(st.slot)
		case EventCheckpoint:
			if err := s.SetCheckpoint(st.checkpoint, st.adaptive); err != nil {
				t.Fatalf("step %d: SetCheckpoint(%g): %v", i, st.checkpoint, err)
			}
		case drainStep:
			if res, err := drainChecked(t, s); err != nil {
				return res, i, err
			}
		}
	}
	res, err := drainChecked(t, s)
	return res, len(steps), err
}

// drainChecked is Drain with task conservation checked after every step
// of the round loop: each step ends at a round barrier or returns at a
// round top, where nothing is mid-opportunity.
func drainChecked(t *testing.T, s *Service) (ServiceResult, error) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.exited {
		return s.resultLocked(), s.exitErr
	}
	for {
		done, err := s.step(context.Background())
		checkConserved(t, s)
		if err != nil {
			s.shutdownLocked(err)
			return s.resultLocked(), err
		}
		if done {
			return s.resultLocked(), nil
		}
	}
}

// checkConserved asserts that the tasks dealt into the Core are exactly
// those completed, those lost and those still pending there — counted both
// by the Core and by the jobs the service attributed them to. A job
// counts its tasks by its size: once dealt it holds no quantized tasks,
// and until then it holds them all.
func checkConserved(t *testing.T, s *Service) {
	t.Helper()
	queued := make(map[*svcJob]bool)
	for _, q := range s.queues {
		for _, j := range q {
			queued[j] = true
		}
	}
	dealt, done, lost := 0, 0, 0
	for _, j := range s.jobs {
		switch {
		case queued[j] && len(j.tasks) != j.size:
			t.Fatalf("round %d: queued job %d holds %d of its %d quantized tasks", s.round, j.id, len(j.tasks), j.size)
		case !queued[j] && j.tasks != nil:
			t.Fatalf("round %d: job %d keeps its %d quantized tasks after they were dealt", s.round, j.id, len(j.tasks))
		case !queued[j]:
			dealt += j.size
		}
		done += j.doneTasks
		lost += j.lostTasks
	}
	completed := 0
	for _, r := range s.core.Reports() {
		completed += r.TasksCompleted
	}
	c := s.core
	if c.Total() != dealt || completed+c.TasksLost()+c.Pending() != dealt {
		t.Fatalf("round %d: %d tasks dealt, the Core holds %d: %d completed + %d lost + %d pending",
			s.round, dealt, c.Total(), completed, c.TasksLost(), c.Pending())
	}
	if done != completed || lost != c.TasksLost() {
		t.Fatalf("round %d: jobs count %d completed and %d lost, the Core %d and %d", s.round, done, lost, completed, c.TasksLost())
	}
}

// FuzzServiceScript drives the resident service's state machine through
// decoded scripts. Each input runs live with a WAL that has a Sync, so
// every round barrier syncs before it settles jobs, and must replay from
// its logged events reflect.DeepEqual at Workers 1 and 4; killed at the
// scripted round and recovered, it must end in the uninterrupted result
// and re-log the uninterrupted WAL byte for byte, every logged line
// written by the time its Drain returns. Task conservation holds at every
// round barrier, where a job holds its quantized tasks until they are dealt
// and not after, and every refused input names its cause.
func FuzzServiceScript(f *testing.F) {
	// The header bytes, in decode order: stations−1, seed, shards, policy,
	// checkpoint, save cost, restart cost, adaptive, fault seed, crash
	// probability, scheduled crashes (then round and station for each),
	// max active−1, max queued−1, max rounds−8, leave and join
	// probability, min stations, churn seed, broken-config selector, kill.
	f.Add([]byte{})
	// 12 stations in 4 shards with churn, crashes and checkpoints; two
	// tenants, joins, a leave and a policy change between Drains.
	f.Add([]byte{11, 9, 4, 0, 3, 1, 1, 1, 7, 2, 1, 3, 5, 1, 2, 40, 2, 3, 4, 41, 0, 100,
		0, 28, 15, 2, 9, 19, 10, 1, 3, 6, 13, 2, 4, 2, 16, 30, 20, 3, 6, 3})
	// A lone station that scheduled crashes wipe out twice, each time
	// rejoined after a Drain.
	f.Add([]byte{0, 3, 0, 0, 0, 0, 0, 1, 5, 0, 2, 1, 0, 3, 1, 0, 2, 32, 0, 0, 0, 0, 0, 9,
		0, 39, 12, 0, 9, 9, 4, 1, 6, 3, 6, 3, 16, 5, 8, 2, 6})
	// Admission refusals, and a bad job from every tenant.
	f.Add([]byte{5, 1, 1, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 20, 0, 0, 0, 0, 0, 50,
		0, 8, 10, 0, 0, 16, 3, 1, 7, 1, 1, 15, 2, 2, 23, 0, 0, 6, 0, 3, 6, 0})
	// A lone station that a scheduled crash wipes out: the replay once
	// skipped settling its job.
	f.Add([]byte("00000000002yx00000000000000"))
	// A refused configuration: a churn leave probability of 1.
	f.Add([]byte{3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 11 + 12*3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkServiceScript(t, decodeServiceScript(data))
	})
}

func checkServiceScript(t *testing.T, sc serviceScript) {
	ctx := context.Background()
	// Every log has a Sync, so each round barrier syncs; checkQuiet holds
	// the log to one Sync at a time, no Write during one, and everything
	// written durable once the service returns.
	full := &syncLog{}
	cfg := sc.cfg
	cfg.WAL = full
	s, err := NewService(cfg)
	if sc.refuse != "" {
		if err == nil || !strings.Contains(err.Error(), sc.refuse) {
			t.Fatalf("NewService error %v, want one naming %q", err, sc.refuse)
		}
		return
	}
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	want, _, err := playScript(t, s, sc.steps)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	full.checkQuiet(t)
	if evs, err := ReadWAL(bytes.NewReader(full.Bytes())); err != nil || !reflect.DeepEqual(evs, want.Events) {
		t.Fatalf("the WAL does not decode to the run's events (%v)", err)
	}

	for _, workers := range []int{1, 4} {
		rc := sc.cfg
		rc.Fleet.Workers = workers
		rep, err := ReplayService(ctx, rc, want.Events)
		if err != nil {
			t.Fatalf("workers=%d: replay: %v", workers, err)
		}
		if !reflect.DeepEqual(rep, want) {
			t.Fatalf("workers=%d: replay diverges from the live run:\nreplay: %+v\nlive:   %+v", workers, rep, want)
		}
	}

	// An edited log does not replay: the first join moved to a slot it
	// does not open fails, naming its round and kind.
	if i := slices.IndexFunc(want.Events, func(ev ServiceEvent) bool { return ev.Kind == EventJoin }); i >= 0 {
		edited := slices.Clone(want.Events)
		edited[i].Station++
		_, err := ReplayService(ctx, sc.cfg, edited)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("round %d", edited[i].Round)) || !strings.Contains(err.Error(), "join") {
			t.Fatalf("replay of a log whose join %d names slot %d: error %v, want one naming round %d and the join", i, edited[i].Station, err, edited[i].Round)
		}
	}

	if want.Rounds == 0 {
		return // no round top to kill at
	}
	kill := 1 + sc.kill%want.Rounds
	kc := sc.cfg
	kc.Fleet.Faults.KillRound = kill
	killedLog := &syncLog{}
	kc.WAL = killedLog
	ks, err := NewService(kc)
	if err != nil {
		t.Fatal(err)
	}
	_, at, err := playScript(t, ks, sc.steps)
	if !errors.Is(err, ErrSchedulerKilled) {
		t.Fatalf("kill at round %d of %d: run ended with %v", kill, want.Rounds, err)
	}
	killedLog.checkQuiet(t)

	// A killed log whose first sampled outcome was edited does not
	// recover: the regenerated outcome differs from the logged one.
	logged, err := ReadWAL(bytes.NewReader(killedLog.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if i := slices.IndexFunc(logged, func(ev ServiceEvent) bool { return ev.Sampled && ev.Kind != EventKill }); i >= 0 {
		logged[i].Station++
		var edited bytes.Buffer
		if err := writeWALHeader(&edited, int(ks.f.g.TicksPerSetup)); err != nil {
			t.Fatal(err)
		}
		for _, ev := range logged {
			if err := writeEvent(&edited, ev); err != nil {
				t.Fatal(err)
			}
		}
		es, err := RecoverService(sc.cfg, &edited)
		if err != nil {
			t.Fatal(err)
		}
		_, err = drainChecked(t, es)
		for j := 0; err == nil && es.Stats().Recovering && j <= len(sc.steps); j++ {
			_, err = drainChecked(t, es)
		}
		if err == nil || !strings.Contains(err.Error(), "diverged") {
			t.Fatalf("recovery of a log whose %s event %d names slot %d: error %v, want divergence", logged[i].Kind, i, logged[i].Station, err)
		}
	}

	rc := sc.cfg
	relogged := &syncLog{}
	rc.WAL = relogged
	rs, err := RecoverService(rc, bytes.NewReader(killedLog.Bytes()))
	if err != nil {
		t.Fatalf("kill at round %d: RecoverService: %v", kill, err)
	}
	// The killing Drain's queued steps are in the log; rebuild the session
	// (a Drain stops where the original's did, so it may take several),
	// then play the rest of the script.
	for i := 0; rs.Stats().Recovering; i++ {
		if i > len(sc.steps)+1 {
			t.Fatalf("kill at round %d: recovery stalled at round %d", kill, rs.Stats().Round)
		}
		if _, err := drainChecked(t, rs); err != nil {
			t.Fatalf("kill at round %d: recovering Drain: %v", kill, err)
		}
	}
	got, _, err := playScript(t, rs, sc.steps[min(at+1, len(sc.steps)):])
	if err != nil {
		t.Fatalf("kill at round %d: recovered run: %v", kill, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kill at round %d: recovered run diverges from the uninterrupted one:\nrecovered: %+v\nwant:      %+v", kill, got, want)
	}
	relogged.checkQuiet(t)
	if !bytes.Equal(relogged.Bytes(), full.Bytes()) {
		t.Fatalf("kill at round %d: the recovery re-logged %d WAL bytes, the uninterrupted run wrote %d", kill, len(relogged.Bytes()), len(full.Bytes()))
	}
}
