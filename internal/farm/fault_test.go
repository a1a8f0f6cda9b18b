package farm

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"cyclesteal/internal/fault"
	"cyclesteal/internal/station"
	"cyclesteal/internal/task"
)

// TestTeardownLeaveDrainsCrashDestroys is the satellite contract: Leave and
// Crash share one teardown, differing only in what happens to an orphaned
// group's queue — a leave drains it back to the fleet, a crash destroys it.
func TestTeardownLeaveDrainsCrashDestroys(t *testing.T) {
	build := func() *Core {
		f := testFarm(4, station.Office{MeanIdle: 2500, MaxP: 2})
		f.Shards = 4
		core := f.NewCore(equalizedFactory, 7, 4, 4, false)
		for _, ws := range f.Stations {
			core.Join(ws)
		}
		core.AddTasks(task.Fixed(40, 5)) // 10 per group
		return core
	}

	left := build()
	if !left.Leave(1) {
		t.Fatal("Leave(1) reported a dead slot")
	}
	if left.Pending() != 40 || left.TasksLost() != 0 {
		t.Errorf("leave lost work: pending %d, lost %d", left.Pending(), left.TasksLost())
	}
	if left.queues[1].Remaining() != 0 {
		t.Errorf("orphaned queue kept %d tasks instead of draining", left.queues[1].Remaining())
	}

	crashed := build()
	if !crashed.Crash(1) {
		t.Fatal("Crash(1) reported a dead slot")
	}
	if crashed.TasksLost() != 10 {
		t.Errorf("crash lost %d tasks, want the orphaned group's 10", crashed.TasksLost())
	}
	if crashed.Pending() != 30 {
		t.Errorf("pending %d after crash, want 30", crashed.Pending())
	}
	if crashed.Crash(1) || crashed.Leave(1) {
		t.Error("second teardown of the same slot reported live")
	}
	snap := crashed.Snapshot()
	if snap.Lost != 10 || snap.Completed != 0 || snap.Remaining != 30 {
		t.Errorf("snapshot %+v inconsistent with the crash", snap)
	}
}

// A crash that leaves live colleagues in the group destroys nothing queued:
// the group queue is pooled NOW-side work, not the crashed host's.
func TestCrashWithLiveColleagueKeepsQueue(t *testing.T) {
	f := testFarm(4, station.Office{MeanIdle: 2500, MaxP: 2})
	f.Shards = 2
	core := f.NewCore(equalizedFactory, 7, 2, 4, false)
	for _, ws := range f.Stations {
		core.Join(ws)
	}
	core.AddTasks(task.Fixed(40, 5))
	if !core.Crash(0) { // slot 2 still lives in group 0
		t.Fatal("Crash(0) reported a dead slot")
	}
	if core.TasksLost() != 0 || core.Pending() != 40 {
		t.Errorf("crash with a live colleague lost %d / pending %d", core.TasksLost(), core.Pending())
	}
}

// crossLossCore builds a 2-cluster core with the whole job stacked on
// cluster 1, so cluster 0 starts dry and must steal across, and arms the
// given fault plan.
func crossLossCore(plan fault.Plan) *Core {
	f := testFarm(4, station.Overnight{Window: 50})
	f.Shards = 4
	f.Topology = Topology{Clusters: 2, CrossLatency: 5}
	core := f.NewCore(equalizedFactory, 3, 4, 4, false)
	for _, ws := range f.Stations {
		core.Join(ws)
	}
	core.SetFaults(plan.NewInjector(99))
	tasks := task.Fixed(400, 5)
	core.queues[2].Append(tasks[:200])
	core.queues[3].Append(tasks[200:])
	core.total += 400
	return core
}

// TestCrossStealLossTimeoutRetryDegrade drives the loss-aware steal path to
// its end state: with (practically) certain parcel loss, a requesting group
// times out on the round clock, retries through its budget with backoff, and
// then degrades to intra-cluster scanning for good.
func TestCrossStealLossTimeoutRetryDegrade(t *testing.T) {
	core := crossLossCore(fault.Plan{Seed: 5, LossProb: 0.999999, StealRetries: 2})
	ctx := context.Background()
	degraded := false
	for round := 0; round < 60 && !degraded; round++ {
		if err := core.PlayRound(ctx, 2); err != nil {
			t.Fatal(err)
		}
		degraded = core.crossDead[0] || core.crossDead[1]
	}
	if !degraded {
		t.Fatal("no group degraded after 60 rounds of certain loss")
	}
	if core.TasksLost() == 0 {
		t.Error("lost parcels not counted")
	}
	if core.flight.Lost() == 0 {
		t.Error("flight ledger did not record transit losses")
	}
	completed := 0
	for _, rep := range core.Reports() {
		completed += rep.TasksCompleted
	}
	if completed+core.Pending()+core.TasksLost() != core.Total() {
		t.Errorf("conservation broken: %d + %d + %d ≠ %d",
			completed, core.Pending(), core.TasksLost(), core.Total())
	}
}

// TestCrossStealArrivalClearsOutstandingRequest pins the no-false-timeout
// property: a crossing that succeeds lands before the timeout check at the
// same barrier (Arrive runs first), so a lossless run never counts a
// failure, never backs off, and never degrades — even with the loss-aware
// machinery armed.
func TestCrossStealArrivalClearsOutstandingRequest(t *testing.T) {
	core := crossLossCore(fault.Plan{Seed: 5, LossProb: 1e-12, StealRetries: 1})
	ctx := context.Background()
	for round := 0; round < 40; round++ {
		if err := core.PlayRound(ctx, 1); err != nil {
			t.Fatal(err)
		}
		if core.crossFails[0]+core.crossFails[1] != 0 {
			t.Fatalf("round %d: false timeout counted on a lossless run", round)
		}
	}
	if core.crossDead[0] || core.crossDead[1] {
		t.Error("a lossless run degraded a group")
	}
	if core.TasksLost() != 0 {
		t.Errorf("lost %d tasks with no losses injected", core.TasksLost())
	}
	if core.Steals() == 0 {
		t.Error("the dry cluster never stole across")
	}
}

// A parcel maturing into a group whose requester crashed while it was in
// flight is lost on arrival — there is nobody left to receive it.
func TestParcelArrivingAtCrashedGroupIsLost(t *testing.T) {
	core := crossLossCore(fault.Plan{Seed: 5, LossProb: 1e-12, StealRetries: 1})
	ctx := context.Background()
	// Play until a parcel is in flight, then crash both cluster-0 stations.
	for round := 0; round < 40 && core.InFlight() == 0; round++ {
		if err := core.PlayRound(ctx, 1); err != nil {
			t.Fatal(err)
		}
	}
	if core.InFlight() == 0 {
		t.Fatal("no parcel ever departed")
	}
	core.Crash(0)
	core.Crash(1)
	lostBefore := core.TasksLost()
	for round := 0; round < 40 && core.InFlight() > 0; round++ {
		if err := core.PlayRound(ctx, 1); err != nil {
			t.Fatal(err)
		}
	}
	if core.InFlight() != 0 {
		t.Fatal("parcel never matured")
	}
	if core.TasksLost() <= lostBefore {
		t.Error("parcel arriving at the crashed group was not lost")
	}
}

// TestRunDeterministicFaultPlanReplays is the acceptance pin: an active
// fault plan realizes bit-identically from its seed at any worker count, and
// the loss accounting conserves the job.
func TestRunDeterministicFaultPlanReplays(t *testing.T) {
	job := Job{Tasks: task.Uniform(600, 5, 40, 3)}
	f := testFarm(8, station.Office{MeanIdle: 2500, MaxP: 2})
	f.Shards = 8
	f.OpportunitiesPerStation = 20
	f.Topology = Topology{Clusters: 2, CrossLatency: 4}
	f.Faults = fault.Plan{Seed: 11, CrashProb: 0.02, LossProb: 0.3}
	a, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("faulted run diverged between workers 1 and 8")
	}
	if a.TasksCompleted+a.TasksLeft+a.TasksLost != len(job.Tasks) {
		t.Errorf("conservation broken: %d + %d + %d ≠ %d",
			a.TasksCompleted, a.TasksLeft, a.TasksLost, len(job.Tasks))
	}
}

// A scheduled crash at a known round destroys the orphaned group's queue —
// work is genuinely lost relative to the fault-free run.
func TestRunDeterministicScheduledCrashLosesWork(t *testing.T) {
	job := Job{Tasks: task.Uniform(600, 5, 40, 3)}
	f := testFarm(8, station.Office{MeanIdle: 2500, MaxP: 2})
	f.Shards = 8
	f.OpportunitiesPerStation = 20
	base, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	f.Faults = fault.Plan{Crashes: []fault.Crash{{Round: 1, Station: 2}, {Round: 1, Station: 5}}}
	crashed, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if crashed.TasksLost == 0 {
		t.Error("scheduled crashes destroyed nothing")
	}
	if crashed.TasksCompleted+crashed.TasksLeft+crashed.TasksLost != len(job.Tasks) {
		t.Errorf("conservation broken: %d + %d + %d ≠ %d",
			crashed.TasksCompleted, crashed.TasksLeft, crashed.TasksLost, len(job.Tasks))
	}
	if crashed.TasksCompleted > base.TasksCompleted {
		t.Errorf("crashes increased completion: %d > %d", crashed.TasksCompleted, base.TasksCompleted)
	}
}

// An inactive plan (a bare retry budget) arms nothing: the run is
// bit-identical to one without a Faults field at all.
func TestRunDeterministicInactiveFaultPlanPinned(t *testing.T) {
	job := Job{Tasks: task.Uniform(400, 5, 40, 3)}
	f := testFarm(8, station.Office{MeanIdle: 2500, MaxP: 2})
	f.Shards = 4
	base, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	f.Faults = fault.Plan{StealRetries: 4}
	got, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, base) {
		t.Error("inactive fault plan perturbed the run")
	}
}

func TestFaultPlanRejections(t *testing.T) {
	job := Job{Tasks: task.Fixed(40, 5)}
	f := testFarm(4, station.Office{MeanIdle: 2500, MaxP: 2})
	f.Faults = fault.Plan{KillRound: 3}
	if _, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 1, 1); err == nil || !strings.Contains(err.Error(), "KillRound") {
		t.Errorf("batch run accepted a scheduler kill: %v", err)
	}
	f.Faults = fault.Plan{CrashProb: 2}
	if _, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 1, 1); err == nil {
		t.Error("malformed plan accepted")
	}
}

// The whole fleet crashing ends the run early with everything queued lost.
func TestRunDeterministicFleetWipeout(t *testing.T) {
	job := Job{Tasks: task.Fixed(80, 5)}
	f := testFarm(4, station.Office{MeanIdle: 2500, MaxP: 2})
	f.Shards = 4
	f.OpportunitiesPerStation = 20
	f.Faults = fault.Plan{Crashes: []fault.Crash{
		{Round: 1, Station: 0}, {Round: 1, Station: 1}, {Round: 1, Station: 2}, {Round: 1, Station: 3},
	}}
	res, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksLeft != 0 {
		t.Errorf("wipeout left %d tasks queued; they died with their hosts", res.TasksLeft)
	}
	if res.TasksCompleted+res.TasksLost != len(job.Tasks) {
		t.Errorf("conservation broken: %d + %d ≠ %d", res.TasksCompleted, res.TasksLost, len(job.Tasks))
	}
}
