package farm

// Regression tests for the fleet layer: early-exit starvation on a late
// kill, the per-station lifespan accounting, and the Private survey.

import (
	"context"
	"math/rand"
	"testing"

	"cyclesteal/internal/adversary"
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/station"
	"cyclesteal/internal/task"
)

// killAt interrupts at a fixed episode offset while budget remains.
type killAt struct{ at quant.Tick }

func (k killAt) NextInterrupt(p int, L quant.Tick, ep model.TickSchedule) (quant.Tick, bool) {
	if p < 1 || k.at > L {
		return 0, false
	}
	return k.at, true
}

// lateKillOwner offers one generous contract whose single period is killed
// at its second-to-last tick — in-flight tasks die late and come back — and
// only unusable 1-tick contracts after that, so this station can never
// finish the job itself.
type lateKillOwner struct{ calls int }

func (o *lateKillOwner) Sample(rng *rand.Rand) station.Contract {
	o.calls++
	if o.calls == 1 {
		return station.Contract{U: 1000, P: 1}
	}
	return station.Contract{U: 1, P: 0}
}

func (o *lateKillOwner) Interrupter(rng *rand.Rand, c station.Contract) sim.Interrupter {
	return killAt{at: 999}
}

func (o *lateKillOwner) Name() string { return "latekill" }

// benignOwner offers large contracts it never interrupts.
type benignOwner struct{}

func (benignOwner) Sample(rng *rand.Rand) station.Contract { return station.Contract{U: 5000, P: 0} }

func (benignOwner) Interrupter(rng *rand.Rand, c station.Contract) sim.Interrupter {
	return adversary.None{}
}

func (benignOwner) Name() string { return "benign" }

// Bugfix regression: a task killed late in its period must not be stranded
// by the early-exit check. The kill returns it to its group's queue before
// the round barrier, so the done-check finds it pending, the idle group
// steals it, station 1 completes it, and only then does the fleet stop
// borrowing.
func TestFarmRunNoEarlyExitStarvationOnLateKill(t *testing.T) {
	stations := []station.Workstation{
		{ID: 0, Owner: &lateKillOwner{}, Setup: 10},
		{ID: 1, Owner: benignOwner{}, Setup: 10},
	}
	f := Farm{Stations: stations, OpportunitiesPerStation: 300, Shards: 2}
	singlePeriod := func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
		return sched.SinglePeriod{}, nil
	}
	res, err := f.RunDeterministic(context.Background(), deal(f, task.Fixed(1, 50)), singlePeriod, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksLeft != 0 {
		t.Fatalf("late-killed task stranded: %d left", res.TasksLeft)
	}
	if res.Stations[1].TasksCompleted != 1 {
		t.Errorf("station 1 should have rescued the task, completed %d", res.Stations[1].TasksCompleted)
	}
	if res.Stations[0].TasksCompleted != 0 {
		t.Errorf("the late-kill station cannot complete tasks, reported %d", res.Stations[0].TasksCompleted)
	}
	if res.Stations[0].KilledTicks == 0 {
		t.Error("station 0's period was never killed; the test exercised nothing")
	}
	if opps := res.Stations[1].Opportunities; opps >= 300 {
		t.Errorf("station 1 never stopped borrowing after completion: %d opportunities", opps)
	}
}

// The per-station lifespan accounting holds in every layout: a station
// banks no more work, and idles no more, than the lifespan it was offered.
func TestFarmRunAccountsLifespan(t *testing.T) {
	tasks := uniform(500, 5, 50, 1)
	for name, f := range layouts(testFarm(4, station.Office{MeanIdle: 3000, MaxP: 2})) {
		res, err := f.RunDeterministic(context.Background(), deal(f, tasks), equalizedFactory, 11, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Stations {
			if s.Opportunities > 0 && s.LifespanTicks < 1 {
				t.Errorf("%s: station %d played %d opportunities over %d lifespan", name, s.Station, s.Opportunities, s.LifespanTicks)
			}
			if s.FluidWork > s.LifespanTicks {
				t.Errorf("%s: station %d banked %d work over %d lifespan", name, s.Station, s.FluidWork, s.LifespanTicks)
			}
			if s.IdleTicks > s.LifespanTicks {
				t.Errorf("%s: station %d idled %d of %d lifespan", name, s.Station, s.IdleTicks, s.LifespanTicks)
			}
		}
	}
}

// --- the Private survey -------------------------------------------------------

// Private queues never pool and never end the run: even with every queue
// drained mid-run, stations keep playing all their opportunities (fluid
// mode keeps banking work).
func TestFleetRunsAllOpportunitiesDespiteEmptyBags(t *testing.T) {
	f := privateFarm(testFarm(3, station.Overnight{Window: 20000}))
	f.OpportunitiesPerStation = 7
	// One tiny task per station, done in its first period.
	res, err := f.RunDeterministic(context.Background(), deal(f, task.Fixed(3, 10)), equalizedFactory, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksLeft != 0 {
		t.Fatalf("%d tasks left", res.TasksLeft)
	}
	for _, s := range res.Stations {
		if s.Opportunities != 7 {
			t.Errorf("station %d played %d opportunities, want all 7", s.Station, s.Opportunities)
		}
		if s.TasksCompleted != 1 {
			t.Errorf("station %d completed %d tasks, want its own one", s.Station, s.TasksCompleted)
		}
	}
}

func TestMaliciousFleetUnderperformsBenign(t *testing.T) {
	survey := func(owner station.OwnerModel) Result {
		f := privateFarm(testFarm(6, owner))
		f.OpportunitiesPerStation = 5
		res, err := f.RunDeterministic(context.Background(), Job{}, equalizedFactory, 11, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	benign := survey(station.Overnight{Window: 20000})
	malicious := survey(station.Malicious{Base: station.Overnight{Window: 20000}, Setup: 10})
	if malicious.FluidWork >= benign.FluidWork {
		t.Errorf("malicious owners (%d) should cost work vs benign (%d)", malicious.FluidWork, benign.FluidWork)
	}
}
