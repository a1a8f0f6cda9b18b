package now

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"cyclesteal/internal/farm"
	"cyclesteal/internal/mc"
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/stats"
	"cyclesteal/internal/task"
)

func testFleet(nStations int, owner OwnerModel) Fleet {
	stations := make([]Workstation, nStations)
	for i := range stations {
		stations[i] = Workstation{ID: i, Owner: owner, Setup: 10}
	}
	return Fleet{farm.Farm{Stations: stations, OpportunitiesPerStation: 5}}
}

func equalizedFactory(ws Workstation, c Contract) (model.EpisodeScheduler, error) {
	return sched.NewAdaptiveEqualized(ws.Setup)
}

func TestFleetRunAggregates(t *testing.T) {
	f := testFleet(8, Office{MeanIdle: 5000, MaxP: 2})
	res, err := f.Run(context.Background(), equalizedFactory, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stations) != 8 {
		t.Fatalf("stations = %d", len(res.Stations))
	}
	var work, lifespan quant.Tick
	for _, s := range res.Stations {
		if s.Opportunities == 0 {
			t.Errorf("station %d ran no opportunities", s.Station)
		}
		work += s.Work
		lifespan += s.LifespanTicks
	}
	if work != res.Work || lifespan != res.Lifespan {
		t.Errorf("aggregation mismatch: %d/%d vs %d/%d", work, lifespan, res.Work, res.Lifespan)
	}
	if res.Work < 1 {
		t.Error("fleet banked no work")
	}
	u := res.Utilization()
	if u <= 0 || u >= 1 {
		t.Errorf("utilization = %g, want within (0, 1)", u)
	}
}

// Acceptance pin for the unification: the whole FleetResult — every
// per-station field, not just the aggregates — is bit-identical at
// workers=1 and workers=8, with and without private task bags.
func TestFleetRunBitIdenticalAcrossWorkerCounts(t *testing.T) {
	tasksPer := func(ws Workstation) *task.Bag {
		return task.NewBag(task.Uniform(300, 10, 100, int64(ws.ID)))
	}
	for _, bags := range []func(Workstation) *task.Bag{nil, tasksPer} {
		base := testFleet(10, Laptop{MeanIdle: 3000})
		base.Workers = 1
		want, err := base.Run(context.Background(), equalizedFactory, 7, bags)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 8, 32} {
			f := base
			f.Workers = workers
			got, err := f.Run(context.Background(), equalizedFactory, 7, bags)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("workers=%d (bags=%v): FleetResult diverged from workers=1:\n%+v\nvs\n%+v",
					workers, bags != nil, got, want)
			}
		}
	}
}

func TestFleetRunWithTasks(t *testing.T) {
	f := testFleet(4, Overnight{Window: 20000})
	res, err := f.Run(context.Background(), equalizedFactory, 3, func(ws Workstation) *task.Bag {
		return task.NewBag(task.Uniform(500, 10, 100, int64(ws.ID)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks == 0 {
		t.Error("no tasks completed fleet-wide")
	}
	if res.TaskWork > res.Work {
		t.Errorf("task work %d exceeds fluid work %d", res.TaskWork, res.Work)
	}
}

// Private bags never pool: even with every bag drained mid-run, stations
// keep playing all their opportunities (fluid mode keeps banking work).
func TestFleetRunsAllOpportunitiesDespiteEmptyBags(t *testing.T) {
	f := testFleet(3, Overnight{Window: 20000})
	f.OpportunitiesPerStation = 7
	res, err := f.Run(context.Background(), equalizedFactory, 5, func(ws Workstation) *task.Bag {
		return task.NewBag(task.Fixed(1, 10)) // one tiny task, done in the first period
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Stations {
		if s.Opportunities != 7 {
			t.Errorf("station %d played %d opportunities, want all 7", s.Station, s.Opportunities)
		}
	}
}

func TestFleetEmpty(t *testing.T) {
	if _, err := (Fleet{}).Run(context.Background(), equalizedFactory, 1, nil); err == nil {
		t.Error("empty fleet accepted")
	}
}

func TestFleetFactoryErrorPropagates(t *testing.T) {
	f := testFleet(2, Laptop{MeanIdle: 1000})
	_, err := f.Run(context.Background(), func(ws Workstation, c Contract) (model.EpisodeScheduler, error) {
		return nil, errTest
	}, 1, nil)
	if err == nil {
		t.Error("factory error swallowed")
	}
}

// Bugfix regression: the old station pool returned on the first failing
// station, dropping the rest. Every failure must surface, joined in station
// order like farm.Run.
func TestFleetRunJoinsAllStationErrors(t *testing.T) {
	f := testFleet(4, Laptop{MeanIdle: 1000})
	f.Workers = 2
	_, err := f.Run(context.Background(), func(ws Workstation, c Contract) (model.EpisodeScheduler, error) {
		if ws.ID%2 == 1 {
			return nil, errTest
		}
		return sched.NewAdaptiveEqualized(ws.Setup)
	}, 1, nil)
	if err == nil {
		t.Fatal("factory errors swallowed")
	}
	msg := err.Error()
	for _, want := range []string{"station 1", "station 3"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error missing %q: %v", want, msg)
		}
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }

func TestMaliciousFleetUnderperformsBenign(t *testing.T) {
	benign := testFleet(6, Overnight{Window: 20000})
	benignRes, err := benign.Run(context.Background(), equalizedFactory, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	malicious := testFleet(6, Malicious{Base: Overnight{Window: 20000}, Setup: 10})
	maliciousRes, err := malicious.Run(context.Background(), equalizedFactory, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if maliciousRes.Work >= benignRes.Work {
		t.Errorf("malicious owners (%d) should cost work vs benign (%d)", maliciousRes.Work, benignRes.Work)
	}
}

// --- replication ---------------------------------------------------------------

func TestFleetReplicateDeterministicAcrossWorkers(t *testing.T) {
	f := testFleet(6, Office{MeanIdle: 800, MaxP: 2})
	tasksPer := func(ws Workstation) *task.Bag {
		return task.NewBag(task.Exponential(100, 30, int64(ws.ID)))
	}
	run := func(workers int) []stats.Summary {
		sums, err := f.Replicate(context.Background(), equalizedFactory, mc.Config{Trials: 6, Seed: 9, Workers: workers}, tasksPer)
		if err != nil {
			t.Fatal(err)
		}
		return sums
	}
	a, b := run(1), run(8)
	if len(a) != NumFleetMetrics || len(b) != NumFleetMetrics {
		t.Fatalf("metric counts %d/%d, want %d", len(a), len(b), NumFleetMetrics)
	}
	for m := range a {
		if a[m] != b[m] {
			t.Errorf("metric %d differs across worker budgets:\n  w1: %+v\n  w8: %+v", m, a[m], b[m])
		}
	}
}

func TestFleetReplicateMetricSanity(t *testing.T) {
	f := testFleet(4, Office{MeanIdle: 600, MaxP: 2})
	sums, err := f.Replicate(context.Background(), equalizedFactory, mc.Config{Trials: 5, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	util := sums[FleetMetricUtilization]
	if util.Min < 0 || util.Max > 1 {
		t.Errorf("utilization outside [0,1]: %+v", util)
	}
	if sums[FleetMetricWork].Mean <= 0 {
		t.Errorf("fleet banked no work: %+v", sums[FleetMetricWork])
	}
	if sums[FleetMetricLifespan].Min <= 0 {
		t.Errorf("no lifespan offered: %+v", sums[FleetMetricLifespan])
	}
	if sums[FleetMetricTasks].Mean != 0 || sums[FleetMetricTaskWork].Mean != 0 {
		t.Errorf("fluid-only fleet reported task work: %+v", sums[FleetMetricTasks])
	}
	if sums[FleetMetricWork].N != 5 {
		t.Errorf("trial count %d, want 5", sums[FleetMetricWork].N)
	}
}

func TestFleetReplicateRejectsBadConfig(t *testing.T) {
	f := testFleet(2, Office{MeanIdle: 100, MaxP: 1})
	if _, err := f.Replicate(context.Background(), equalizedFactory, mc.Config{Trials: 0, Seed: 1}, nil); err == nil {
		t.Error("trials=0 accepted")
	}
}

// unkeyed hides a scheduler's EpisodeMemoKey, so a station never reuses
// its instances: every contract plays the factory's fresh scheduler.
type unkeyed struct{ model.EpisodeScheduler }

// AppendEpisode keeps the wrapped scheduler's append path.
func (u unkeyed) AppendEpisode(dst model.TickSchedule, p int, L quant.Tick) model.TickSchedule {
	return model.AppendEpisode(u.EpisodeScheduler, dst, p, L)
}

// Warm-scheduler reuse must be invisible: the whole FleetResult is
// bit-identical whether stations replay their kept scheduler or play every
// contract's fresh one, at Workers 1 and 8, with and without private task
// bags.
func TestFleetRunReuseInvisible(t *testing.T) {
	tasksPer := func(ws Workstation) *task.Bag {
		return task.NewBag(task.Uniform(200, 10, 80, int64(ws.ID)))
	}
	hidden := func(ws Workstation, c Contract) (model.EpisodeScheduler, error) {
		s, err := equalizedFactory(ws, c)
		if err != nil {
			return nil, err
		}
		return unkeyed{s}, nil
	}
	for _, bags := range []func(Workstation) *task.Bag{nil, tasksPer} {
		base := testFleet(12, Office{MeanIdle: 2500, MaxP: 2})
		base.Workers = 1
		want, err := base.Run(context.Background(), equalizedFactory, 13, bags)
		if err != nil {
			t.Fatal(err)
		}
		for _, factory := range []SchedulerFactory{equalizedFactory, hidden} {
			for _, workers := range []int{1, 8} {
				f := base
				f.Workers = workers
				got, err := f.Run(context.Background(), factory, 13, bags)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("workers=%d (bags=%v): FleetResult diverged", workers, bags != nil)
				}
			}
		}
	}
}

// TestFleetReplicateShardsBitIdentical pins the distribution contract on the
// survey path: disjoint shard subsets, run in any order, merge to the exact
// Replicate summaries.
func TestFleetReplicateShardsBitIdentical(t *testing.T) {
	f := testFleet(6, Office{MeanIdle: 600, MaxP: 2})
	tasksPer := func(ws Workstation) *task.Bag {
		return task.NewBag(task.Exponential(60, 30, int64(ws.ID)))
	}
	cfg := mc.Config{Trials: 70, Seed: 4}
	want, err := f.Replicate(context.Background(), equalizedFactory, cfg, tasksPer)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 3} {
		var shards []mc.ShardAccums
		for p := parts - 1; p >= 0; p-- {
			var ids []int
			for s := p; s < mc.Shards; s += parts {
				ids = append(ids, s)
			}
			part, err := f.ReplicateShards(context.Background(), equalizedFactory, cfg, tasksPer, ids)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, part...)
		}
		sums, err := mc.MergeShards(NumFleetMetrics, shards)
		if err != nil {
			t.Fatal(err)
		}
		for m := range want {
			if sums[m] != want[m] {
				t.Errorf("parts=%d metric %d diverged:\n got %+v\nwant %+v", parts, m, sums[m], want[m])
			}
		}
	}
}
