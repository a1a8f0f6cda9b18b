package farm

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cyclesteal/internal/lazyrand"
	"cyclesteal/internal/mc"
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/station"
	"cyclesteal/internal/stats"
	"cyclesteal/internal/task"
)

func equalizedFactory(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
	return sched.NewAdaptiveEqualized(ws.Setup)
}

func testFarm(n int, owner station.OwnerModel) Farm {
	stations := make([]station.Workstation, n)
	for i := range stations {
		stations[i] = station.Workstation{ID: i, Owner: owner, Setup: 10}
	}
	return Farm{Stations: stations, OpportunitiesPerStation: 10}
}

// privateFarm is f in the Private layout.
func privateFarm(f Farm) Farm {
	f.Private = true
	return f
}

// layouts names f in every layout a run can take: one shared queue,
// auto-sharded groups, and the Private survey.
func layouts(f Farm) map[string]Farm {
	shared := f
	shared.Shards = 1
	return map[string]Farm{"shared": shared, "sharded": f, "private": privateFarm(f)}
}

// uniform returns n tasks with IDs 0..n−1 and durations uniform in
// [lo, hi] ticks, drawn from one seeded stream.
func uniform(n int, lo, hi quant.Tick, seed int64) []task.Task {
	rng := lazyrand.New(seed)
	out := make([]task.Task, n)
	for i := range out {
		out[i] = task.Task{ID: i, Duration: lo + rng.Int63n(hi-lo+1)}
	}
	return out
}

// exponential returns n tasks with IDs 0..n−1 and exponential durations of
// the given mean, cut to whole ticks of at least 1, drawn from one seeded
// stream.
func exponential(n int, mean float64, seed int64) []task.Task {
	rng := lazyrand.New(seed)
	out := make([]task.Task, n)
	for i := range out {
		out[i] = task.Task{ID: i, Duration: max(1, quant.Tick(rng.ExpFloat64()*mean))}
	}
	return out
}

// deal is the job of tasks dealt over f's groups the way a batch intake
// deals it: task.Deal's hands, each with its smallest duration. No tasks is
// the empty job. A run consumes the job, so each run deals afresh.
func deal(f Farm, tasks []task.Task) Job {
	if len(tasks) == 0 {
		return Job{}
	}
	hands := task.Deal(tasks, f.Groups())
	job := Job{Dealt: make([]task.Hand, len(hands))}
	for g, h := range hands {
		job.Dealt[g].Tasks = h
		for _, t := range h {
			if job.Dealt[g].MinDur == 0 || t.Duration < job.Dealt[g].MinDur {
				job.Dealt[g].MinDur = t.Duration
			}
		}
	}
	return job
}

// replicate is the whole replication study of the job: every mc shard,
// merged in process, as fleet.Replicate runs it.
func replicate(f Farm, job Job, cfg mc.Config) ([]stats.Summary, error) {
	all := make([]int, mc.Shards)
	for s := range all {
		all[s] = s
	}
	shards, err := f.ReplicateShards(context.Background(), job, equalizedFactory, cfg, false, all)
	if err != nil {
		return nil, err
	}
	return mc.MergeShards(NumMetrics, shards)
}

// playCore is RunDeterministic's batch loop, without faults, over a Core
// whose queues take the job as a task list through AddTasks, the service's
// intake: the reference a dealt job's run is pinned to.
func playCore(f Farm, tasks []task.Task, seed int64, workers int) (Result, error) {
	core := f.NewCore(equalizedFactory, seed, f.Groups(), len(f.Stations), false)
	for _, ws := range f.Stations {
		core.Join(ws)
	}
	core.AddTasks(tasks)
	for round := 0; round < max(f.OpportunitiesPerStation, 1); round++ {
		if !f.Private && core.Pending() == 0 {
			break
		}
		if err := core.PlayRound(context.Background(), workers); err != nil {
			return Result{}, err
		}
	}
	return core.Result(), nil
}

func TestFarmCompletesSmallJob(t *testing.T) {
	f := testFarm(6, station.Overnight{Window: 20000})
	f.Shards = 1 // every station plays against the one queue
	tasks := uniform(200, 5, 50, 1)
	job := deal(f, tasks)
	total := job.TotalWork()
	if total != task.Durations(tasks) {
		t.Fatalf("dealt job's total work %d, its tasks' %d", total, task.Durations(tasks))
	}
	res, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 6 stations × 10 × 20000 ticks of lifespan dwarf the job: it must finish.
	if res.TasksLeft != 0 {
		t.Errorf("%d tasks left of %d", res.TasksLeft, len(tasks))
	}
	if res.TasksCompleted != len(tasks) {
		t.Errorf("completed %d, want %d", res.TasksCompleted, len(tasks))
	}
	if got := res.CompletionFraction(total); got != 1 {
		t.Errorf("completion fraction %g", got)
	}
	if res.TaskWork != total {
		t.Errorf("task work %d ≠ job total %d", res.TaskWork, total)
	}
}

// Accounting invariant: completed + left == job size, per-station reports
// sum to the aggregate, and completed task work never exceeds the fluid
// work banked, in every layout under every worker count. The fluid survey
// (the empty job) completes nothing, plays every station's every
// opportunity, and banks some but not all of the lifespan it is offered.
func TestFarmConservationAcrossWorkerCounts(t *testing.T) {
	tasks := uniform(3000, 5, 80, 2)
	base := testFarm(8, station.Laptop{MeanIdle: 3000})
	type input struct {
		f     Farm
		tasks []task.Task
	}
	inputs := map[string]input{"empty job": {privateFarm(base), nil}}
	for name, f := range layouts(base) {
		inputs[name] = input{f, tasks}
	}
	for name, in := range inputs {
		t.Run(name, func(t *testing.T) {
			f, tasks := in.f, in.tasks
			for _, workers := range []int{1, 2, 8} {
				res, err := f.RunDeterministic(context.Background(), deal(f, tasks), equalizedFactory, 7, workers)
				if err != nil {
					t.Fatal(err)
				}
				if res.TasksCompleted+res.TasksLeft != len(tasks) {
					t.Errorf("workers=%d: %d + %d ≠ %d", workers, res.TasksCompleted, res.TasksLeft, len(tasks))
				}
				var sumTasks int
				var sumWork, sumFluid, lifespan quant.Tick
				for _, s := range res.Stations {
					sumTasks += s.TasksCompleted
					sumWork += s.TaskWork
					sumFluid += s.FluidWork
					lifespan += s.LifespanTicks
				}
				if sumTasks != res.TasksCompleted || sumWork != res.TaskWork || sumFluid != res.FluidWork {
					t.Errorf("workers=%d: station totals %d/%d/%d vs aggregate %d/%d/%d",
						workers, sumTasks, sumWork, sumFluid, res.TasksCompleted, res.TaskWork, res.FluidWork)
				}
				// Task work never exceeds fluid capacity.
				if res.TaskWork > res.FluidWork {
					t.Errorf("workers=%d: task work %d > fluid %d", workers, res.TaskWork, res.FluidWork)
				}
				if len(tasks) > 0 {
					if res.TasksCompleted == 0 {
						t.Errorf("workers=%d: no tasks completed fleet-wide", workers)
					}
					continue
				}
				for _, s := range res.Stations {
					if s.Opportunities != f.OpportunitiesPerStation {
						t.Errorf("workers=%d: station %d played %d of %d opportunities", workers, s.Station, s.Opportunities, f.OpportunitiesPerStation)
					}
				}
				if res.FluidWork < 1 || res.FluidWork >= lifespan {
					t.Errorf("workers=%d: survey banked %d work over %d lifespan, want utilization within (0, 1)", workers, res.FluidWork, lifespan)
				}
			}
		})
	}
}

func TestFarmEmptyFleet(t *testing.T) {
	for name, f := range map[string]Farm{"sharded": {}, "private": {Private: true}} {
		t.Run(name, func(t *testing.T) {
			if _, err := f.RunDeterministic(context.Background(), Job{}, equalizedFactory, 1, 1); err == nil {
				t.Error("empty fleet accepted")
			}
		})
	}
}

func TestFarmFactoryErrorPropagates(t *testing.T) {
	for name, f := range layouts(testFarm(3, station.Laptop{MeanIdle: 2000})) {
		t.Run(name, func(t *testing.T) {
			_, err := f.RunDeterministic(context.Background(), deal(f, task.Fixed(100, 5)), func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
				return nil, errBoom
			}, 1, 0)
			if err == nil {
				t.Error("factory error swallowed")
			}
		})
	}
}

var errBoom = &boomError{}

type boomError struct{}

func (*boomError) Error() string { return "boom" }

func TestFarmStopsBorrowingWhenJobDone(t *testing.T) {
	// A tiny job against a huge fleet: most opportunities should never start.
	f := testFarm(4, station.Overnight{Window: 50000})
	f.OpportunitiesPerStation = 50
	res, err := f.RunDeterministic(context.Background(), deal(f, task.Fixed(5, 10)), equalizedFactory, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksLeft != 0 {
		t.Fatalf("tiny job unfinished: %d left", res.TasksLeft)
	}
	var opportunities int
	for _, s := range res.Stations {
		opportunities += s.Opportunities
	}
	if opportunities >= 4*50 {
		t.Errorf("farm kept borrowing after the job finished: %d opportunities", opportunities)
	}
}

func TestImbalance(t *testing.T) {
	r := Result{Stations: []StationReport{
		{Station: 0, TaskWork: 100},
		{Station: 1, TaskWork: 300},
		{Station: 2, TaskWork: 200},
	}}
	if got := r.Imbalance(); got != 1.5 {
		t.Errorf("imbalance = %g, want 1.5 (300 / mean 200)", got)
	}
	if (Result{}).Imbalance() != 1 {
		t.Error("empty imbalance should be 1")
	}
	zero := Result{Stations: []StationReport{{Station: 0}}}
	if zero.Imbalance() != 1 {
		t.Error("all-zero imbalance should be 1")
	}
}

func TestCompletionFractionEmptyJob(t *testing.T) {
	if (Result{}).CompletionFraction(Job{}.TotalWork()) != 1 {
		t.Error("empty job should read complete")
	}
}

func TestFarmMaliciousOwnersStillFinish(t *testing.T) {
	base := station.Overnight{Window: 30000}
	f := testFarm(5, station.Malicious{Base: base, Setup: 10})
	res, err := f.RunDeterministic(context.Background(), deal(f, uniform(500, 5, 40, 9)), equalizedFactory, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksLeft != 0 {
		t.Errorf("malicious owners prevented completion: %d left (interrupts %d)", res.TasksLeft, res.Interrupts)
	}
	if res.Interrupts == 0 {
		t.Error("malicious fleet never interrupted")
	}
}

func TestReplicateDeterministicAcrossWorkers(t *testing.T) {
	shared := testFarm(5, station.Office{MeanIdle: 500, MaxP: 2})
	tasks := exponential(400, 20, 3)
	for _, in := range []struct {
		name string
		f    Farm
		job  Job
	}{
		{"shared job", shared, deal(shared, tasks)},
		{"private", privateFarm(shared), deal(privateFarm(shared), tasks)},
		{"empty job", privateFarm(shared), Job{}},
	} {
		t.Run(in.name, func(t *testing.T) {
			run := func(workers int) []stats.Summary {
				sums, err := replicate(in.f, in.job, mc.Config{Trials: 6, Seed: 9, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return sums
			}
			a, b := run(1), run(8)
			if len(a) != NumMetrics || len(b) != NumMetrics {
				t.Fatalf("metric counts %d/%d, want %d", len(a), len(b), NumMetrics)
			}
			for m := range a {
				if a[m].Mean != b[m].Mean || a[m].Std != b[m].Std || a[m].Min != b[m].Min || a[m].Max != b[m].Max {
					t.Errorf("metric %d differs across worker counts: %+v vs %+v", m, a[m], b[m])
				}
			}
		})
	}
}

func TestReplicateMetricSanity(t *testing.T) {
	f := testFarm(4, station.Office{MeanIdle: 400, MaxP: 2})
	t.Run("shared job", func(t *testing.T) {
		sums, err := replicate(f, deal(f, exponential(300, 20, 7)), mc.Config{Trials: 5, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		frac := sums[MetricCompletionFrac]
		if frac.Min < 0 || frac.Max > 1 {
			t.Errorf("completion fraction outside [0,1]: %+v", frac)
		}
		if sums[MetricImbalance].Min < 1 {
			t.Errorf("imbalance below 1: %+v", sums[MetricImbalance])
		}
		if sums[MetricTasksCompleted].Mean <= 0 {
			t.Errorf("no tasks completed on average: %+v", sums[MetricTasksCompleted])
		}
		if sums[MetricTasksCompleted].N != 5 {
			t.Errorf("trial count %d, want 5", sums[MetricTasksCompleted].N)
		}
		util := sums[MetricUtilization]
		if util.Min <= 0 || util.Max > 1 {
			t.Errorf("utilization outside (0,1]: %+v", util)
		}
		if sums[MetricLifespan].Min <= 0 || sums[MetricTaskWork].Mean <= 0 {
			t.Errorf("no lifespan %+v or task work %+v", sums[MetricLifespan], sums[MetricTaskWork])
		}
	})

	// A fluid survey banks work over the lifespan it is offered, and no tasks.
	t.Run("empty job", func(t *testing.T) {
		survey, err := replicate(privateFarm(f), Job{}, mc.Config{Trials: 5, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if util := survey[MetricUtilization]; util.Min < 0 || util.Max > 1 {
			t.Errorf("survey utilization outside [0,1]: %+v", util)
		}
		if survey[MetricFluidWork].Mean <= 0 || survey[MetricLifespan].Min <= 0 {
			t.Errorf("survey banked no work %+v over lifespan %+v", survey[MetricFluidWork], survey[MetricLifespan])
		}
		if survey[MetricTasksCompleted].Mean != 0 || survey[MetricTaskWork].Mean != 0 {
			t.Errorf("fluid-only survey reported task work: %+v", survey[MetricTaskWork])
		}
		if survey[MetricFluidWork].N != 5 {
			t.Errorf("trial count %d, want 5", survey[MetricFluidWork].N)
		}
	})
}

func TestReplicateRejectsBadConfig(t *testing.T) {
	f := testFarm(2, station.Office{MeanIdle: 100, MaxP: 1})
	for name, f := range map[string]Farm{"sharded": f, "private": privateFarm(f)} {
		t.Run(name, func(t *testing.T) {
			if _, err := replicate(f, deal(f, task.Fixed(10, 5)), mc.Config{Trials: 0, Seed: 1}); err == nil {
				t.Error("trials=0 accepted")
			}
		})
	}
}

func TestFarmRunShardedCompletesSmallJob(t *testing.T) {
	f := testFarm(6, station.Overnight{Window: 20000}) // Shards 0 = auto-sharded
	tasks := uniform(200, 5, 50, 1)
	res, err := f.RunDeterministic(context.Background(), deal(f, tasks), equalizedFactory, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksLeft != 0 || res.TasksCompleted != len(tasks) {
		t.Errorf("sharded run left %d of %d", res.TasksLeft, len(tasks))
	}
}

func TestFarmShardsSelection(t *testing.T) {
	f := testFarm(6, station.Overnight{Window: 1000})
	if got := f.shardCount(); got != 6 {
		t.Errorf("auto shards on 6 stations = %d, want 6", got)
	}
	f.Shards = 1
	if got := f.Groups(); got != 1 {
		t.Errorf("Shards=1 plays %d groups, want the one shared queue", got)
	}
	f.Shards = 4
	if got := f.Groups(); got != 4 {
		t.Errorf("Shards=4 plays %d groups", got)
	}
	if got := privateFarm(f).Groups(); got != 6 {
		t.Errorf("the private layout plays %d groups, want one per station", got)
	}
	f.Stations = f.Stations[:2]
	f.Shards = 100
	if got := f.shardCount(); got != 2 {
		t.Errorf("shards clamp to fleet size: %d", got)
	}
}

// Bugfix regression: every failing station must surface, not just the
// first, joined in station order.
func TestFarmRunJoinsAllErrors(t *testing.T) {
	for name, f := range layouts(testFarm(4, station.Laptop{MeanIdle: 2000})) {
		t.Run(name, func(t *testing.T) {
			// A job far larger than the fleet can finish, so no station skips
			// its opportunities (and its factory call) just because the queues
			// drained.
			_, err := f.RunDeterministic(context.Background(), deal(f, task.Fixed(100000, 50)), func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
				if ws.ID%2 == 1 {
					return nil, errBoom
				}
				return sched.NewAdaptiveEqualized(ws.Setup)
			}, 1, 2)
			if err == nil {
				t.Fatal("factory errors swallowed")
			}
			msg := err.Error()
			for _, want := range []string{"station 1", "station 3"} {
				if !strings.Contains(msg, want) {
					t.Errorf("joined error missing %q: %v", want, msg)
				}
			}
			if i, j := strings.Index(msg, "station 1"), strings.Index(msg, "station 3"); i > j {
				t.Errorf("errors out of station order: %v", msg)
			}
		})
	}
}

// --- deterministic engine ------------------------------------------------------

func resultsEqual(a, b Result) bool {
	if a.TasksCompleted != b.TasksCompleted || a.TaskWork != b.TaskWork ||
		a.TasksLeft != b.TasksLeft || a.FluidWork != b.FluidWork ||
		a.Interrupts != b.Interrupts || a.Steals != b.Steals || len(a.Stations) != len(b.Stations) {
		return false
	}
	for i := range a.Stations {
		if a.Stations[i] != b.Stations[i] {
			return false
		}
	}
	return true
}

func TestRunDeterministicBitIdenticalAcrossWorkers(t *testing.T) {
	f := testFarm(30, station.Office{MeanIdle: 800, MaxP: 2})
	f.OpportunitiesPerStation = 6
	tasks := exponential(2000, 15, 3)
	for _, in := range []struct {
		name  string
		f     Farm
		tasks []task.Task
	}{
		{"shared job", f, tasks},
		{"private", privateFarm(f), tasks},
		{"empty job", privateFarm(f), nil},
	} {
		t.Run(in.name, func(t *testing.T) {
			base, err := in.f.RunDeterministic(context.Background(), deal(in.f, in.tasks), equalizedFactory, 99, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8, 0} {
				got, err := in.f.RunDeterministic(context.Background(), deal(in.f, in.tasks), equalizedFactory, 99, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !resultsEqual(base, got) {
					t.Errorf("workers=%d: result diverged from serial", workers)
				}
			}
		})
	}
}

// A job dealt over the run's groups plays bit-identically to the same tasks
// dealt into its queues by Core.AddTasks, the service's intake, in every
// layout, clustered and priced crossings included.
func TestRunDeterministicDealtMatchesPlain(t *testing.T) {
	base := testFarm(12, station.Office{MeanIdle: 800, MaxP: 2})
	base.OpportunitiesPerStation = 6
	clustered := base
	clustered.Shards = 6
	clustered.Topology = Topology{Clusters: 3, CrossLatency: 40}
	farms := layouts(base)
	farms["clustered"] = clustered
	tasks := exponential(1500, 15, 4)
	for name, f := range farms {
		t.Run(name, func(t *testing.T) {
			want, err := playCore(f, tasks, 7, 2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.RunDeterministic(context.Background(), deal(f, tasks), equalizedFactory, 7, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(got, want) || got.InFlight != want.InFlight || got.TasksLost != want.TasksLost {
				t.Errorf("dealt job played %+v, AddTasks' queues %+v", got, want)
			}
		})
	}
}

// A dealt job must have one hand per group: every entry point refuses one
// that has another count, up front, naming both counts.
func TestDealtJobRefusals(t *testing.T) {
	f := testFarm(6, station.Overnight{Window: 1000})
	f.Shards = 3
	cfg := mc.Config{Trials: 2, Seed: 1}
	for _, groups := range []int{2, 4} {
		bad := deal(Farm{Stations: f.Stations, Shards: groups}, task.Fixed(30, 5))
		_, runErr := f.RunDeterministic(context.Background(), bad, equalizedFactory, 1, 1)
		_, shardErr := f.ReplicateShards(context.Background(), bad, equalizedFactory, cfg, false, []int{0})
		for name, err := range map[string]error{"RunDeterministic": runErr, "ReplicateShards": shardErr} {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d hands", groups)) || !strings.Contains(err.Error(), "3 groups") {
				t.Errorf("%s of a job dealt over %d hands on 3 groups: error %v, want one naming both counts", name, groups, err)
			}
		}
	}
}

// Replication takes a dealt job as a read-only template and replays it on
// queue storage each mc worker keeps: in every layout, at any worker
// budget, replicating gives exactly what playing each trial on fresh
// queues, fed the tasks by Core.AddTasks, gives, and leaves the template's
// hands as they were.
func TestReplicateDealtMatchesPlain(t *testing.T) {
	shared := testFarm(5, station.Office{MeanIdle: 500, MaxP: 2})
	shared.Stations[2].Owner = station.Laptop{MeanIdle: 300}
	// Group 1's station never plays, so group 0 runs dry and steals tasks
	// group 1 has not touched: they sit right after group 0's hand in its
	// worker's storage.
	idle := testFarm(5, station.Overnight{Window: 2000})
	idle.Stations[1].Owner = station.Overnight{Window: 1}
	tasks := exponential(400, 20, 3)
	for _, in := range []struct {
		name  string
		f     Farm
		tasks []task.Task
	}{
		{"shared job", shared, tasks},
		{"idle neighbour", idle, tasks},
		{"private", privateFarm(shared), tasks},
		{"empty job", privateFarm(shared), nil},
	} {
		t.Run(in.name, func(t *testing.T) {
			f, tasks := in.f, in.tasks
			tmpl := deal(f, tasks)
			before := deal(f, tasks) // an independent copy of the template
			for _, workers := range []int{1, 8} {
				cfg := mc.Config{Trials: 40, Seed: 9, Workers: workers}
				outer, inner := mc.SplitConfig(cfg)
				// Each trial on fresh queues, fed by AddTasks.
				want, err := mc.RunVec(context.Background(), outer, NumMetrics, func(rng *rand.Rand) ([]float64, error) {
					res, err := playCore(f, tasks, rng.Int63(), inner)
					if err != nil {
						return nil, err
					}
					out := make([]float64, NumMetrics)
					fillMetrics(out, res, task.Durations(tasks))
					return out, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if in.name == "idle neighbour" && want[MetricSteals].Min == 0 {
					t.Fatalf("workers=%d: a trial made no steal; the case tests nothing", workers)
				}
				got, err := replicate(f, tmpl, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: replicating the dealt job\n got %+v\nwant %+v", workers, got, want)
				}
			}
			if !reflect.DeepEqual(tmpl, before) {
				t.Error("replication wrote to the dealt template")
			}
		})
	}
}

func TestRunDeterministicConserves(t *testing.T) {
	f := testFarm(12, station.Laptop{MeanIdle: 3000})
	f.OpportunitiesPerStation = 8
	tasks := uniform(3000, 5, 80, 2)
	res, err := f.RunDeterministic(context.Background(), deal(f, tasks), equalizedFactory, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted+res.TasksLeft != len(tasks) {
		t.Errorf("%d + %d ≠ %d", res.TasksCompleted, res.TasksLeft, len(tasks))
	}
	if res.TaskWork > res.FluidWork {
		t.Errorf("task work %d > fluid %d", res.TaskWork, res.FluidWork)
	}
}

func TestRunDeterministicStealsRescueIdleGroupTasks(t *testing.T) {
	// Station 1's owner offers U=1 contracts: it can never run a period, so
	// its group's tasks are only reachable via round-barrier steals.
	stations := []station.Workstation{
		{ID: 0, Owner: station.Overnight{Window: 100000}, Setup: 10},
		{ID: 1, Owner: station.Overnight{Window: 1}, Setup: 10},
	}
	f := Farm{Stations: stations, OpportunitiesPerStation: 10, Shards: 2}
	res, err := f.RunDeterministic(context.Background(), deal(f, task.Fixed(5, 10)), equalizedFactory, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksLeft != 0 {
		t.Fatalf("idle group stranded %d tasks", res.TasksLeft)
	}
	if res.Steals == 0 {
		t.Error("completion required steals but none were counted")
	}
	if res.Stations[1].TasksCompleted != 0 {
		t.Errorf("the U=1 station cannot complete tasks, reported %d", res.Stations[1].TasksCompleted)
	}
}

// Acceptance: a 1000-station fleet replicates bit-identically at workers=1
// and workers=8 — the two-level pool never leaks scheduling into summaries.
func TestReplicateThousandStationsDeterministicAcrossWorkers(t *testing.T) {
	stations := make([]station.Workstation, 1000)
	for i := range stations {
		switch i % 3 {
		case 0:
			stations[i] = station.Workstation{ID: i, Owner: station.Office{MeanIdle: 400, MaxP: 2}, Setup: 10}
		case 1:
			stations[i] = station.Workstation{ID: i, Owner: station.Laptop{MeanIdle: 200}, Setup: 10}
		default:
			stations[i] = station.Workstation{ID: i, Owner: station.Overnight{Window: 500}, Setup: 10}
		}
	}
	f := Farm{Stations: stations, OpportunitiesPerStation: 3}
	job := deal(f, exponential(8000, 15, 5))
	run := func(workers int) []stats.Summary {
		sums, err := replicate(f, job, mc.Config{Trials: 2, Seed: 31, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return sums
	}
	a, b := run(1), run(8)
	for m := range a {
		if a[m] != b[m] {
			t.Errorf("metric %d differs across worker budgets:\n  w1: %+v\n  w8: %+v", m, a[m], b[m])
		}
	}
	if a[MetricTasksCompleted].Mean <= 0 {
		t.Error("fleet completed nothing")
	}
}

// Task conservation holds when every station plays against the one shared
// queue, and the group's simulator buffers pass from station to station
// within every round.
func TestRunReuseConserves(t *testing.T) {
	f := testFarm(16, station.Laptop{MeanIdle: 2000})
	f.Shards = 1
	tasks := uniform(2000, 5, 60, 9)
	res, err := f.RunDeterministic(context.Background(), deal(f, tasks), equalizedFactory, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted+res.TasksLeft != len(tasks) {
		t.Errorf("%d + %d ≠ %d", res.TasksCompleted, res.TasksLeft, len(tasks))
	}
}

// TestReplicateShardsBitIdentical pins the distribution contract at the farm
// layer: running the study's mc shards in disjoint subsets (any grouping, any
// order) and merging the partial accumulators reproduces one whole
// mc.RunVecState of the same trials, with or without per-station columns,
// bit for bit.
func TestReplicateShardsBitIdentical(t *testing.T) {
	shared := testFarm(5, station.Office{MeanIdle: 500, MaxP: 2})
	shared.Stations[2].Owner = station.Laptop{MeanIdle: 300}
	tasks := exponential(400, 20, 3)
	cfg := mc.Config{Trials: 90, Seed: 9}
	for _, in := range []struct {
		name string
		f    Farm
		job  Job
	}{
		{"shared job", shared, deal(shared, tasks)},
		{"private", privateFarm(shared), deal(privateFarm(shared), tasks)},
		{"empty job", privateFarm(shared), Job{}},
	} {
		t.Run(in.name, func(t *testing.T) {
			f, job := in.f, in.job
			outer, inner := mc.SplitConfig(cfg)
			newState, trial := f.trialVec(context.Background(), job, equalizedFactory, inner, false)
			want, err := mc.RunVecState(context.Background(), outer, NumMetrics, newState, trial)
			if err != nil {
				t.Fatal(err)
			}
			newState, trial = f.trialVec(context.Background(), job, equalizedFactory, inner, true)
			wantStations, err := mc.RunVecState(context.Background(), outer, f.ReplicateColumns(true), newState, trial)
			if err != nil {
				t.Fatal(err)
			}
			wantMetrics, wantLifespans := wantStations[:NumMetrics], wantStations[NumMetrics:]

			for _, parts := range []int{1, 4} {
				for _, stationCols := range []bool{false, true} {
					var shards []mc.ShardAccums
					// Run the subsets in reverse to prove location/order independence.
					for p := parts - 1; p >= 0; p-- {
						var ids []int
						for s := p; s < mc.Shards; s += parts {
							ids = append(ids, s)
						}
						part, err := f.ReplicateShards(context.Background(), job, equalizedFactory, cfg, stationCols, ids)
						if err != nil {
							t.Fatal(err)
						}
						shards = append(shards, part...)
					}
					sums, err := mc.MergeShards(f.ReplicateColumns(stationCols), shards)
					if err != nil {
						t.Fatal(err)
					}
					if !stationCols {
						for m := range want {
							if sums[m] != want[m] {
								t.Errorf("parts=%d metric %d diverged from RunVecState:\n got %+v\nwant %+v", parts, m, sums[m], want[m])
							}
						}
						continue
					}
					for m := range wantMetrics {
						if sums[m] != wantMetrics[m] {
							t.Errorf("parts=%d metric %d diverged from RunVec:\n got %+v\nwant %+v", parts, m, sums[m], wantMetrics[m])
						}
					}
					for s := range wantLifespans {
						if sums[NumMetrics+s] != wantLifespans[s] {
							t.Errorf("parts=%d station %d lifespan diverged:\n got %+v\nwant %+v", parts, s, sums[NumMetrics+s], wantLifespans[s])
						}
					}
				}
			}
		})
	}
}
