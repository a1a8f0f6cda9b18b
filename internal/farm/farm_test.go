package farm

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

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

func TestFarmCompletesSmallJob(t *testing.T) {
	f := testFarm(6, station.Overnight{Window: 20000})
	f.Shards = 1 // every station plays against the one queue
	job := Job{Tasks: task.Uniform(200, 5, 50, 1)}
	res, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 6 stations × 10 × 20000 ticks of lifespan dwarf the job: it must finish.
	if res.TasksLeft != 0 {
		t.Errorf("%d tasks left of %d", res.TasksLeft, len(job.Tasks))
	}
	if res.TasksCompleted != len(job.Tasks) {
		t.Errorf("completed %d, want %d", res.TasksCompleted, len(job.Tasks))
	}
	if got := res.CompletionFraction(job.TotalWork()); got != 1 {
		t.Errorf("completion fraction %g", got)
	}
	if res.TaskWork != job.TotalWork() {
		t.Errorf("task work %d ≠ job total %d", res.TaskWork, job.TotalWork())
	}
}

// Accounting invariant: completed + left == job size, per-station reports
// sum to the aggregate, and completed task work never exceeds the fluid
// work banked, in every layout under every worker count. The fluid survey
// (the empty job) completes nothing, plays every station's every
// opportunity, and banks some but not all of the lifespan it is offered.
func TestFarmConservationAcrossWorkerCounts(t *testing.T) {
	job := Job{Tasks: task.Uniform(3000, 5, 80, 2)}
	base := testFarm(8, station.Laptop{MeanIdle: 3000})
	type input struct {
		f   Farm
		job Job
	}
	inputs := map[string]input{"empty job": {privateFarm(base), Job{}}}
	for name, f := range layouts(base) {
		inputs[name] = input{f, job}
	}
	for name, in := range inputs {
		t.Run(name, func(t *testing.T) {
			f, job := in.f, in.job
			for _, workers := range []int{1, 2, 8} {
				res, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 7, workers)
				if err != nil {
					t.Fatal(err)
				}
				if res.TasksCompleted+res.TasksLeft != len(job.Tasks) {
					t.Errorf("workers=%d: %d + %d ≠ %d", workers, res.TasksCompleted, res.TasksLeft, len(job.Tasks))
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
				if len(job.Tasks) > 0 {
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
			_, err := f.RunDeterministic(context.Background(), Job{Tasks: task.Fixed(100, 5)}, func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
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
	job := Job{Tasks: task.Fixed(5, 10)}
	res, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 3, 0)
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
	job := Job{Tasks: task.Uniform(500, 5, 40, 9)}
	res, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 5, 0)
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
	job := Job{Tasks: task.Exponential(400, 20, 3)}
	for _, in := range []struct {
		name string
		f    Farm
		job  Job
	}{
		{"shared job", shared, job},
		{"private", privateFarm(shared), job},
		{"empty job", privateFarm(shared), Job{}},
	} {
		t.Run(in.name, func(t *testing.T) {
			run := func(workers int) []stats.Summary {
				sums, err := in.f.Replicate(context.Background(), in.job, equalizedFactory, mc.Config{Trials: 6, Seed: 9, Workers: workers})
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
		job := Job{Tasks: task.Exponential(300, 20, 7)}
		sums, err := f.Replicate(context.Background(), job, equalizedFactory, mc.Config{Trials: 5, Seed: 1})
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
		survey, err := privateFarm(f).Replicate(context.Background(), Job{}, equalizedFactory, mc.Config{Trials: 5, Seed: 2})
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
	job := Job{Tasks: task.Fixed(10, 5)}
	for name, f := range map[string]Farm{"sharded": f, "private": privateFarm(f)} {
		t.Run(name, func(t *testing.T) {
			if _, err := f.Replicate(context.Background(), job, equalizedFactory, mc.Config{Trials: 0, Seed: 1}); err == nil {
				t.Error("trials=0 accepted")
			}
		})
	}
}

func TestFarmRunShardedCompletesSmallJob(t *testing.T) {
	f := testFarm(6, station.Overnight{Window: 20000}) // Shards 0 = auto-sharded
	job := Job{Tasks: task.Uniform(200, 5, 50, 1)}
	res, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksLeft != 0 || res.TasksCompleted != len(job.Tasks) {
		t.Errorf("sharded run left %d of %d", res.TasksLeft, len(job.Tasks))
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
			_, err := f.RunDeterministic(context.Background(), Job{Tasks: task.Fixed(100000, 50)}, func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
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
	job := Job{Tasks: task.Exponential(2000, 15, 3)}
	for _, in := range []struct {
		name string
		f    Farm
		job  Job
	}{
		{"shared job", f, job},
		{"private", privateFarm(f), job},
		{"empty job", privateFarm(f), Job{}},
	} {
		t.Run(in.name, func(t *testing.T) {
			base, err := in.f.RunDeterministic(context.Background(), in.job, equalizedFactory, 99, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8, 0} {
				got, err := in.f.RunDeterministic(context.Background(), in.job, equalizedFactory, 99, workers)
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

// dealt is job dealt over f's groups the way a batch intake deals it:
// task.Deal's hands, each with its smallest duration.
func dealt(f Farm, job Job) Job {
	hands := task.Deal(job.Tasks, f.Groups())
	out := Job{Dealt: make([]task.Hand, len(hands))}
	for g, h := range hands {
		out.Dealt[g].Tasks = h
		for _, t := range h {
			if out.Dealt[g].MinDur == 0 || t.Duration < out.Dealt[g].MinDur {
				out.Dealt[g].MinDur = t.Duration
			}
		}
	}
	return out
}

// A job dealt over the run's groups plays bit-identically to the plain job
// in every layout, clustered and priced crossings included.
func TestRunDeterministicDealtMatchesPlain(t *testing.T) {
	base := testFarm(12, station.Office{MeanIdle: 800, MaxP: 2})
	base.OpportunitiesPerStation = 6
	clustered := base
	clustered.Shards = 6
	clustered.Topology = Topology{Clusters: 3, CrossLatency: 40}
	farms := layouts(base)
	farms["clustered"] = clustered
	job := Job{Tasks: task.Exponential(1500, 15, 4)}
	for name, f := range farms {
		t.Run(name, func(t *testing.T) {
			want, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 7, 2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.RunDeterministic(context.Background(), dealt(f, job), equalizedFactory, 7, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(got, want) || got.InFlight != want.InFlight || got.TasksLost != want.TasksLost {
				t.Errorf("dealt job played %+v, plain job %+v", got, want)
			}
		})
	}
}

// A dealt job must have one hand per group, and no replication takes one:
// its first trial would consume it.
func TestDealtJobRefusals(t *testing.T) {
	f := testFarm(6, station.Overnight{Window: 1000})
	f.Shards = 3
	job := Job{Tasks: task.Fixed(30, 5)}
	for _, groups := range []int{2, 4} {
		_, err := f.RunDeterministic(context.Background(), dealt(Farm{Stations: f.Stations, Shards: groups}, job), equalizedFactory, 1, 1)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d hands", groups)) || !strings.Contains(err.Error(), "3 groups") {
			t.Errorf("a job dealt over %d hands on 3 groups: error %v, want one naming both counts", groups, err)
		}
	}
	cfg := mc.Config{Trials: 2, Seed: 1}
	if _, err := f.Replicate(context.Background(), dealt(f, job), equalizedFactory, cfg); err == nil || !strings.Contains(err.Error(), "dealt") {
		t.Errorf("Replicate of a dealt job: error %v, want a refusal", err)
	}
	if _, err := f.ReplicateShards(context.Background(), dealt(f, job), equalizedFactory, cfg, false, []int{0}); err == nil || !strings.Contains(err.Error(), "dealt") {
		t.Errorf("ReplicateShards of a dealt job: error %v, want a refusal", err)
	}
}

func TestRunDeterministicConserves(t *testing.T) {
	f := testFarm(12, station.Laptop{MeanIdle: 3000})
	f.OpportunitiesPerStation = 8
	job := Job{Tasks: task.Uniform(3000, 5, 80, 2)}
	res, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted+res.TasksLeft != len(job.Tasks) {
		t.Errorf("%d + %d ≠ %d", res.TasksCompleted, res.TasksLeft, len(job.Tasks))
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
	job := Job{Tasks: task.Fixed(5, 10)}
	res, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 3, 2)
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
	job := Job{Tasks: task.Exponential(8000, 15, 5)}
	run := func(workers int) []stats.Summary {
		sums, err := f.Replicate(context.Background(), job, equalizedFactory, mc.Config{Trials: 2, Seed: 31, Workers: workers})
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

// unkeyed hides a scheduler's EpisodeMemoKey, so a station never reuses
// its instances: every contract plays the factory's fresh scheduler.
type unkeyed struct{ model.EpisodeScheduler }

// AppendEpisode keeps the wrapped scheduler's append path.
func (u unkeyed) AppendEpisode(dst model.TickSchedule, p int, L quant.Tick) model.TickSchedule {
	return model.AppendEpisode(u.EpisodeScheduler, dst, p, L)
}

// hideKeys wraps every scheduler the factory builds in unkeyed.
func hideKeys(factory station.SchedulerFactory) station.SchedulerFactory {
	return func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
		s, err := factory(ws, c)
		if err != nil {
			return nil, err
		}
		return unkeyed{s}, nil
	}
}

// reuseFactories are the policies the reuse pins run: two keyed adaptive
// schedulers and the unkeyed non-adaptive one, which always passes through.
func reuseFactories() map[string]station.SchedulerFactory {
	return map[string]station.SchedulerFactory{
		"equalized": equalizedFactory,
		"guideline": func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
			return sched.NewAdaptiveGuideline(ws.Setup)
		},
		"nonadaptive": func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
			return sched.NewNonAdaptive(c.U, c.P, ws.Setup)
		},
	}
}

// Warm-scheduler reuse must be invisible in results: RunDeterministic at
// Workers 1 and 8, and Replicate, are reflect.DeepEqual whether stations
// replay their kept instance or play every contract's fresh one.
func TestRunDeterministicReuseInvisible(t *testing.T) {
	ctx := context.Background()
	job := Job{Tasks: task.Exponential(1500, 15, 5)}
	shared := testFarm(24, station.Office{MeanIdle: 700, MaxP: 2})
	shared.OpportunitiesPerStation = 6
	for _, in := range []struct {
		layout string
		f      Farm
		job    Job
	}{
		{"shared job", shared, job},
		{"private", privateFarm(shared), job},
		{"empty job", privateFarm(shared), Job{}},
	} {
		t.Run(in.layout, func(t *testing.T) {
			f, job := in.f, in.job
			for name, factory := range reuseFactories() {
				for _, workers := range []int{1, 8} {
					want, err := f.RunDeterministic(ctx, job, factory, 42, workers)
					if err != nil {
						t.Fatal(err)
					}
					got, err := f.RunDeterministic(ctx, job, hideKeys(factory), 42, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("%s: workers=%d: RunDeterministic without reuse diverged", name, workers)
					}
				}
				cfg := mc.Config{Trials: 12, Seed: 3, Workers: 2}
				want, err := f.Replicate(ctx, job, factory, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := f.Replicate(ctx, job, hideKeys(factory), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: Replicate without reuse diverged", name)
				}
			}
		})
	}
}

// Task conservation holds with reuse and without it when every station
// plays against the one shared queue, where a group's warm scheduler is
// handed from station to station within every round.
func TestRunReuseConserves(t *testing.T) {
	for _, hide := range []bool{false, true} {
		factory := station.SchedulerFactory(equalizedFactory)
		if hide {
			factory = hideKeys(factory)
		}
		f := testFarm(16, station.Laptop{MeanIdle: 2000})
		f.Shards = 1
		job := Job{Tasks: task.Uniform(2000, 5, 60, 9)}
		res, err := f.RunDeterministic(context.Background(), job, factory, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.TasksCompleted+res.TasksLeft != len(job.Tasks) {
			t.Errorf("hidden keys=%v: %d + %d ≠ %d", hide, res.TasksCompleted, res.TasksLeft, len(job.Tasks))
		}
	}
}

// counted is a scheduler instance that logs which contract it played on.
type counted struct {
	sched.EqualSplit
	id    int
	keyed bool
	log   *countLog
}

type countLog struct {
	contract int
	plays    map[int][]int // contract → instance ids that played it
}

func (c *counted) AppendEpisode(dst model.TickSchedule, p int, L quant.Tick) model.TickSchedule {
	c.log.plays[c.log.contract] = append(c.log.plays[c.log.contract], c.id)
	return c.EqualSplit.AppendEpisode(dst, p, L)
}

func (c *counted) EpisodeMemoKey() (model.MemoKey, bool) {
	k, _ := c.EqualSplit.EpisodeMemoKey()
	return k, c.keyed
}

// TestStationReusesFirstEqualKeyInstance pins what reuse does: a station
// plays the first instance the factory gave it on every later contract with
// an equal key, switches to the fresh instance when the key changes, and
// passes unkeyed schedulers through without dropping the kept one.
func TestStationReusesFirstEqualKeyInstance(t *testing.T) {
	// Per contract: EqualSplit's M, or 0 for an unkeyed instance.
	pattern := []int{3, 3, 3, 4, 3, 4, 4, 0, 4, 3}
	want := []int{0, 0, 0, 3, 4, 5, 5, 7, 5, 9}
	log := &countLog{contract: -1, plays: map[int][]int{}}
	factory := func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
		log.contract++
		m := pattern[log.contract]
		return &counted{EqualSplit: sched.EqualSplit{M: max(m, 2)}, id: log.contract, keyed: m != 0, log: log}, nil
	}
	f := testFarm(1, station.Overnight{Window: 500})
	f.OpportunitiesPerStation = len(pattern)
	res, err := f.RunDeterministic(context.Background(), Job{Tasks: task.Fixed(10000, 5)}, factory, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stations[0].Opportunities != len(pattern) {
		t.Fatalf("played %d contracts, want %d", res.Stations[0].Opportunities, len(pattern))
	}
	for k, id := range want {
		plays := log.plays[k]
		if len(plays) == 0 {
			t.Fatalf("contract %d played no episode", k)
		}
		for _, got := range plays {
			if got != id {
				t.Errorf("contract %d (M=%d) played instance %d, want %d", k, pattern[k], got, id)
			}
		}
	}
}

// TestReplicateShardsBitIdentical pins the distribution contract at the farm
// layer: running the study's mc shards in disjoint subsets (any grouping, any
// order) and merging the partial accumulators reproduces Replicate — and,
// with per-station columns, one whole mc.RunVec of the same trials — bit for
// bit.
func TestReplicateShardsBitIdentical(t *testing.T) {
	shared := testFarm(5, station.Office{MeanIdle: 500, MaxP: 2})
	shared.Stations[2].Owner = station.Laptop{MeanIdle: 300}
	job := Job{Tasks: task.Exponential(400, 20, 3)}
	cfg := mc.Config{Trials: 90, Seed: 9}
	for _, in := range []struct {
		name string
		f    Farm
		job  Job
	}{
		{"shared job", shared, job},
		{"private", privateFarm(shared), job},
		{"empty job", privateFarm(shared), Job{}},
	} {
		t.Run(in.name, func(t *testing.T) {
			f, job := in.f, in.job
			want, err := f.Replicate(context.Background(), job, equalizedFactory, cfg)
			if err != nil {
				t.Fatal(err)
			}
			outer, inner := mc.SplitConfig(cfg)
			wantStations, err := mc.RunVec(context.Background(), outer, f.ReplicateColumns(true), f.trialVec(context.Background(), job, equalizedFactory, inner, true))
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
								t.Errorf("parts=%d metric %d diverged from Replicate:\n got %+v\nwant %+v", parts, m, sums[m], want[m])
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
