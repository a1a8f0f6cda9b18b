package experiments

import (
	"context"
	"fmt"

	"cyclesteal/internal/farm"
	"cyclesteal/internal/mc"
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/station"
	"cyclesteal/internal/stats"
	"cyclesteal/internal/tab"
	"cyclesteal/internal/task"
)

// Topology is experiment E14: the two-tier NOW-of-NOWs study behind the
// latency-priced steal model (Gast–Khatiri–Trystram, arXiv:1805.00857).
// Each fleet splits into two clusters with a cluster-aligned supply/demand
// skew — the strong half (Overnight windows of 8 ticks) drains its own
// shards and must then steal from the weak half (windows of 3 ticks) across
// the cluster boundary. The sweep prices that crossing at latency ∈
// latencies ticks and asks one question per fleet size: how much completion
// does the fleet lose to tasks caught in flight?
//
// The grid is deliberately tick-scale (setup 1 tick, lifespans 3–8 ticks,
// tasks 2 ticks) so the latency sweep spans sub-lifespan to multi-lifespan
// crossings — the regime where the 1805.00857 bound bites. The engine
// charges a cross-cluster steal latency·stations station-ticks of flight
// time, so latency/lifespan — not fleet size — sets the rounds a parcel
// spends in flight, and the qualitative effect is scale-invariant: at every
// fleet size, completion degrades monotonically in the crossing price.
//
// Each (fleet, latency) cell replicates on Farm.Replicate's two-level
// deterministic engine with a disjoint seed-stream range, so every number in
// the table is bit-identical at any cfg.Workers.
func TopologyStudy(cfg Config, fleets []int, latencies []quant.Tick, opportunitiesPer, tasksPerStation, trials int) (*tab.Table, error) {
	cfg = cfg.normalize()
	if trials < 1 {
		return nil, fmt.Errorf("experiments: E14 needs trials ≥ 1, got %d", trials)
	}
	if len(fleets) == 0 || len(latencies) == 0 {
		return nil, fmt.Errorf("experiments: E14 needs at least one fleet size and one latency")
	}
	factory := func(ws station.Workstation, ct station.Contract) (model.EpisodeScheduler, error) {
		return sched.NewAdaptiveEqualized(ws.Setup)
	}

	t := tab.New(
		fmt.Sprintf("E14: two-tier topology — completion vs cross-cluster steal latency (2 clusters, %d tasks/station × 2 ticks, %d opportunities/station, %d trials)",
			tasksPerStation, opportunitiesPer, trials),
		"stations", "latency", "tasks done", "completion %", "±95%", "overhead %", "steals", "in flight",
	)
	row := 0
	for _, n := range fleets {
		if n < 4 || n%4 != 0 {
			return nil, fmt.Errorf("experiments: E14 fleet size %d must be a positive multiple of 4 (two clusters over four shards)", n)
		}
		base := -1.0 // latency-0 completion fraction, the overhead baseline
		for _, lat := range latencies {
			if lat < 0 {
				return nil, fmt.Errorf("experiments: E14 latency %d must be ≥ 0", lat)
			}
			// Cluster 0 (stations i%4 ∈ {0,1}) is strong, cluster 1 weak.
			stations := make([]station.Workstation, n)
			for i := range stations {
				owner := station.OwnerModel(station.Overnight{Window: 8})
				if i%4 >= 2 {
					owner = station.Overnight{Window: 3}
				}
				stations[i] = station.Workstation{ID: i, Owner: owner, Setup: 1}
			}
			f := farm.Farm{
				Stations:                stations,
				OpportunitiesPerStation: opportunitiesPer,
				Shards:                  4,
				Topology:                farm.Topology{Clusters: 2, CrossLatency: lat},
			}
			job := farm.Job{Tasks: task.Fixed(n*tasksPerStation, 2)}
			// Disjoint seed-stream ranges per cell (mc prefix stability).
			sums, err := f.Replicate(context.Background(), job, factory, mc.Config{
				Trials:  trials,
				Seed:    cfg.Seed + int64(row)<<32,
				Workers: cfg.Workers,
			})
			if err != nil {
				return nil, err
			}
			row++
			completion := sums[farm.MetricCompletionFrac]
			if base < 0 {
				base = completion.Mean
			}
			overhead := 0.0
			if base > 0 {
				overhead = 100 * (base - completion.Mean) / base
			}
			t.Row(n, int(lat),
				sums[farm.MetricTasksCompleted].Mean,
				100*completion.Mean,
				100*stats.TCritical95(completion.N-1)*completion.SE,
				overhead,
				sums[farm.MetricSteals].Mean,
				sums[farm.MetricTasksInFlight].Mean,
			)
		}
	}
	t.Note("latency is the cross-cluster steal price in ticks; intra-cluster steals stay free — latency 0 rows are the flat-cost baseline of each fleet")
	t.Note("overhead %% = completion lost relative to the same fleet's first (lowest-latency) row; in flight = mean tasks still crossing at trial end")
	t.Note("the engine scales the price by fleet size (latency·stations station-ticks per parcel), so latency/lifespan sets flight rounds and the effect is comparable across rows")
	return t, nil
}
