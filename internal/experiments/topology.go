package experiments

import (
	"fmt"

	"cyclesteal/fleet"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/stats"
	"cyclesteal/internal/tab"
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
// Each (fleet, latency) cell is one fleet.Replicate, with a disjoint
// seed-stream range, on a grid of one tick per caller unit, so every number
// in the table is bit-identical at any cfg.Workers.
func TopologyStudy(cfg Config, fleets []int, latencies []quant.Tick, opportunitiesPer, tasksPerStation, trials int) (*tab.Table, error) {
	cfg = cfg.normalize()
	if trials < 1 {
		return nil, fmt.Errorf("experiments: E14 needs trials ≥ 1, got %d", trials)
	}
	if len(fleets) == 0 || len(latencies) == 0 {
		return nil, fmt.Errorf("experiments: E14 needs at least one fleet size and one latency")
	}
	// Stations i mod 4 ∈ {0, 1} — cluster 0 over four shards — are strong,
	// cluster 1 weak.
	strong, weak := fleet.Overnight{Window: 8}, fleet.Overnight{Window: 3}
	owners := []fleet.Owner{strong, strong, weak, weak}

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
			fc := tickFleet(cfg, 1, n, opportunitiesPer)
			fc.Owners = owners
			fc.Shards = 4
			fc.Clusters = 2
			fc.StealLatency = float64(lat)
			// Disjoint seed-stream ranges per cell (mc prefix stability).
			fc.Seed = cfg.Seed + int64(row)<<32
			rep, err := replicate(fc, fleet.Job{Tasks: fleet.FixedTasks(n*tasksPerStation, 2)}, trials)
			if err != nil {
				return nil, err
			}
			row++
			completion := rep.Completion
			if base < 0 {
				base = completion.Mean
			}
			overhead := 0.0
			if base > 0 {
				overhead = 100 * (base - completion.Mean) / base
			}
			t.Row(n, int(lat),
				rep.TasksCompleted.Mean,
				100*completion.Mean,
				100*stats.TCritical95(completion.N-1)*completion.SE,
				overhead,
				rep.Steals.Mean,
				rep.InFlight.Mean,
			)
		}
	}
	t.Note("latency is the cross-cluster steal price in ticks; intra-cluster steals stay free — latency 0 rows are the flat-cost baseline of each fleet")
	t.Note("overhead %% = completion lost relative to the same fleet's first (lowest-latency) row; in flight = mean tasks still crossing at trial end")
	t.Note("the engine scales the price by fleet size (latency·stations station-ticks per parcel), so latency/lifespan sets flight rounds and the effect is comparable across rows")
	return t, nil
}
