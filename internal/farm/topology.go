package farm

import (
	"fmt"
	"strings"

	"cyclesteal/internal/quant"
)

// Topology groups a farm's task-pool shards into clusters — the two-tier
// NOW-of-NOWs the 1999 paper could not model. Shards are partitioned into
// Clusters equal contiguous blocks (shard s in cluster s / (shards/Clusters));
// a station's home shard places it in a cluster. Intra-cluster steals stay
// free, exactly as in the flat fleet; a cross-cluster steal prices the
// network: the stolen tasks go "in flight" for CrossLatency ticks of fleet
// time, unavailable to both thief and victim — the Gast–Khatiri–Trystram
// (arXiv:1805.00857) cost model in which steal latency, not steal count,
// governs makespan at scale.
//
// Victim selection is latency-aware: the steal hints (last victim, richest
// shard) and the scans all live inside the thief's own cluster, and a station
// only reaches across — paying the latency — when its cluster is collectively
// dry. With Clusters ≤ 1 the topology is inactive and both engines are the
// flat fleet, bit for bit. Note that Clusters > 1 changes victim *preference*
// even at CrossLatency = 0: a thief now favors an in-cluster victim over a
// nearer-by-index foreign one, so only the zero value is pinned to the flat
// engine.
//
// CrossLatency is measured in ticks of fleet time — the same wall-clock the
// makespan is measured on. Internally both engines keep a virtual steal clock
// in station-ticks (Σ contract lifespans played fleet-wide); since n stations
// play concurrently, one fleet-tick ≈ n station-ticks, and a parcel departs
// with maturity CrossLatency × n clock units ahead. The live engine advances
// the clock as each station settles an opportunity; RunDeterministic advances
// it at every round barrier, keeping its bit-identical-at-any-worker-count
// contract intact.
//
// The latency is uniform across cluster pairs; a per-pair latency matrix
// (metro vs transatlantic links) is a recorded follow-up, as is sizing steal
// chunks by the latency about to be paid.
type Topology struct {
	// Clusters is the number of equal shard groups; 0 and 1 both mean the
	// flat single-cluster fleet. Must divide the resolved shard count.
	Clusters int
	// CrossLatency is how long a cross-cluster steal keeps its tasks in
	// flight, in fleet-ticks; 0 makes cross steals as free as local ones
	// (locality preference still applies). Requires Clusters ≥ 2.
	CrossLatency quant.Tick
}

// active reports whether the topology changes anything over the flat fleet.
func (t Topology) active() bool { return t.Clusters > 1 }

// clusterCount normalizes the zero value to one cluster.
func (t Topology) clusterCount() int {
	if t.Clusters < 1 {
		return 1
	}
	return t.Clusters
}

// Validate checks the topology against the resolved shard count (see
// ResolveShards). Cluster shapes that don't partition the shards are
// rejected with the valid counts listed — never silently adjusted: a caller
// who asked for 5 clusters over 64 shards would otherwise get a lopsided
// fleet they didn't specify.
func (t Topology) Validate(shards int) error {
	if t.Clusters < 0 {
		return fmt.Errorf("farm: Clusters must be ≥ 0, got %d", t.Clusters)
	}
	if t.CrossLatency < 0 {
		return fmt.Errorf("farm: CrossLatency must be ≥ 0 ticks, got %d", t.CrossLatency)
	}
	c := t.clusterCount()
	if c > shards {
		return fmt.Errorf("farm: %d clusters over %d shards leaves some empty; need Clusters ≤ shards", t.Clusters, shards)
	}
	if shards%c != 0 {
		return fmt.Errorf("farm: %d clusters cannot partition %d shards evenly; valid cluster counts: %s",
			t.Clusters, shards, DivisorList(shards))
	}
	if t.CrossLatency > 0 && c < 2 {
		return fmt.Errorf("farm: CrossLatency %d needs ≥ 2 clusters to cross, got %d", t.CrossLatency, t.Clusters)
	}
	return nil
}

// DivisorList renders the divisors of n in ascending order — the cluster
// counts that partition n shards evenly — for errors that list them.
func DivisorList(n int) string {
	var b strings.Builder
	for d := 1; d <= n; d++ {
		if n%d != 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", d)
	}
	return b.String()
}

// ResolveShards resolves a Farm.Shards setting against a fleet size — the
// same clamping Farm applies internally (0 = DefaultShards, capped at the
// station count, floored at 1) — so callers can validate a Topology against
// the shard count a run will actually use.
func ResolveShards(shards, stations int) int {
	if shards == 0 {
		shards = DefaultShards
	}
	if shards > stations {
		shards = stations
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}
