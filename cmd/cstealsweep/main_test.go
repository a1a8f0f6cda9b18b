package main

import (
	"reflect"
	"testing"

	"cyclesteal/distrib"
	"cyclesteal/internal/game"
)

// TestDistribCellSpec pins the cell → wire-spec mapping -distribute rests
// on: the facade config restates the sweep cell exactly (caller unit = one
// tick, fixed (U, p) contract under the E8 Poisson temperament, the fleet
// mode's usual job), and the resulting spec builds a runnable study.
func TestDistribCellSpec(t *testing.T) {
	pt := game.SweepPoint{U: 1200, P: 2, C: 100}
	spec, err := distribCellSpec(pt, 40, 9, 3, 6, 4, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := distrib.Spec{
		Stations:      6,
		Setup:         100,
		TicksPerSetup: 100,
		Opportunities: 1,
		Seed:          9 + 3<<32,
		Owners: []distrib.OwnerSpec{{
			Kind: "fixed", Param: 1200, Interrupts: 2,
			Wrap: "poisson", WrapParam: 400,
		}},
		Pool:         "sharded",
		Shards:       4,
		Clusters:     2,
		StealLatency: 50,
		Ticks:        spec.Ticks, // checked structurally below
		Trials:       40,
	}
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("cell spec mismatch:\n got %+v\nwant %+v", spec, want)
	}
	// The job is the fleet mode's: U/c size-c tasks per station, each
	// the setup cost 100, one tick a caller unit.
	if len(spec.Ticks) != 6*12 {
		t.Errorf("got %d tasks, want %d (fleet × U/c)", len(spec.Ticks), 6*12)
	}
	for i, d := range spec.Ticks {
		if d != 100 {
			t.Fatalf("task %d is %d ticks, want the setup cost 100", i, d)
		}
	}
	// The spec must survive its own wire validation and build a study —
	// the exact calls every worker process will make.
	if err := spec.Validate(); err != nil {
		t.Errorf("cell spec fails wire validation: %v", err)
	}
	st, err := spec.Study()
	if err != nil {
		t.Fatalf("cell spec does not build a study: %v", err)
	}
	if st.Trials() != 40 {
		t.Errorf("study has %d trials, want 40", st.Trials())
	}
}

// TestDistribCellSpecShortLifespan pins the perStation floor: a lifespan
// under one setup still gets one task per station.
func TestDistribCellSpecShortLifespan(t *testing.T) {
	spec, err := distribCellSpec(game.SweepPoint{U: 50, P: 1, C: 100}, 5, 1, 0, 3, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Ticks) != 3 {
		t.Errorf("got %d tasks, want 3 (one per station floor)", len(spec.Ticks))
	}
}

// TestDistribCellSpecRejectsZeroInterrupts pins the loud failure for p = 0
// cells: the wire owner grammar reads a zero allowance as "the default",
// so -distribute must refuse rather than silently change the contract.
func TestDistribCellSpecRejectsZeroInterrupts(t *testing.T) {
	_, err := distribCellSpec(game.SweepPoint{U: 1000, P: 0, C: 100}, 10, 1, 0, 4, 0, 0, 0)
	if err == nil {
		t.Fatal("p = 0 cell accepted; want a loud rejection")
	}
}

// TestDistribCellSpecSeedPerCell pins the per-cell seed stride matching
// sweepFleet's, so in-process and distributed cells replay the same trial
// streams.
func TestDistribCellSpecSeedPerCell(t *testing.T) {
	for _, cell := range []int{0, 1, 7} {
		spec, err := distribCellSpec(game.SweepPoint{U: 500, P: 1, C: 100}, 5, 11, cell, 2, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := 11 + int64(cell)<<32; spec.Seed != want {
			t.Errorf("cell %d seed %d, want %d", cell, spec.Seed, want)
		}
	}
}
