package main

import (
	"os"
	"os/exec"
	"reflect"
	"testing"

	"cyclesteal/distrib"
	"cyclesteal/internal/game"
	"cyclesteal/internal/quant"
)

// TestMain doubles as the command: re-invoked with CSTEALSWEEP_MAIN set,
// the test binary runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("CSTEALSWEEP_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// -fleet refuses a p = 0 cell when the flags are read, before any cell is
// solved. The cells' U, 10^10 ticks, is past what the exact solver takes,
// so a sweep that solved either cell first would end naming the value
// table instead.
func TestFleetRefusesZeroAllowanceFirst(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-ratios", "100000000", "-ps", "0,1", "-trials", "4", "-fleet", "6")
	cmd.Env = append(os.Environ(), "CSTEALSWEEP_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil || string(out) != "cstealsweep: "+errZeroAllowance.Error()+"\n" {
		t.Fatalf("-ps 0,1 -fleet 6: %v, output %q; want the zero-allowance refusal alone", err, out)
	}
}

// TestDistribCellSpec pins the cell → wire-spec mapping -fleet rests on:
// the facade config restates the sweep cell exactly (caller unit = one
// tick, fixed (U, p) contract under the E8 Poisson temperament, the fleet
// mode's usual job), and the resulting spec builds a runnable study.
func TestDistribCellSpec(t *testing.T) {
	pt := game.SweepPoint{U: 1200, P: 2, C: 100}
	sw := fleetSweep{trials: 40, seed: 9, stations: 6, shards: 4, clusters: 2, stealLatency: 50}
	spec, err := sw.spec(pt, 3)
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
	spec, err := fleetSweep{trials: 5, seed: 1, stations: 3}.spec(game.SweepPoint{U: 50, P: 1, C: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Ticks) != 3 {
		t.Errorf("got %d tasks, want 3 (one per station floor)", len(spec.Ticks))
	}
}

// TestDistribCellSpecRejectsZeroInterrupts pins the loud failure for p = 0
// cells: the fleet's fixed owner reads a zero allowance as "the default",
// so -fleet must refuse at every -distribute rather than silently change
// the contract.
func TestDistribCellSpecRejectsZeroInterrupts(t *testing.T) {
	sw := fleetSweep{trials: 10, seed: 1, stations: 4}
	pt := game.SweepPoint{U: 1000, P: 0, C: 100}
	if _, err := sw.spec(pt, 0); err == nil {
		t.Fatal("p = 0 cell accepted; want a loud rejection")
	}
	for _, procs := range []int{0, 1} {
		sw.procs, sw.start = procs, distrib.InProcess()
		if _, err := sw.run([]game.SweepPoint{pt}); err == nil {
			t.Errorf("-distribute %d ran a p = 0 cell; want a loud rejection", procs)
		}
	}
}

// TestDistribCellSpecSeedPerCell pins the per-cell seed stride: each cell
// replays its own range of trial streams.
func TestDistribCellSpecSeedPerCell(t *testing.T) {
	for _, cell := range []int{0, 1, 7} {
		spec, err := fleetSweep{trials: 5, seed: 11, stations: 2}.spec(game.SweepPoint{U: 500, P: 1, C: 100}, cell)
		if err != nil {
			t.Fatal(err)
		}
		if want := 11 + int64(cell)<<32; spec.Seed != want {
			t.Errorf("cell %d seed %d, want %d", cell, spec.Seed, want)
		}
	}
}

// TestFleetSweepSameAtEveryDistribute pins what -distribute may change:
// where the fleet columns are computed, never what. Two cells of a
// clustered fleet with a priced crossing replicate in process and through
// a coordinator over in-process workers, and every summary agrees.
func TestFleetSweepSameAtEveryDistribute(t *testing.T) {
	points := game.Grid([]quant.Tick{1000}, []int{1, 2}, 100)
	sw := fleetSweep{trials: 24, seed: 5, stations: 8, shards: 4, clusters: 2, stealLatency: 100, workers: 2}
	local, err := sw.run(points)
	if err != nil {
		t.Fatal(err)
	}
	sw.procs, sw.start = 2, distrib.InProcess()
	remote, err := sw.run(points)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local, remote) {
		t.Fatalf("in process and distributed cells differ:\n%+v\n%+v", local, remote)
	}
	for i, rep := range local {
		if rep.Trials != 24 || rep.Completion.Mean <= 0 || rep.Completion.Mean >= 1 {
			t.Errorf("cell %d: %d trials, completion %g; want 24 trials completing part of the job", i, rep.Trials, rep.Completion.Mean)
		}
	}
	if local[0].Completion.Mean == local[1].Completion.Mean {
		t.Error("p = 1 and p = 2 cells read the same completion; the cells are not their own")
	}
}
