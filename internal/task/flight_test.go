package task

import "testing"

func TestFlightDepartArriveOrder(t *testing.T) {
	var f Flight
	f.Depart(Fixed(2, 3), 4, 10)
	f.Advance(5)
	f.Depart(Fixed(1, 3), 7, 10) // matures at 15
	if f.InFlight() != 3 || f.Parcels() != 2 {
		t.Fatalf("in flight %d tasks / %d parcels, want 3/2", f.InFlight(), f.Parcels())
	}
	// Nothing matured yet.
	if n := f.Arrive(func(int, []Task) { t.Error("delivered early") }); n != 0 {
		t.Fatalf("delivered %d before maturity", n)
	}
	f.Advance(5) // clock 10: first parcel only
	var dests []int
	deliver := func(dest int, tasks []Task) { dests = append(dests, dest) }
	if n := f.Arrive(deliver); n != 2 {
		t.Fatalf("delivered %d at clock 10, want 2", n)
	}
	if f.Advance(5) != 15 || f.Advance(-3) != 15 {
		t.Fatalf("clock %d, want 15 (Advance never moves it backwards)", f.Clock())
	}
	if n := f.Arrive(deliver); n != 1 {
		t.Fatalf("delivered %d at clock 15, want 1", n)
	}
	if len(dests) != 2 || dests[0] != 4 || dests[1] != 7 {
		t.Fatalf("delivery order %v, want [4 7]", dests)
	}
	if f.InFlight() != 0 || f.Parcels() != 0 {
		t.Fatalf("ledger not empty: %d tasks / %d parcels", f.InFlight(), f.Parcels())
	}
}

func TestFlightEdgeCases(t *testing.T) {
	var f Flight
	f.Depart(nil, 0, 5) // empty parcel: dropped
	if f.Parcels() != 0 {
		t.Fatalf("empty Depart created a parcel")
	}
	f.Depart(Fixed(1, 1), 2, -3) // negative latency clamps to immediate
	if n := f.Arrive(func(dest int, tasks []Task) {
		if dest != 2 || len(tasks) != 1 {
			t.Errorf("delivered %d tasks to %d", len(tasks), dest)
		}
	}); n != 1 {
		t.Fatalf("immediate parcel not delivered: %d", n)
	}
	f.Advance(-7) // negative advance is a no-op
	if f.Clock() != 0 {
		t.Fatalf("clock %d after negative Advance, want 0", f.Clock())
	}
}

func TestFlightLoseCountsDestroyedTasks(t *testing.T) {
	var f Flight
	if f.Lost() != 0 {
		t.Fatalf("fresh ledger lost %d", f.Lost())
	}
	f.Lose(Fixed(2, 3))
	f.Lose(nil)
	f.Lose(Fixed(1, 5))
	if f.Lost() != 3 {
		t.Errorf("Lost = %d, want 3", f.Lost())
	}
	// Loss accounting is independent of the in-flight ledger proper.
	if f.InFlight() != 0 || f.Parcels() != 0 {
		t.Errorf("lost tasks leaked into flight: %d tasks / %d parcels", f.InFlight(), f.Parcels())
	}
}
