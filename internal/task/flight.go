package task

// Flight is the in-flight ledger of a latency-priced steal: parcels of tasks
// travelling between queues, each maturing when the ledger's clock reaches
// its ready time. While a parcel is in flight its tasks are unavailable to
// both the thief that requested them and the victim they left — the
// Gast–Khatiri–Trystram cost model, where steal latency (not steal count) is
// the parameter that governs makespan at scale.
//
// The clock is a plain monotone counter whose unit the caller chooses; the
// farm engine advances it by played contract lifespans (station-ticks), so a
// latency of L fleet-ticks on an n-station fleet departs with
// latency = L·n clock units. Advancing and delivering are separate steps so
// the engine can place arrivals where its determinism contract allows: only
// at round barriers.
//
// Flight assumes a uniform latency: parcels mature in departure order, and
// Arrive pops matured parcels from the front only. A heterogeneous
// per-cluster-pair latency matrix would need an ordering structure here —
// that generalization is a recorded follow-up, not supported yet.
//
// Flight is not safe for concurrent use; the round engine touches it only
// at barriers.
type Flight struct {
	clock   int64
	parcels []parcel
	head    int
	tasks   int // tasks currently in flight, across parcels
	lost    int // tasks destroyed in transit, cumulative
}

// parcel is one departed steal: tasks bound for a destination queue.
type parcel struct {
	tasks   []Task
	dest    int
	readyAt int64
}

// Clock reports the ledger's current time.
func (f *Flight) Clock() int64 { return f.clock }

// Advance moves the clock forward by d ≥ 0 and returns the new time.
func (f *Flight) Advance(d int64) int64 {
	if d > 0 {
		f.clock += d
	}
	return f.clock
}

// Depart puts a parcel in flight: tasks bound for queue dest, maturing
// latency clock units from now. The ledger takes ownership of the slice.
// A non-positive latency matures immediately (the next Arrive delivers it).
func (f *Flight) Depart(tasks []Task, dest int, latency int64) {
	if len(tasks) == 0 {
		return
	}
	if latency < 0 {
		latency = 0
	}
	f.parcels = append(f.parcels, parcel{tasks: tasks, dest: dest, readyAt: f.clock + latency})
	f.tasks += len(tasks)
}

// Arrive delivers every matured parcel (readyAt ≤ clock) to the caller in
// departure order and returns the number of tasks delivered. The delivered
// slices are owned by the caller from then on.
func (f *Flight) Arrive(deliver func(dest int, tasks []Task)) int {
	delivered := 0
	for f.head < len(f.parcels) && f.parcels[f.head].readyAt <= f.clock {
		p := f.parcels[f.head]
		f.parcels[f.head] = parcel{} // release the slice reference
		f.head++
		f.tasks -= len(p.tasks)
		delivered += len(p.tasks)
		deliver(p.dest, p.tasks)
	}
	if f.head == len(f.parcels) {
		// Everything landed: reuse the backing array for the next wave.
		f.parcels = f.parcels[:0]
		f.head = 0
	}
	return delivered
}

// InFlight reports the number of tasks currently in flight.
func (f *Flight) InFlight() int { return f.tasks }

// Parcels reports the number of parcels currently in flight.
func (f *Flight) Parcels() int { return len(f.parcels) - f.head }

// Lose records tasks destroyed in transit — a parcel a fault plan dropped in
// the network, or one that matured into a group with nobody left alive to
// receive it. The tasks never re-enter any queue; they only move the ledger's
// loss counter, the number the engines surface as TasksLost.
func (f *Flight) Lose(tasks []Task) {
	f.lost += len(tasks)
}

// Lost reports the cumulative number of tasks destroyed in transit.
func (f *Flight) Lost() int { return f.lost }
