package fleet

import (
	"fmt"
	"math/rand"

	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/station"
	"cyclesteal/trace"
)

// Replay is the trace-driven owner: each station replays the opportunities
// a trace recorded for it — the same lifespans, the same allowances, the
// owner returning at the same absolute instants — deterministically and
// regardless of which policy the replaying fleet schedules with. A station
// beyond its recorded opportunities (or absent from the trace) offers
// nothing.
//
// Replaying through the same Config that recorded the trace reproduces the
// originating run's Result bit-for-bit; replaying through a different
// Policy answers "what would this schedule have banked against the exact
// interruptions that actually happened". The replaying fleet must be built
// on the trace's grid (Config.TicksPerSetup == Trace.TicksPerSetup).
//
// Replay cursors are per-run state, so a Fleet with Replay owners rebuilds
// its station models on every run (still safe for concurrent runs) and
// cannot drive Replicate: a recorded trace names one run, not a
// distribution.
type Replay struct {
	Trace *trace.Trace
}

func (r Replay) model(b binding) (station.OwnerModel, error) {
	if r.Trace == nil {
		return nil, fmt.Errorf("fleet: replay owner needs a trace")
	}
	if got := r.Trace.TicksPerSetup; got != int(b.g.TicksPerSetup) {
		return nil, fmt.Errorf("fleet: replay trace was recorded at %d ticks per setup, fleet runs at %d — set Config.TicksPerSetup to match", got, int(b.g.TicksPerSetup))
	}
	opps, err := r.Trace.Station(b.station)
	if err != nil {
		return nil, fmt.Errorf("fleet: replay: %w", err)
	}
	return &replayModel{opps: opps}, nil
}

// replayModel walks one station's recorded opportunities. The cursor makes
// it per-run state: the Fleet builds a fresh one for every run.
type replayModel struct {
	opps []trace.Opportunity
	next int
}

func (m *replayModel) Sample(rng *rand.Rand) station.Contract {
	if m.next >= len(m.opps) {
		return station.Contract{} // trace exhausted: offer nothing
	}
	o := m.opps[m.next]
	m.next++
	return station.Contract{U: quant.Tick(o.Lifespan), P: o.Allowance}
}

func (m *replayModel) Interrupter(rng *rand.Rand, c station.Contract) sim.Interrupter {
	// The engines call Interrupter for the contract Sample just returned.
	o := m.opps[m.next-1]
	return &replayInterrupter{u: c.U, offsets: o.Interrupts}
}

func (m *replayModel) Name() string { return "replay" }

// replayInterrupter replays one opportunity's recorded returns. Offsets are
// absolute elapsed times within the opportunity; each answer converts the
// next one to the episode-relative time the simulator speaks (the elapsed
// lifespan so far is U − L). Trace validation guarantees the result lands
// in (0, L]: offsets are strictly increasing and bounded by the lifespan,
// and an answered interrupt always consumes exactly its offset.
type replayInterrupter struct {
	u       quant.Tick
	offsets []int64
	next    int
}

func (ri *replayInterrupter) NextInterrupt(p int, L quant.Tick, _ model.TickSchedule) (quant.Tick, bool) {
	if p <= 0 || ri.next >= len(ri.offsets) {
		return 0, false
	}
	at := quant.Tick(ri.offsets[ri.next]) - (ri.u - L)
	ri.next++
	return at, true
}

// recordSink accumulates one station's recorded opportunities. During a run
// it is owned by whichever goroutine is playing the station (the engines
// order every station's opportunities with happens-before edges), so it
// needs no locking.
type recordSink struct {
	station int
	opps    []trace.Opportunity
}

// recordingModel wraps a station's owner model so the run can be replayed:
// every offered contract opens a trace opportunity, every placed return is
// written down as its absolute elapsed offset.
type recordingModel struct {
	base station.OwnerModel
	sink *recordSink
}

func (m recordingModel) Sample(rng *rand.Rand) station.Contract {
	c := m.base.Sample(rng)
	if c.U >= 1 {
		// U < 1 contracts are skipped by the engines — nothing to replay.
		m.sink.opps = append(m.sink.opps, trace.Opportunity{
			Station: m.sink.station, Lifespan: int64(c.U), Allowance: c.P,
		})
	}
	return c
}

func (m recordingModel) Interrupter(rng *rand.Rand, c station.Contract) sim.Interrupter {
	return &recordingInterrupter{base: m.base.Interrupter(rng, c), sink: m.sink, u: c.U}
}

func (m recordingModel) Name() string { return m.base.Name() }

// recordingInterrupter writes each answered interrupt into the sink's
// current (last-opened) opportunity as an absolute elapsed offset.
type recordingInterrupter struct {
	base sim.Interrupter
	sink *recordSink
	u    quant.Tick
}

func (ri *recordingInterrupter) NextInterrupt(p int, L quant.Tick, ep model.TickSchedule) (quant.Tick, bool) {
	at, ok := ri.base.NextInterrupt(p, L, ep)
	if ok {
		cur := &ri.sink.opps[len(ri.sink.opps)-1]
		cur.Interrupts = append(cur.Interrupts, int64(ri.u-L+at))
	}
	return at, ok
}

// recordingStations wraps every station's model for one recording run and
// returns the publish hook the run calls on success: sinks are assembled in
// station order (within a station, play order) into the trace that
// reproduces the run.
func recordingStations(sts []station.Workstation, g quant.Grid, rec *trace.Recorder) func() {
	sinks := make([]*recordSink, len(sts))
	for i := range sts {
		sinks[i] = &recordSink{station: i}
		sts[i].Owner = recordingModel{base: sts[i].Owner, sink: sinks[i]}
	}
	return func() {
		var opps []trace.Opportunity
		for _, s := range sinks {
			opps = append(opps, s.opps...)
		}
		rec.Publish(trace.New(int(g.TicksPerSetup), opps))
	}
}
