// Package trace defines the public availability-trace format: a recorded
// sequence of cycle-stealing opportunities — who offered borrowed time, for
// how long, under what interrupt allowance, and when the owner actually
// returned. A trace is the volunteer-computing reality the paper's owner
// temperaments caricature: replaying a recorded machine-availability log
// through cyclesteal/fleet (fleet.Replay) evaluates any scheduling policy
// against the exact interruption process a real deployment produced, and
// recording a run (fleet.Config.Record) emits the trace that reproduces it
// bit-identically.
//
// # Format
//
// A trace is a header plus a flat list of opportunities. Times are integer
// ticks on the grid the recording run used; TicksPerSetup anchors the grid
// (one per-period setup cost c is that many ticks), so a file is
// self-describing and a replaying fleet can verify its grid matches.
// Interrupt times are absolute elapsed offsets within their opportunity —
// the owner returned after that much of the lifespan had elapsed — strictly
// increasing, each in [1, Lifespan], at most Allowance of them. Opportunities
// are grouped by station in the order the station played them.
//
// A trace is JSON Lines (see encode.go): its first line is the header
//
//	{"format":"cyclesteal-trace","version":1,"ticks_per_setup":N}
//
// followed by one object per opportunity
// ({"station":S,"lifespan":U,"allowance":P,"interrupts":[...]}).
// ReadJSONL reads it through the line reader and header check the service
// write-ahead log shares: each line at most 256 MiB without its ending, a
// blank line of JSON whitespace only skipped, and every error naming its
// line.
package trace

import (
	"fmt"
	"sync"
)

// FormatVersion is the trace format version this package reads and writes.
const FormatVersion = 1

// MaxStations bounds the station index a valid trace may name. It exists so
// a corrupt or hostile file cannot make a loader allocate per-station state
// for 2⁶² stations; a million workstations is beyond any NOW the engines
// target.
const MaxStations = 1 << 20

// Opportunity is one recorded cycle-stealing opportunity, and its JSON
// form one line of a trace.
type Opportunity struct {
	// Station is the workstation that offered the opportunity (its fleet
	// station index).
	Station int `json:"station"`
	// Lifespan is the usable lifespan U in ticks, ≥ 1.
	Lifespan int64 `json:"lifespan"`
	// Allowance is the interrupt allowance p the contract granted, ≥ 0.
	Allowance int `json:"allowance"`
	// Interrupts are the owner's actual returns: absolute elapsed offsets
	// within the opportunity, strictly increasing, each in [1, Lifespan].
	// At most Allowance entries. A return beyond the last scheduled period
	// still consumes lifespan, so it is recorded like any other.
	Interrupts []int64 `json:"interrupts,omitempty"`
}

// Trace is one recorded availability log.
type Trace struct {
	// TicksPerSetup is the grid resolution of the recording run: ticks per
	// setup cost. A fleet replaying the trace must be built on the same
	// resolution (fleet.Config.TicksPerSetup).
	TicksPerSetup int
	// Opportunities lists the recorded opportunities, grouped per station in
	// play order.
	Opportunities []Opportunity

	// compile's lazily-built per-station index. A Trace must not be mutated
	// after its first use by a replaying fleet.
	compileOnce sync.Once
	perStation  [][]Opportunity
	compileErr  error
}

// New builds a trace from its parts (the constructor trace converters use;
// recorded traces come from fleet.Config.Record).
func New(ticksPerSetup int, opps []Opportunity) *Trace {
	return &Trace{TicksPerSetup: ticksPerSetup, Opportunities: opps}
}

// Validate checks the whole trace for well-formed entries.
func (t *Trace) Validate() error {
	if t == nil {
		return fmt.Errorf("trace: nil trace")
	}
	if t.TicksPerSetup < 1 {
		return fmt.Errorf("trace: ticks per setup must be ≥ 1, got %d", t.TicksPerSetup)
	}
	for i := range t.Opportunities {
		if err := t.Opportunities[i].validate(); err != nil {
			return fmt.Errorf("trace: opportunity %d: %w", i, err)
		}
	}
	return nil
}

// validate checks one opportunity.
func (o *Opportunity) validate() error {
	if o.Station < 0 || o.Station >= MaxStations {
		return fmt.Errorf("station %d outside [0, %d)", o.Station, MaxStations)
	}
	if o.Lifespan < 1 {
		return fmt.Errorf("lifespan %d < 1", o.Lifespan)
	}
	if o.Allowance < 0 {
		return fmt.Errorf("allowance %d < 0", o.Allowance)
	}
	if len(o.Interrupts) > o.Allowance {
		return fmt.Errorf("%d interrupts exceed allowance %d", len(o.Interrupts), o.Allowance)
	}
	prev := int64(0)
	for _, at := range o.Interrupts {
		if at <= prev || at > o.Lifespan {
			return fmt.Errorf("interrupt offset %d not strictly increasing within (0, %d]", at, o.Lifespan)
		}
		prev = at
	}
	return nil
}

// Stations returns the number of stations the trace names: one more than the
// highest station index (0 for an empty trace).
func (t *Trace) Stations() int {
	n := 0
	for i := range t.Opportunities {
		if s := t.Opportunities[i].Station + 1; s > n {
			n = s
		}
	}
	return n
}

// MaxOpportunities returns the largest per-station opportunity count — the
// fleet.Config.Opportunities a replaying run needs to play every recorded
// contract.
func (t *Trace) MaxOpportunities() int {
	counts := make(map[int]int)
	max := 0
	for i := range t.Opportunities {
		counts[t.Opportunities[i].Station]++
		if c := counts[t.Opportunities[i].Station]; c > max {
			max = c
		}
	}
	return max
}

// Station returns station i's opportunities in play order. The trace is
// validated and indexed on first use; the returned slice aliases the trace
// and must not be mutated.
func (t *Trace) Station(i int) ([]Opportunity, error) {
	t.compileOnce.Do(t.compile)
	if t.compileErr != nil {
		return nil, t.compileErr
	}
	if i < 0 || i >= len(t.perStation) {
		return nil, nil
	}
	return t.perStation[i], nil
}

// compile validates once and builds the per-station index replay reads.
func (t *Trace) compile() {
	if err := t.Validate(); err != nil {
		t.compileErr = err
		return
	}
	t.perStation = make([][]Opportunity, t.Stations())
	for _, o := range t.Opportunities {
		t.perStation[o.Station] = append(t.perStation[o.Station], o)
	}
}

// Recorder captures the trace of one fleet run. Set one as
// fleet.Config.Record, run, then read Trace. A Recorder holds the most
// recently completed run's trace; do not share one recorder across
// concurrent runs.
type Recorder struct {
	mu sync.Mutex
	tr *Trace
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Publish stores a completed run's trace, replacing any earlier one. It is
// the engine-facing half of the recorder; library users normally only read
// Trace.
func (r *Recorder) Publish(tr *Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tr = tr
}

// Trace returns the most recently recorded run's trace, or nil if no run
// has completed yet.
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tr
}
