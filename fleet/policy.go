package fleet

import (
	"fmt"
	"strings"

	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/station"
)

// Policy names the period-sizing schedule every station runs its borrowed
// time with. The zero value is the adaptive equalization schedule.
type Policy struct {
	// Name selects the schedule:
	//
	//	"equalized"    Theorem 4.3's equalization program — optimal to
	//	               within low-order terms at every p (the default)
	//	"guideline"    the §3.2 printed adaptive guideline
	//	"nonadaptive"  the §3.1 guideline: ⌊√(pU/c)⌋ equal periods
	//	"single"       one long period per visit (the fragile baseline)
	//	"fixedchunk"   fixed periods of Chunk time units (Atallah-style)
	Name string
	// Chunk is the fixedchunk period length in caller time units; other
	// policies ignore it.
	Chunk float64
}

// Policies enumerates every schedule label PolicyByName accepts, in the
// order the Policy.Name doc lists them.
func Policies() []string {
	return []string{"equalized", "guideline", "nonadaptive", "single", "fixedchunk"}
}

// unknownPolicy is the shared wrong-name error, listing the valid labels.
func unknownPolicy(name string) error {
	return fmt.Errorf("fleet: unknown policy %q (want one of %s)", name, strings.Join(Policies(), ", "))
}

// PolicyByName selects a schedule by label — any name Policies lists; the
// selector CLIs feed flag values through it. fixedchunk callers set Chunk on
// the returned Policy.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "equalized", "guideline", "nonadaptive", "single", "fixedchunk":
		return Policy{Name: name}, nil
	default:
		return Policy{}, unknownPolicy(name)
	}
}

// factory compiles the policy into the per-(station, contract) scheduler
// constructor the engines drive. Validation happens here, at New time, so a
// bad policy fails fast instead of per opportunity.
func (p Policy) factory(g quant.Grid) (station.SchedulerFactory, error) {
	switch p.Name {
	case "", "equalized":
		return func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
			return sched.NewAdaptiveEqualized(ws.Setup)
		}, nil
	case "guideline":
		return func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
			return sched.NewAdaptiveGuideline(ws.Setup)
		}, nil
	case "nonadaptive":
		return func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
			return sched.NewNonAdaptive(c.U, c.P, ws.Setup)
		}, nil
	case "single":
		return func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
			return sched.SinglePeriod{}, nil
		}, nil
	case "fixedchunk":
		if !(p.Chunk > 0) {
			return nil, fmt.Errorf("fleet: fixedchunk policy needs Chunk > 0, got %g", p.Chunk)
		}
		t, err := g.Ticks(p.Chunk)
		if err != nil {
			return nil, fmt.Errorf("fleet: fixedchunk Chunk %w", err)
		}
		return func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
			return sched.FixedChunk{T: t}, nil
		}, nil
	default:
		return nil, unknownPolicy(p.Name)
	}
}
