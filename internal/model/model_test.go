package model

import (
	"math"
	"testing"

	"cyclesteal/internal/quant"
)

func TestOpportunityValidate(t *testing.T) {
	good := Opportunity{Lifespan: 100, Interrupts: 2, Setup: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid opportunity rejected: %v", err)
	}
	bad := []Opportunity{
		{Lifespan: 0, Interrupts: 0, Setup: 1},
		{Lifespan: -5, Interrupts: 0, Setup: 1},
		{Lifespan: math.NaN(), Interrupts: 0, Setup: 1},
		{Lifespan: math.Inf(1), Interrupts: 0, Setup: 1},
		{Lifespan: 10, Interrupts: -1, Setup: 1},
		{Lifespan: 10, Interrupts: 0, Setup: 0},
		{Lifespan: 10, Interrupts: 0, Setup: -2},
		{Lifespan: 10, Interrupts: 0, Setup: math.NaN()},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid opportunity %v accepted", i, o)
		}
	}
}

func TestTickScheduleBasics(t *testing.T) {
	s := TickSchedule{300, 400, 500}
	if got := s.Total(); got != 1200 {
		t.Errorf("Total = %d, want 1200", got)
	}
	pre := s.PrefixSums()
	want := []quant.Tick{0, 300, 700, 1200}
	for i := range want {
		if pre[i] != want[i] {
			t.Errorf("PrefixSums[%d] = %d, want %d", i, pre[i], want[i])
		}
	}
	if got := s.UninterruptedWork(100); got != 900 {
		t.Errorf("UninterruptedWork = %d, want 900", got)
	}
	if got := s.WorkBeforePeriod(3, 100); got != 500 {
		t.Errorf("WorkBeforePeriod(3) = %d, want 500", got)
	}
	if err := s.Validate(1200); err != nil {
		t.Errorf("valid tick schedule rejected: %v", err)
	}
	if err := s.Validate(1000); err == nil {
		t.Error("wrong tick total accepted")
	}
	if err := (TickSchedule{0, 5}).Validate(5); err == nil {
		t.Error("zero-length tick period accepted")
	}
	if err := (TickSchedule{}).Validate(0); err == nil {
		t.Error("empty tick schedule accepted")
	}
}

func TestEpisodeFuncAndNameOf(t *testing.T) {
	f := EpisodeFunc(func(p int, L quant.Tick) TickSchedule { return TickSchedule{L} })
	if got := f.Episode(1, 42); len(got) != 1 || got[0] != 42 {
		t.Errorf("EpisodeFunc passthrough failed: %v", got)
	}
	if name := NameOf(f); name == "" {
		t.Error("NameOf returned empty for non-Namer")
	}
	named := namedScheduler{}
	if got := NameOf(named); got != "named" {
		t.Errorf("NameOf = %q, want named", got)
	}
}

type namedScheduler struct{}

func (namedScheduler) Episode(p int, L quant.Tick) TickSchedule { return TickSchedule{L} }
func (namedScheduler) Name() string                             { return "named" }

// appenderScheduler counts AppendEpisode calls so the helper's dispatch is
// observable.
type appenderScheduler struct{ appends int }

func (a *appenderScheduler) Episode(p int, L quant.Tick) TickSchedule { return TickSchedule{L} }
func (a *appenderScheduler) AppendEpisode(dst TickSchedule, p int, L quant.Tick) TickSchedule {
	a.appends++
	return append(dst, L)
}

func TestAppendEpisodeDispatch(t *testing.T) {
	a := &appenderScheduler{}
	got := AppendEpisode(a, TickSchedule{5}, 1, 100)
	if a.appends != 1 {
		t.Errorf("AppendEpisode not dispatched to the appender (calls=%d)", a.appends)
	}
	if len(got) != 2 || got[0] != 5 || got[1] != 100 {
		t.Errorf("appended schedule = %v", got)
	}
	// Fallback: a plain scheduler's Episode result is copied in.
	plain := EpisodeFunc(func(p int, L quant.Tick) TickSchedule { return TickSchedule{L, L} })
	got = AppendEpisode(plain, TickSchedule{1}, 0, 7)
	if len(got) != 3 || got[1] != 7 || got[2] != 7 {
		t.Errorf("fallback append = %v", got)
	}
}
