package adversary

import (
	"math/rand"
	"testing"

	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
)

var episode = model.TickSchedule{300, 200, 100}

func TestNone(t *testing.T) {
	if _, ok := (None{}).NextInterrupt(3, 1000, episode); ok {
		t.Error("None interrupted")
	}
	if (None{}).Name() == "" {
		t.Error("empty name")
	}
}

func TestLastPeriod(t *testing.T) {
	at, ok := (LastPeriod{}).NextInterrupt(1, 1000, episode)
	if !ok || at != 600 {
		t.Errorf("want interrupt at 600, got (%d, %v)", at, ok)
	}
	if _, ok := (LastPeriod{}).NextInterrupt(0, 1000, episode); ok {
		t.Error("interrupted with no budget")
	}
	if _, ok := (LastPeriod{}).NextInterrupt(1, 1000, nil); ok {
		t.Error("interrupted an empty episode")
	}
}

func TestGreedyEqualization(t *testing.T) {
	g := GreedyEqualization{C: 10}
	// Damages: 300+10, 200+20, 100+30 → kill period 1 at T_1 = 300.
	at, ok := g.NextInterrupt(1, 1000, episode)
	if !ok || at != 300 {
		t.Errorf("want 300, got (%d, %v)", at, ok)
	}
	// Larger c shifts the balance toward later periods.
	g2 := GreedyEqualization{C: 120}
	// Damages: 300+120, 200+240, 100+360 → kill period 3 at T_3 = 600.
	at, ok = g2.NextInterrupt(1, 1000, episode)
	if !ok || at != 600 {
		t.Errorf("want 600, got (%d, %v)", at, ok)
	}
	if _, ok := g.NextInterrupt(0, 1000, episode); ok {
		t.Error("interrupted with no budget")
	}
}

func TestScripted(t *testing.T) {
	s := &Scripted{Offsets: []quant.Tick{50, 9999, 0}}
	at, ok := s.NextInterrupt(3, 1000, episode)
	if !ok || at != 50 {
		t.Errorf("first: want 50, got (%d, %v)", at, ok)
	}
	// Beyond-lifespan offsets clamp to the residual lifespan (an offset in
	// (episode total, L] interrupts trailing idle time and is legal).
	at, ok = s.NextInterrupt(2, 1000, episode)
	if !ok || at != 1000 {
		t.Errorf("second: want clamp to 1000, got (%d, %v)", at, ok)
	}
	// Zero offsets clamp up to 1.
	at, ok = s.NextInterrupt(1, 1000, episode)
	if !ok || at != 1 {
		t.Errorf("third: want clamp to 1, got (%d, %v)", at, ok)
	}
	if _, ok := s.NextInterrupt(1, 1000, episode); ok {
		t.Error("script exhausted but still interrupting")
	}
	if _, ok := (&Scripted{Offsets: []quant.Tick{5}}).NextInterrupt(0, 10, episode); ok {
		t.Error("interrupted with no budget")
	}
}

func TestRandomBounds(t *testing.T) {
	r := &Random{Rng: rand.New(rand.NewSource(1)), Prob: 1.0}
	for i := 0; i < 200; i++ {
		at, ok := r.NextInterrupt(1, 1000, episode)
		if !ok {
			t.Fatal("Prob=1 did not interrupt")
		}
		if at < 1 || at > episode.Total() {
			t.Fatalf("offset %d outside [1, %d]", at, episode.Total())
		}
	}
	never := &Random{Rng: rand.New(rand.NewSource(1)), Prob: 0}
	if _, ok := never.NextInterrupt(1, 1000, episode); ok {
		t.Error("Prob=0 interrupted")
	}
}

func TestPoisson(t *testing.T) {
	po := &Poisson{Rng: rand.New(rand.NewSource(7)), Mean: 100}
	fired := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		at, ok := po.NextInterrupt(1, 1000, episode)
		if ok {
			fired++
			if at < 1 || at > episode.Total() {
				t.Fatalf("offset %d outside episode", at)
			}
		}
	}
	// P(arrival ≤ 600 | mean 100) = 1 − e^{−6} ≈ 0.9975.
	if fired < trials*95/100 {
		t.Errorf("poisson(mean=100) fired only %d/%d times inside a 600-tick episode", fired, trials)
	}
	long := &Poisson{Rng: rand.New(rand.NewSource(7)), Mean: 1e7}
	fired = 0
	for i := 0; i < 200; i++ {
		if _, ok := long.NextInterrupt(1, 1000, episode); ok {
			fired++
		}
	}
	if fired > 10 {
		t.Errorf("poisson(mean=1e7) fired %d/200 times; expected almost never", fired)
	}
	if _, ok := po.NextInterrupt(0, 1000, episode); ok {
		t.Error("interrupted with no budget")
	}
	if _, ok := (&Poisson{Rng: rand.New(rand.NewSource(1)), Mean: 0}).NextInterrupt(1, 10, episode); ok {
		t.Error("mean=0 should disable interrupts")
	}
}

func TestPeriodic(t *testing.T) {
	pe := Periodic{U: 1000, Every: 250}
	// Fresh opportunity: elapsed 0, next tick at 250 → offset 250.
	at, ok := pe.NextInterrupt(2, 1000, episode)
	if !ok || at != 250 {
		t.Errorf("want 250, got (%d, %v)", at, ok)
	}
	// Elapsed 400 (L=600): next at 500 → offset 100.
	at, ok = pe.NextInterrupt(1, 600, episode)
	if !ok || at != 100 {
		t.Errorf("want 100, got (%d, %v)", at, ok)
	}
	// Elapsed 500 exactly: next at 750 → offset 250.
	at, ok = pe.NextInterrupt(1, 500, episode)
	if !ok || at != 250 {
		t.Errorf("want 250, got (%d, %v)", at, ok)
	}
	// Episode too short to reach the next tick.
	short := model.TickSchedule{100}
	if _, ok := pe.NextInterrupt(1, 1000, short); ok {
		t.Error("interrupted beyond the episode")
	}
	if _, ok := (Periodic{U: 100, Every: 0}).NextInterrupt(1, 100, episode); ok {
		t.Error("Every=0 should disable interrupts")
	}
}

func TestNames(t *testing.T) {
	named := []interface{ Name() string }{
		None{}, LastPeriod{}, GreedyEqualization{}, &Scripted{}, &Random{}, &Poisson{}, Periodic{},
	}
	for _, n := range named {
		if n.Name() == "" {
			t.Errorf("%T has empty name", n)
		}
	}
}
