package fleet

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
)

// A study dealt from the job's ticks is the study dealt from the job: the
// same hands (task IDs, order and MinDur), and the same shard states and
// merge. The job sizes straddle the hand count; the fleets deal over 64
// hands, 3, one shared queue and a Private hand per station.
func TestStudyTicksMatchesStudy(t *testing.T) {
	configs := map[string]Config{
		"sharded": {Stations: 1000, Setup: 1, Opportunities: 2, Seed: 4},
		"3 hands": {Stations: 10, Setup: 5, Shards: 3, TicksPerSetup: 7, Seed: 5},
		"shared":  {Stations: 6, Setup: 2, Pool: Shared, Seed: 6},
		"private": {Stations: 5, Setup: 1, Pool: Private, Seed: 7},
	}
	for name, cfg := range configs {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 2, 63, 64, 65, 12305, 100000} {
			job := Job{Tasks: intakeDurations(n)}
			want, err := f.Study(job, 3)
			if err != nil {
				t.Fatal(err)
			}
			ticks, err := f.JobTicks(job)
			if err != nil {
				t.Fatal(err)
			}
			if len(ticks) != n || (n == 0) != (ticks == nil) {
				t.Fatalf("%s, %d tasks: %d ticks (nil %v)", name, n, len(ticks), ticks == nil)
			}
			flat, _, err := quantizeFlat(f.g, job.Tasks)
			if err != nil {
				t.Fatal(err)
			}
			for i, tk := range flat {
				if ticks[i] != tk.Duration {
					t.Fatalf("%s, %d tasks: task %d is %d ticks, the intake makes it %d", name, n, i, ticks[i], tk.Duration)
				}
			}
			got, err := f.StudyTicks(ticks, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.fj, want.fj) || got.fm.Private != want.fm.Private {
				t.Fatalf("%s, %d tasks: the hands dealt from ticks differ from Study's", name, n)
			}
		}
	}
	// The studies run and merge alike.
	f, err := New(Config{Stations: 10, Setup: 5, Opportunities: 4, Shards: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	job := facadeJob()
	want, err := f.Replicate(context.Background(), job, 40)
	if err != nil {
		t.Fatal(err)
	}
	ticks, err := f.JobTicks(job)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.StudyTicks(ticks, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got := studyPartition(t, st, 3, 9); !reflect.DeepEqual(got, want) {
		t.Errorf("a study from ticks merges to\n%+v\nReplicate gives\n%+v", got, want)
	}
}

// JobTicks refuses what the intake refuses, in the same words: a bad
// duration anywhere in the job, and a total that overflows.
func TestJobTicksRefusesAsTheIntake(t *testing.T) {
	f, err := New(Config{Stations: 8, Setup: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12293
	// huge is 0.6·2^63 ticks: two of them overflow the total, one does not.
	huge := 0.6 * math.MaxInt64 / 100
	cases := []struct {
		name string
		at   []int
		d    []float64
	}{
		{"NaN", []int{3}, []float64{math.NaN()}},
		{"-1", []int{8193}, []float64{-1}},
		{"+Inf", []int{4095}, []float64{math.Inf(1)}},
		{"1e300 at the last task", []int{n - 1}, []float64{1e300}},
		{"two huge tasks", []int{5, 8201}, []float64{huge, huge}},
	}
	for _, c := range cases {
		durations := intakeDurations(n)
		for j, i := range c.at {
			durations[i] = c.d[j]
		}
		job := Job{Tasks: durations}
		_, want := f.Study(job, 1)
		ticks, err := f.JobTicks(job)
		if want == nil || err == nil || err.Error() != want.Error() || ticks != nil {
			t.Errorf("%s: JobTicks error %v, the intake's %v", c.name, err, want)
		}
	}
	if _, err := f.JobTicks(Job{Tasks: []float64{huge}}); err != nil {
		t.Errorf("one huge task refused: %v", err)
	}
}

// StudyTicks refuses a tick below 1 and a total past the grid, naming the
// task, and a study that Study refuses.
func TestStudyTicksRefuses(t *testing.T) {
	f, err := New(Config{Stations: 4, Setup: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		ticks []int64
		want  string
	}{
		{[]int64{5, 5, 0, 5}, "task 2 duration must be ≥ 1 tick, got 0"},
		{[]int64{-7}, "task 0 duration must be ≥ 1 tick, got -7"},
		{[]int64{1, math.MaxInt64 - 1, 1, 1}, "task 2: the job's total duration overflows the tick grid"},
	} {
		if _, err := f.StudyTicks(c.ticks, 3); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ticks %v: error %v, want one naming %q", c.ticks, err, c.want)
		}
	}
	if _, err := f.StudyTicks([]int64{5}, 0); err == nil {
		t.Error("trials=0 accepted")
	}
}
