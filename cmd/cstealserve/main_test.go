package main

import (
	"bytes"
	"context"
	"errors"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cyclesteal/fleet"
)

func TestParseJob(t *testing.T) {
	cases := []struct {
		line   string
		tenant string
		tasks  []float64
		ok     bool
	}{
		{"ana 100x8", "ana", append([]float64(nil), repeat(8, 100)...), true},
		{"bo 12.5", "bo", []float64{12.5}, true},
		{"ana 2x8,3x20,1.5", "ana", []float64{8, 8, 20, 20, 20, 1.5}, true},
		{"  ana   4x2  ", "ana", []float64{2, 2, 2, 2}, true},
		{"", "", nil, false},
		{"ana", "", nil, false},
		{"ana 8 12", "", nil, false},
		{"ana 0x8", "", nil, false},
		{"ana -3x8", "", nil, false},
		{"ana 3x-8", "", nil, false},
		{"ana 3x0", "", nil, false},
		{"ana x8", "", nil, false},
		{"ana 3x", "", nil, false},
		{"ana NaN", "", nil, false},
		{"ana Inf", "", nil, false},
		{"ana 8,", "", nil, false},
		{"ana 9999999999x1", "", nil, false},
		// 44 bytes that once expanded to 4,194,304 tasks: the bound is
		// the whole line's, not each spec's.
		{"ana 1048576x1,1048576x1,1048576x1,1048576x1", "", nil, false},
		{"ana 1048576x1,2", "", nil, false},
	}
	for _, tc := range cases {
		tenant, job, err := parseJob(tc.line)
		if tc.ok != (err == nil) {
			t.Errorf("parseJob(%q): err = %v, want ok=%v", tc.line, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if tenant != tc.tenant {
			t.Errorf("parseJob(%q): tenant %q, want %q", tc.line, tenant, tc.tenant)
		}
		if len(job.Tasks) != len(tc.tasks) {
			t.Errorf("parseJob(%q): %d tasks, want %d", tc.line, len(job.Tasks), len(tc.tasks))
			continue
		}
		for i, d := range tc.tasks {
			if job.Tasks[i] != d {
				t.Errorf("parseJob(%q): task %d = %g, want %g", tc.line, i, job.Tasks[i], d)
			}
		}
	}
}

func repeat(d float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func FuzzParseJob(f *testing.F) {
	f.Add("ana 100x8")
	f.Add("bo 12.5,3x20")
	f.Add("t 1e300x2")
	f.Add("x 0x0")
	f.Add("a NaNxInf")
	f.Add("  spaced   4x2,,")
	f.Add("ana 1048576x1,1048576x1,1048576x1,1048576x1")
	f.Fuzz(func(t *testing.T, line string) {
		tenant, job, err := parseJob(line)
		if err != nil {
			return
		}
		if len(job.Tasks) > maxTasksPerJob {
			t.Fatalf("parseJob(%q): %d tasks, over the %d bound", line, len(job.Tasks), maxTasksPerJob)
		}
		if strings.TrimSpace(tenant) == "" {
			t.Fatalf("parseJob(%q): accepted empty tenant", line)
		}
		if len(job.Tasks) == 0 {
			t.Fatalf("parseJob(%q): accepted empty job", line)
		}
		for _, d := range job.Tasks {
			if !(d > 0) || math.IsInf(d, 0) {
				t.Fatalf("parseJob(%q): accepted task duration %g", line, d)
			}
		}
	})
}

// TestRunEndToEnd drives the whole binary path short of main: stdin
// submissions, a watched directory, churn, checkpointing, a WAL, and the
// final summary — twice. Wall-clock timing decides which round each
// submission lands on, so the passes may log different events; the
// contract is that each pass's summary is the one its own event log
// replays to, and that passes logging the same events print the same
// summary.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	input := "ana 50x8\nbo 20x12,5x3\n# comment\n\nana 10x2\n"
	outputs := make([]string, 2)
	logs := make([][]fleet.ServiceEvent, 2)
	for i := range outputs {
		if err := os.WriteFile(filepath.Join(dir, "batch.jobs"), []byte("carol 30x5\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		cfg := config{
			stations:   16,
			setup:      5,
			checkpoint: 10,
			churnLeave: 0.05, churnJoin: 0.1,
			seed:  7,
			stats: time.Millisecond,
			watch: dir,
			wal:   filepath.Join(t.TempDir(), "run.wal"), // outside the watched directory
		}
		if err := run(cfg, strings.NewReader(input), &out, &errOut); err != nil {
			t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
		}
		got := out.String()
		for _, want := range []string{"job 0 ana: 50/50", "job 1 bo: 25/25", "job 2 ana: 10/10"} {
			if !strings.Contains(got, want) {
				t.Errorf("summary missing %q:\n%s", want, got)
			}
		}
		// The watcher polls at 1 Hz, so the carol job only appears if the
		// stdin jobs kept the service alive long enough — don't assert it,
		// but if it was submitted it must have finished.
		if strings.Contains(got, "carol") && !strings.Contains(got, "carol: 30/30") {
			t.Errorf("watched job submitted but unfinished:\n%s", got)
		}
		outputs[i] = got
		logs[i] = replayedSummary(t, cfg, got)
		if _, err := os.Stat(filepath.Join(dir, "batch.jobs.done")); err == nil {
			if err := os.Remove(filepath.Join(dir, "batch.jobs.done")); err != nil {
				t.Fatal(err)
			}
		} else {
			// Not yet picked up: remove the original so run 2 starts clean.
			os.Remove(filepath.Join(dir, "batch.jobs"))
		}
	}
	if reflect.DeepEqual(logs[0], logs[1]) && outputs[0] != outputs[1] {
		t.Errorf("identical event logs, different summaries:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", outputs[0], outputs[1])
	}
}

// replayedSummary checks a finished pass against its own WAL: replaying the
// logged events under the pass's configuration must print its summary byte
// for byte. It returns the events.
func replayedSummary(t *testing.T, cfg config, summary string) []fleet.ServiceEvent {
	t.Helper()
	f, err := os.Open(cfg.wal)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := fleet.ReadWAL(f)
	if err != nil {
		t.Fatalf("reading the pass's WAL: %v", err)
	}
	sc, err := cfg.serviceConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.ReplayService(context.Background(), sc, events)
	if err != nil {
		t.Fatalf("replaying the pass's WAL: %v", err)
	}
	var replayed bytes.Buffer
	if err := report(&replayed, res); err != nil {
		t.Fatal(err)
	}
	if replayed.String() != summary {
		t.Errorf("the pass's WAL replays to a different summary:\n--- run ---\n%s\n--- replay ---\n%s", summary, replayed.String())
	}
	return events
}

func TestRunRejectsBadConfig(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run(config{stations: 4, setup: 5, owners: "no-such-owner"}, strings.NewReader(""), &out, &errOut)
	if err == nil {
		t.Fatal("unknown owner accepted")
	}
	err = run(config{stations: 4, setup: 5, churnLeave: 1.5}, strings.NewReader(""), &out, &errOut)
	if err == nil {
		t.Fatal("leave probability 1.5 accepted")
	}
}

// Every -owners value the package comment's usage lines show must resolve:
// an example the command refuses teaches a label it does not accept.
func TestUsageOwnersResolve(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		fields := strings.Fields(line)
		for i := 0; i+1 < len(fields); i++ {
			if fields[i] != "-owners" {
				continue
			}
			found++
			if _, err := (config{stations: 4, setup: 5, owners: fields[i+1]}).serviceConfig(); err != nil {
				t.Errorf("usage line %q: %v", strings.TrimSpace(line), err)
			}
		}
	}
	if found == 0 {
		t.Fatal("no -owners example in the package comment")
	}
}

// Bad lines are reported to stderr and skipped; good lines still run.
func TestRunSkipsBadLines(t *testing.T) {
	var out, errOut bytes.Buffer
	input := "bad-line-no-spec\nana 10x8\nbo 0x3\n"
	if err := run(config{stations: 8, setup: 5, seed: 3}, strings.NewReader(input), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ana: 10/10") {
		t.Errorf("good job missing from summary:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "stdin:1") || !strings.Contains(errOut.String(), "stdin:3") {
		t.Errorf("bad lines not reported: %s", errOut.String())
	}
}

// The full crash-recovery flow through the CLI surface: a session logging
// to a WAL is killed mid-run by its fault plan, then a second session
// recovers from that log and finishes the job.
func TestRunKillRecover(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "run.wal")
	cfg := config{stations: 16, setup: 5, seed: 7, wal: wal, killRound: 2}
	var out, errOut bytes.Buffer
	err := run(cfg, strings.NewReader("ana 6000x8\n"), &out, &errOut)
	if !errors.Is(err, fleet.ErrSchedulerKilled) {
		t.Fatalf("killed run error %v, want ErrSchedulerKilled (stderr: %s)", err, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-recover "+wal) {
		t.Errorf("kill report has no recovery hint: %s", errOut.String())
	}
	if strings.Contains(out.String(), "done in rounds") {
		t.Errorf("killed run reports a finished job:\n%s", out.String())
	}

	rcfg := config{stations: 16, setup: 5, seed: 7, recover: wal, wal: filepath.Join(dir, "run2.wal")}
	out.Reset()
	errOut.Reset()
	if err := run(rcfg, strings.NewReader(""), &out, &errOut); err != nil {
		t.Fatalf("recovery run: %v (stderr: %s)", err, errOut.String())
	}
	if !strings.Contains(out.String(), "ana: 6000/6000") {
		t.Errorf("recovered job unfinished:\n%s", out.String())
	}

	// -wal pointing at the log being recovered must be refused, not eaten.
	bad := config{stations: 16, setup: 5, seed: 7, recover: wal, wal: wal}
	if err := run(bad, strings.NewReader(""), &out, &errOut); err == nil {
		t.Fatal("recovering a log into itself accepted")
	}

	// A log of the retired version 1 is refused, naming both versions.
	log, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(dir, "v1.wal")
	if err := os.WriteFile(v1, bytes.Replace(log, []byte(`"version":2`), []byte(`"version":1`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(config{stations: 16, setup: 5, seed: 7, recover: v1}, strings.NewReader(""), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("-recover of a version-1 log: error %v, want one naming versions 1 and 2", err)
	}
}

// A job line over the 1 MiB cap is an error naming its line, on stdin and
// in a watched file; the watched file is still renamed, so none of its
// lines is submitted twice.
func TestJobLinesBounded(t *testing.T) {
	long := "ana " + strings.Repeat("1,", maxJobLine/2) + "1"
	var out, errOut bytes.Buffer
	err := run(config{stations: 4, setup: 5, seed: 3}, strings.NewReader("# jobs\nana 5x2\n"+long+"\n"), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "stdin:3") || !strings.Contains(err.Error(), "too long") {
		t.Fatalf("over-long stdin line: error %v, want one naming stdin:3", err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "big.jobs"), []byte("ana 5x2\n\n"+long+"\nbo 3x2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop, done := make(chan struct{}), make(chan struct{})
	var submitted []string
	errOut.Reset()
	go func() {
		defer close(done)
		watchDir(ctx, stop, dir, &errOut, func(line, where string) { submitted = append(submitted, where+" "+line) })
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, err := os.Stat(filepath.Join(dir, "big.jobs.done")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the watched file was never renamed")
		}
	}
	close(stop)
	<-done
	if !reflect.DeepEqual(submitted, []string{"big.jobs:1 ana 5x2"}) {
		t.Errorf("submitted %q, want only the line before the over-long one", submitted)
	}
	if !strings.Contains(errOut.String(), "big.jobs:3") || !strings.Contains(errOut.String(), "too long") {
		t.Errorf("over-long watched line reported as %q, want big.jobs:3", errOut.String())
	}
}
