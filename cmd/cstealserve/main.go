// Command cstealserve runs the fleet as a resident cycle-stealing service:
// one standing fleet of owner-lent workstations accepts a stream of jobs,
// multiplexes them fairly across tenants, and keeps working while stations
// churn in and out. It is the long-lived face of the batch simulators —
// the same deterministic engine, driven by submissions instead of a single
// job, entirely through the public cyclesteal/fleet facade.
//
// Jobs arrive as lines on standard input, one job per line:
//
//	tenant spec[,spec...]
//
// where each spec is either NxD (N tasks of duration D time units) or a
// bare D (one task). Blank lines and lines starting with '#' are skipped;
// a line may run to 1 MiB and expand to 2^20 tasks.
// On end of input the service drains everything still queued and prints a
// per-job summary. With -watch DIR the service additionally polls DIR for
// job files (same line format); a fully submitted file is renamed to
// NAME.done so it is not resubmitted.
//
// With -wal FILE every service event is written through a durable JSONL
// write-ahead log (fsync'd at round barriers and whenever the service goes
// idle). A fault plan (-crash-prob, -kill-round, -fault-seed) injects
// station crashes — queued and in-flight work on a fully crashed steal
// group is lost, not drained — and can kill the scheduler itself mid-run;
// a killed run exits reporting the log to recover from. -recover FILE
// resumes a killed session from its log: logged jobs are rebuilt and
// finished exactly as the dead session would have (give -wal a fresh file
// — the recovery re-logs the whole history).
//
// Usage:
//
//	echo "ana 500x8" | cstealserve -stations 32
//	cstealserve -stations 64 -churn-leave 0.02 -churn-join 0.05 < jobs.txt
//	cstealserve -checkpoint 10 -owners malicious-fixed -policy single < jobs.txt
//	cstealserve -watch /var/spool/jobs -stats 2s < /dev/null
//	cstealserve -wal run.wal -crash-prob 0.01 -kill-round 40 < jobs.txt
//	cstealserve -recover run.wal -wal run2.wal < /dev/null
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"cyclesteal/fleet"
)

func main() {
	var (
		stations   = flag.Int("stations", 32, "number of workstations in the standing fleet")
		setup      = flag.Float64("setup", 5, "per-period setup cost c (time units)")
		policy     = flag.String("policy", "", "scheduling policy (default: adaptive equalized)")
		owners     = flag.String("owners", "", "comma-separated owner temperaments, cycled across stations (see -list-owners)")
		listOwners = flag.Bool("list-owners", false, "print the accepted owner temperaments and exit")
		interrupts = flag.Int("p", 0, "per-contract interrupt allowance (0 = owner default)")
		checkpoint = flag.Float64("checkpoint", 0, "intra-period checkpoint interval in time units (0 = draconian, a kill erases the period)")
		adaptive   = flag.Bool("adaptive", false, "pick the checkpoint interval per contract by Young's rule (overrides -checkpoint)")
		churnLeave = flag.Float64("churn-leave", 0, "per-round probability each station leaves (its queued tasks migrate back)")
		churnJoin  = flag.Float64("churn-join", 0, "per-round probability a new station joins")
		minStation = flag.Int("min-stations", 0, "churn floor on live stations (0 = 1)")
		maxStation = flag.Int("max-stations", 0, "churn ceiling on total stations (0 = twice the initial fleet)")
		seed       = flag.Int64("seed", 1, "fleet seed; with fixed submissions the whole run is reproducible")
		workers    = flag.Int("workers", 0, "simulation worker pool (0 = GOMAXPROCS); results never depend on it")
		maxActive  = flag.Int("max-active", 0, "jobs multiplexed onto the fleet at once (0 = 4)")
		maxQueued  = flag.Int("max-queued", 0, "queued-job bound per tenant before submissions are rejected (0 = 16)")
		stats      = flag.Duration("stats", 0, "print service stats to stderr at this interval (0 = off)")
		watch      = flag.String("watch", "", "also poll this directory for job files (renamed to *.done once submitted)")
		wal        = flag.String("wal", "", "write every service event through a durable JSONL write-ahead log at this path")
		recov      = flag.String("recover", "", "resume a killed session from this write-ahead log before reading new jobs")
		crashProb  = flag.Float64("crash-prob", 0, "per-round probability each live station crashes (lost work, not a graceful leave)")
		faultSeed  = flag.Int64("fault-seed", 0, "fault sampling seed (0 = derived from -seed)")
		killRound  = flag.Int("kill-round", 0, "kill the scheduler itself at this round (0 = never); recover with -recover")
	)
	flag.Parse()
	if *listOwners {
		fmt.Println(strings.Join(fleet.Owners(), "\n"))
		return
	}
	if err := run(config{
		stations: *stations, setup: *setup, policy: *policy, owners: *owners,
		interrupts: *interrupts, checkpoint: *checkpoint, adaptive: *adaptive,
		churnLeave: *churnLeave, churnJoin: *churnJoin,
		minStations: *minStation, maxStations: *maxStation,
		seed: *seed, workers: *workers, maxActive: *maxActive, maxQueued: *maxQueued,
		stats: *stats, watch: *watch,
		wal: *wal, recover: *recov,
		crashProb: *crashProb, faultSeed: *faultSeed, killRound: *killRound,
	}, os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cstealserve:", err)
		os.Exit(1)
	}
}

type config struct {
	stations                 int
	setup                    float64
	policy, owners           string
	interrupts               int
	checkpoint               float64
	adaptive                 bool
	churnLeave, churnJoin    float64
	minStations, maxStations int
	seed                     int64
	workers                  int
	maxActive, maxQueued     int
	stats                    time.Duration
	watch                    string
	wal, recover             string
	crashProb                float64
	faultSeed                int64
	killRound                int
}

// serviceConfig translates the flags into the session's configuration,
// less its WAL.
func (c config) serviceConfig() (fleet.ServiceConfig, error) {
	var ownerList []fleet.Owner
	if c.owners != "" {
		for _, name := range strings.Split(c.owners, ",") {
			o, err := fleet.OwnerByName(strings.TrimSpace(name))
			if err != nil {
				return fleet.ServiceConfig{}, err
			}
			ownerList = append(ownerList, o)
		}
	}
	var pol fleet.Policy
	if c.policy != "" {
		pol = fleet.Policy{Name: c.policy}
	}
	return fleet.ServiceConfig{
		Fleet: fleet.Config{
			Stations:           c.stations,
			Setup:              c.setup,
			Owners:             ownerList,
			Policy:             pol,
			Interrupts:         c.interrupts,
			Checkpoint:         c.checkpoint,
			CheckpointAdaptive: c.adaptive,
			Seed:               c.seed,
			Workers:            c.workers,
			Faults: fleet.FaultPlan{
				Seed:      c.faultSeed,
				CrashProb: c.crashProb,
				KillRound: c.killRound,
			},
		},
		MaxActive:          c.maxActive,
		MaxQueuedPerTenant: c.maxQueued,
		Churn: fleet.ChurnConfig{
			LeaveProb:   c.churnLeave,
			JoinProb:    c.churnJoin,
			MinStations: c.minStations,
			MaxStations: c.maxStations,
		},
	}, nil
}

// service builds the resident session — a fresh one, or one recovered from
// the -recover log. The returned closer releases the WAL file, if any.
func (c config) service() (*fleet.Service, func() error, error) {
	sc, err := c.serviceConfig()
	if err != nil {
		return nil, nil, err
	}
	closeWAL := func() error { return nil }
	if c.wal != "" {
		if c.wal == c.recover {
			return nil, nil, fmt.Errorf("-wal %s is the log being recovered: recovery re-logs the whole history, give -wal a fresh file", c.wal)
		}
		f, err := os.Create(c.wal)
		if err != nil {
			return nil, nil, err
		}
		sc.WAL = f
		closeWAL = f.Close
	}
	if c.recover != "" {
		logf, err := os.Open(c.recover)
		if err != nil {
			closeWAL()
			return nil, nil, err
		}
		defer logf.Close()
		s, err := fleet.RecoverService(sc, logf)
		if err != nil {
			closeWAL()
			return nil, nil, err
		}
		return s, closeWAL, nil
	}
	s, err := fleet.NewService(sc)
	if err != nil {
		closeWAL()
		return nil, nil, err
	}
	return s, closeWAL, nil
}

// run drives the resident service: submissions stream in from r (and the
// watch directory, if any) while the fleet works; once input is exhausted
// and every accepted job has finished, the service shuts down and the
// summary lands on w.
func run(cfg config, r io.Reader, w, errw io.Writer) error {
	s, closeWAL, err := cfg.service()
	if err != nil {
		return err
	}
	defer closeWAL()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		return err
	}
	// stopped closes when the live loop exits on its own — a station error,
	// or the fault plan killing the scheduler.
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		s.Wait()
	}()

	if cfg.stats > 0 {
		go func() {
			tick := time.NewTicker(cfg.stats)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					st := s.Stats()
					fmt.Fprintf(errw, "round %d: %d stations (+%d/-%d), %d queued, %d active, %d finished, %d tasks pending, %d steals\n",
						st.Round, st.Stations, st.Joined, st.Departed, st.QueuedJobs, st.ActiveJobs, st.FinishedJobs, st.TasksPending, st.Steals)
				}
			}
		}()
	}

	// The stdin reader and the directory watcher both submit; the mutex
	// serializes them and guards the shared handle list.
	var mu sync.Mutex
	var handles []*fleet.JobHandle
	submit := func(line, where string) {
		tenant, job, err := parseJob(line)
		if err != nil {
			fmt.Fprintf(errw, "%s: %v\n", where, err)
			return
		}
		h, err := s.Submit(tenant, job)
		if err != nil {
			fmt.Fprintf(errw, "%s: rejected: %v\n", where, err)
			return
		}
		mu.Lock()
		handles = append(handles, h)
		mu.Unlock()
	}

	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	if cfg.watch != "" {
		go func() {
			defer close(watchDone)
			watchDir(ctx, stopWatch, cfg.watch, errw, submit)
		}()
	} else {
		close(watchDone)
	}

	if err := submitLines(r, "stdin", submit); err != nil {
		cancel()
		return err
	}

	// Input is done: stop the watcher, wait for every accepted job, then
	// shut the loop down and report.
	close(stopWatch)
	<-watchDone
	mu.Lock()
	done := append([]*fleet.JobHandle(nil), handles...)
	mu.Unlock()
	for _, h := range done {
		<-h.Done()
	}
	// Jobs rebuilt by -recover have no handles here: wait for the fleet
	// itself to go idle — or for the loop to stop on its own, which a
	// fault-plan kill does with every unfinished job failed.
poll:
	for {
		st := s.Stats()
		if !st.Recovering && st.ActiveJobs == 0 && st.QueuedJobs == 0 {
			break
		}
		select {
		case <-stopped:
			break poll
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	res, err := s.Wait()
	if errors.Is(err, fleet.ErrSchedulerKilled) {
		// The partial run still reports — the log holds everything it did.
		report(w, res)
		if cfg.wal != "" {
			fmt.Fprintf(errw, "scheduler killed at round %d; recover with: cstealserve -recover %s (same flags, -kill-round lifted)\n",
				res.Rounds, cfg.wal)
		}
		return err
	}
	if err != nil && err != context.Canceled {
		return err
	}
	return report(w, res)
}

// watchDir polls dir for job files: every regular file not already marked
// .done is read line by line, submitted, and renamed to NAME.done. A line
// that fails to read (one over maxJobLine) is reported and ends the file
// early; the file is renamed all the same, so no line is submitted twice.
func watchDir(ctx context.Context, stop <-chan struct{}, dir string, errw io.Writer, submit func(line, where string)) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-stop:
			return
		case <-tick.C:
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			fmt.Fprintf(errw, "watch %s: %v\n", dir, err)
			continue
		}
		for _, e := range entries {
			if e.IsDir() || strings.HasSuffix(e.Name(), ".done") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintf(errw, "watch %s: %v\n", path, err)
				continue
			}
			err = submitLines(f, e.Name(), submit)
			f.Close()
			if err != nil {
				fmt.Fprintf(errw, "watch %v\n", err)
			}
			if err := os.Rename(path, path+".done"); err != nil {
				fmt.Fprintf(errw, "watch %s: %v\n", path, err)
			}
		}
	}
}

// Job lines are bounded so a hostile line cannot allocate without bound:
// maxJobLine bytes per line, its LF or CRLF ending aside, and
// maxTasksPerJob tasks in the job it expands to.
const (
	maxJobLine     = 1 << 20
	maxTasksPerJob = 1 << 20
)

// submitLines hands every job line r holds to submit, named name:N by its
// line number; blank lines and '#' comments are skipped. It returns the
// reader's error, a line over maxJobLine bytes included, naming its line.
// The cap is the one the library's line formats apply: a line of exactly
// maxJobLine bytes is read, with any line ending, and the scanner holds at
// most one line and its "\r\n".
func submitLines(r io.Reader, name string, submit func(line, where string)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxJobLine+len("\r\n"))
	n := 0
	for sc.Scan() {
		n++
		if len(sc.Bytes()) > maxJobLine {
			return fmt.Errorf("%s:%d: %w", name, n, bufio.ErrTooLong)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		submit(line, fmt.Sprintf("%s:%d", name, n))
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s:%d: %w", name, n+1, err)
	}
	return nil
}

// parseJob parses one submission line: `tenant spec[,spec...]` where each
// spec is NxD (N tasks of duration D time units) or a bare duration D.
func parseJob(line string) (tenant string, job fleet.Job, err error) {
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return "", fleet.Job{}, fmt.Errorf("want `tenant spec[,spec...]`, got %q", line)
	}
	tenant = fields[0]
	for _, spec := range strings.Split(fields[1], ",") {
		n, d := 1, spec
		if i := strings.IndexByte(spec, 'x'); i >= 0 {
			n, err = strconv.Atoi(spec[:i])
			if err != nil || n < 1 {
				return "", fleet.Job{}, fmt.Errorf("spec %q: task count must be a positive integer", spec)
			}
			d = spec[i+1:]
		}
		if n > maxTasksPerJob-len(job.Tasks) {
			return "", fleet.Job{}, fmt.Errorf("spec %q: the job's task count would pass the %d bound", spec, maxTasksPerJob)
		}
		dur, err := strconv.ParseFloat(d, 64)
		if err != nil || math.IsNaN(dur) || math.IsInf(dur, 0) || dur <= 0 {
			return "", fleet.Job{}, fmt.Errorf("spec %q: task duration must be a positive number", spec)
		}
		for i := 0; i < n; i++ {
			job.Tasks = append(job.Tasks, dur)
		}
	}
	return tenant, job, nil
}

// report prints the drained service's summary: one line per job in
// submission order, then the fleet-wide accounting.
func report(w io.Writer, res fleet.ServiceResult) error {
	for _, j := range res.Jobs {
		state := "unfinished"
		if j.Completed {
			state = fmt.Sprintf("done in rounds %d..%d", j.SubmittedRound, j.FinishedRound)
		} else if j.TasksLost > 0 {
			state = fmt.Sprintf("lost %d tasks to faults", j.TasksLost)
		}
		fmt.Fprintf(w, "job %d %s: %d/%d tasks (%.1f time units), %s\n",
			j.ID, j.Tenant, j.TasksCompleted, j.Tasks, j.TaskWork, state)
	}
	fmt.Fprintf(w, "%d rounds, %d stations joined, %d departed, %d steals\n",
		res.Rounds, res.Joined, res.Departed, res.Fleet.Steals)
	if res.Crashed > 0 {
		fmt.Fprintf(w, "faults: %d stations crashed, %d tasks lost\n", res.Crashed, res.Fleet.TasksLost)
	}
	fmt.Fprintf(w, "fleet: %d tasks (%.1f of %.1f time units, %.1f%%), utilization %.1f%%\n",
		res.Fleet.TasksCompleted, res.Fleet.TaskWork, res.Fleet.JobWork,
		100*res.Fleet.CompletionFraction(), 100*res.Fleet.Utilization())
	return nil
}
