// Command nowtrace works with NOW availability traces in the public
// cyclesteal/trace format, JSON Lines — the stand-in for the
// workstation-usage logs a 1990s cluster deployment would collect. It can
// generate a trace by recording a synthetic fleet run and writing it to
// standard output, replay an existing trace file through a scheduling
// policy, or summarize a trace file.
//
// Usage:
//
//	nowtrace -stations 20 -per 50 -owner office > trace.jsonl
//	nowtrace -summary trace.jsonl
//	nowtrace -replay trace.jsonl -policy guideline
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"cyclesteal/fleet"
	"cyclesteal/trace"
)

func main() {
	var (
		stations = flag.Int("stations", 10, "number of workstations")
		per      = flag.Int("per", 20, "opportunities per station")
		owner    = flag.String("owner", "office", "owner temperament: "+strings.Join(fleet.Owners(), ", "))
		setup    = flag.Float64("setup", 5, "per-period setup cost, time units")
		ticks    = flag.Int("ticks", 0, "grid resolution, ticks per setup cost (0 = library default)")
		seed     = flag.Int64("seed", 1, "rng seed")
		policy   = flag.String("policy", "", "scheduling policy for -replay: "+strings.Join(fleet.Policies(), ", "))
		replay   = flag.String("replay", "", "replay this trace file through the policy and report the run")
		summary  = flag.String("summary", "", "print summary statistics of this trace file")
	)
	flag.Parse()

	switch {
	case *summary != "":
		fatalIf(summarize(*summary))
	case *replay != "":
		fatalIf(replayFile(*replay, *policy, *setup))
	default:
		fatalIf(generate(*stations, *per, *owner, *setup, *ticks, *seed))
	}
}

// generate records a synthetic fleet survey and writes its trace to stdout.
func generate(stations, per int, ownerName string, setup float64, ticks int, seed int64) error {
	o, err := fleet.OwnerByName(ownerName)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder()
	f, err := fleet.New(fleet.Config{
		Stations:      stations,
		Setup:         setup,
		Opportunities: per,
		Owners:        []fleet.Owner{o},
		Seed:          seed,
		TicksPerSetup: ticks,
		Record:        rec,
	})
	if err != nil {
		return err
	}
	if _, err := f.Run(context.Background(), fleet.Job{}); err != nil {
		return err
	}
	return trace.WriteJSONL(os.Stdout, rec.Trace())
}

// load reads a trace file.
func load(path string) (*trace.Trace, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return trace.ReadJSONL(fh)
}

// replayFile replays a recorded trace through the named policy and reports
// the run — "what would this schedule have banked against the interruptions
// that actually happened".
func replayFile(path, policyName string, setup float64) error {
	tr, err := load(path)
	if err != nil {
		return err
	}
	pol, err := fleet.PolicyByName(policyName)
	if err != nil {
		return err
	}
	f, err := fleet.New(fleet.Config{
		Stations:      tr.Stations(),
		Setup:         setup,
		Opportunities: tr.MaxOpportunities(),
		Owners:        []fleet.Owner{fleet.Replay{Trace: tr}},
		Policy:        pol,
		TicksPerSetup: tr.TicksPerSetup,
	})
	if err != nil {
		return err
	}
	res, err := f.Run(context.Background(), fleet.Job{})
	if err != nil {
		return err
	}
	name := policyName
	if name == "" {
		name = "equalized"
	}
	fmt.Printf("replayed %s: %d stations, %d opportunities, %d interrupts\n",
		path, len(res.Stations), totalOpportunities(res), res.Interrupts)
	fmt.Printf("policy %s: work %.1f of %.1f offered (utilization %.3f), %.1f killed\n",
		name, res.Work, res.Lifespan, res.Utilization(), killed(res))
	return nil
}

// summarize prints shape and interrupt statistics of a trace file.
func summarize(path string) error {
	tr, err := load(path)
	if err != nil {
		return err
	}
	var lifespan, interrupts int64
	minU, maxU := int64(0), int64(0)
	for i := range tr.Opportunities {
		o := &tr.Opportunities[i]
		lifespan += o.Lifespan
		interrupts += int64(len(o.Interrupts))
		if i == 0 || o.Lifespan < minU {
			minU = o.Lifespan
		}
		if o.Lifespan > maxU {
			maxU = o.Lifespan
		}
	}
	n := len(tr.Opportunities)
	fmt.Printf("%s: %d stations, %d opportunities, %d ticks per setup\n",
		path, tr.Stations(), n, tr.TicksPerSetup)
	if n == 0 {
		return nil
	}
	fmt.Printf("lifespans: mean %.1f, min %d, max %d ticks\n",
		float64(lifespan)/float64(n), minU, maxU)
	fmt.Printf("total lifespan: %d ticks; interrupts: %d (%.3f per opportunity)\n",
		lifespan, interrupts, float64(interrupts)/float64(n))
	return nil
}

func totalOpportunities(res fleet.Result) int {
	n := 0
	for _, s := range res.Stations {
		n += s.Opportunities
	}
	return n
}

func killed(res fleet.Result) float64 {
	k := 0.0
	for _, s := range res.Stations {
		k += s.Killed
	}
	return k
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nowtrace:", err)
		os.Exit(1)
	}
}
