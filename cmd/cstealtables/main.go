// Command cstealtables regenerates the paper's evaluation artifacts — Table
// 1, Table 2, and every figure-equivalent claim series (experiments E1–E17;
// -list names them) — and prints them as text, CSV, or JSON.
//
// Usage:
//
//	cstealtables                      # run every experiment, text output
//	cstealtables -experiment table2   # one experiment
//	cstealtables -list                # list experiment IDs
//	cstealtables -format csv          # machine-readable output
//	cstealtables -c 50 -seed 7        # grid resolution / Monte-Carlo seed
//	cstealtables -trials 1000         # widen every replicated experiment
//	cstealtables -experiment fleetscale -fleets 100,1000,10000
//	cstealtables -experiment topology   # E14: latency-priced two-tier steals
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cyclesteal/internal/experiments"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/tab"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment ID to run (default: all)")
		format     = flag.String("format", "text", "output format: text, csv, or json")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		c          = flag.Int64("c", 100, "grid resolution: ticks per setup cost")
		seed       = flag.Int64("seed", 1, "base seed for Monte-Carlo experiments (per-trial streams derive from it)")
		workers    = flag.Int("workers", 0, "Monte-Carlo worker pool size (0 = GOMAXPROCS; affects speed only, never values)")
		trials     = flag.Int("trials", 0, "override every replicated experiment's trial count (0 = per-experiment defaults; raising it widens studies without rebasing, per mc prefix stability)")
		fleets     = flag.String("fleets", "", "override the fleet sizes of the fleet sweeps (E12, E14) as comma-separated station counts, e.g. 100,1000,10000 (empty = the experiment's defaults; E14 needs multiples of 4)")
	)
	flag.Parse()

	fleetList, err := parseFleets(*fleets)
	if err != nil {
		fatal(err)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{C: quant.Tick(*c), Seed: *seed, Workers: *workers, Trials: *trials, Fleets: fleetList}
	var selected []experiments.Experiment
	if *experiment == "" {
		selected = experiments.All()
	} else {
		e, err := experiments.Lookup(*experiment)
		if err != nil {
			fatal(err)
		}
		selected = []experiments.Experiment{e}
	}

	for i, e := range selected {
		table, err := e.Run(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		if err := emit(table, *format, i > 0); err != nil {
			fatal(err)
		}
	}
}

func emit(t *tab.Table, format string, separator bool) error {
	if separator && format == "text" {
		fmt.Println()
	}
	switch format {
	case "text":
		return t.WriteText(os.Stdout)
	case "csv":
		return t.WriteCSV(os.Stdout)
	case "json":
		return t.WriteJSON(os.Stdout)
	default:
		return fmt.Errorf("unknown format %q (want text, csv, or json)", format)
	}
}

// parseFleets decodes the -fleets list: comma-separated positive station
// counts, empty meaning "use the experiment's defaults".
func parseFleets(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -fleets entry %q (want comma-separated station counts)", p)
		}
		if n < 1 {
			return nil, fmt.Errorf("bad -fleets entry %d: fleet sizes must be ≥ 1", n)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cstealtables:", err)
	os.Exit(1)
}
