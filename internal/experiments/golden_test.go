package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cyclesteal/internal/tab"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// goldenIDs are the tables pinned by value: the game-layer tables, E10's
// task granularity, and the fleet studies E11–E17 bar E9d. E13's trace
// column replays a recorded trace, and E17's rows cross the distrib wire
// to in-process workers. Each renders at cstealtables' defaults in about a
// second at most. Apart from the columns timingColumns blanks, its text
// output is a pure function of the code.
var goldenIDs = []string{
	"table1", "table2", "nonadaptive", "optgap", "prop41",
	"ablation-quantum", "ablation-guideline", "structure", "tasks",
	"farm", "fleetscale", "owners", "topology", "resident", "faults", "distrib",
}

// timingColumns names, by experiment ID, the wall-clock columns a golden
// blanks: they vary run to run, and nothing else in the table does.
var timingColumns = map[string][]string{
	"fleetscale": {"ms/trial"},
}

// blankTiming empties the cells of the named columns in every row.
func blankTiming(tb *tab.Table, cols []string) {
	for c, h := range tb.Header {
		if slices.Contains(cols, h) {
			for _, row := range tb.Rows {
				row[c] = ""
			}
		}
	}
}

// TestGoldenTables renders each pinned table exactly as `cstealtables
// -experiment <id>` prints it and diffs the bytes against
// testdata/<id>.golden. Run `go test ./internal/experiments -run
// TestGoldenTables -update` to rewrite the files after a change that is
// meant to move a value.
func TestGoldenTables(t *testing.T) {
	cfg := Config{C: 100, Seed: 1} // cstealtables' defaults
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			blankTiming(tb, timingColumns[id])
			var got bytes.Buffer
			if err := tb.WriteText(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record it)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s moved from %s:\n--- got ---\n%s--- want ---\n%s", id, path, got.Bytes(), want)
			}
		})
	}
}
