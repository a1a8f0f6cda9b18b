package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// goldenIDs are the game-layer tables pinned by value. Each renders at
// cstealtables' defaults in about a second at most and prints no
// wall-clock column, so its text output is a pure function of the code.
var goldenIDs = []string{
	"table1", "table2", "nonadaptive", "optgap", "prop41",
	"ablation-quantum", "ablation-guideline", "structure",
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
