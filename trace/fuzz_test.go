package trace

import (
	"bytes"
	"strings"
	"testing"
)

// fuzzMaxLine is the line cap the fuzz target reads under, low enough for
// the fuzzer to reach.
const fuzzMaxLine = 256

// withMaxLine lowers the trace line cap for one test or fuzz target.
func withMaxLine(tb testing.TB, n int) {
	old := maxLine
	maxLine = n
	tb.Cleanup(func() { maxLine = old })
}

// FuzzReadJSONL asserts the reader's contract on arbitrary input: it
// either errors or returns a trace that validates, has no line over the
// cap, and survives re-encoding. The seeds are well-formed encodings plus a
// few near-misses.
func FuzzReadJSONL(f *testing.F) {
	for _, s := range []string{"", "x", "{", "{}\n"} {
		f.Add(s)
	}
	for _, tr := range []*Trace{
		New(1, nil),
		sample(),
		New(7, []Opportunity{{Station: 3, Lifespan: 1 << 40, Allowance: 2, Interrupts: []int64{5, 1 << 40}}}),
	} {
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	withMaxLine(f, fuzzMaxLine)
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadJSONL(strings.NewReader(in))
		if err != nil {
			return // malformed input must error, and it did — never panic
		}
		for i, line := range strings.Split(in, "\n") {
			if n := len(strings.TrimSuffix(line, "\r")); n > maxLine {
				t.Fatalf("accepted an input whose line %d has %d bytes, over the cap of %d", i+1, n, maxLine)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted an invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, tr); err != nil {
			t.Fatalf("re-encoding an accepted trace failed: %v", err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-parsing our own encoding failed: %v", err)
		}
		if back.TicksPerSetup != tr.TicksPerSetup || len(back.Opportunities) != len(tr.Opportunities) {
			t.Fatalf("re-encode changed shape: %d/%d opportunities", len(back.Opportunities), len(tr.Opportunities))
		}
	})
}
