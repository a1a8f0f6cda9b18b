package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// seedCorpus returns the well-formed encodings fuzzing mutates from, plus a
// few near-misses.
func seedCorpus(f *testing.F, write func(io.Writer, *Trace) error) []string {
	f.Helper()
	seeds := []string{"", "x", "{", "{}\n"}
	for _, tr := range []*Trace{
		New(1, nil),
		sample(),
		New(7, []Opportunity{{Station: 3, Lifespan: 1 << 40, Allowance: 2, Interrupts: []int64{5, 1 << 40}}}),
	} {
		var buf bytes.Buffer
		if err := write(&buf, tr); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.String())
	}
	return seeds
}

// fuzzMaxLine is the line cap the fuzz targets read under, low enough for
// the fuzzer to reach.
const fuzzMaxLine = 256

// withMaxLine lowers the trace line cap for one test or fuzz target.
func withMaxLine(tb testing.TB, n int) {
	old := maxLine
	maxLine = n
	tb.Cleanup(func() { maxLine = old })
}

// checkLines fails when an accepted input has a line over the cap.
func checkLines(t *testing.T, in string) {
	t.Helper()
	for i, line := range strings.Split(in, "\n") {
		if n := len(strings.TrimSuffix(line, "\r")); n > maxLine {
			t.Fatalf("accepted an input whose line %d has %d bytes, over the cap of %d", i+1, n, maxLine)
		}
	}
}

// roundTrip asserts the parser's contract on arbitrary input: it either
// errors or returns a trace that validates and survives re-encoding.
func roundTrip(t *testing.T, tr *Trace,
	write func(io.Writer, *Trace) error, read func(string) (*Trace, error)) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("parser accepted an invalid trace: %v", err)
	}
	var buf bytes.Buffer
	if err := write(&buf, tr); err != nil {
		t.Fatalf("re-encoding an accepted trace failed: %v", err)
	}
	back, err := read(buf.String())
	if err != nil {
		t.Fatalf("re-parsing our own encoding failed: %v", err)
	}
	if back.TicksPerSetup != tr.TicksPerSetup || len(back.Opportunities) != len(tr.Opportunities) {
		t.Fatalf("re-encode changed shape: %d/%d opportunities", len(back.Opportunities), len(tr.Opportunities))
	}
}

func FuzzReadCSV(f *testing.F) {
	for _, s := range seedCorpus(f, WriteCSV) {
		f.Add(s)
	}
	withMaxLine(f, fuzzMaxLine)
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return // malformed input must error, and it did — never panic
		}
		checkLines(t, in)
		roundTrip(t, tr, WriteCSV, func(s string) (*Trace, error) { return ReadCSV(strings.NewReader(s)) })
	})
}

func FuzzReadJSONL(f *testing.F) {
	for _, s := range seedCorpus(f, WriteJSONL) {
		f.Add(s)
	}
	withMaxLine(f, fuzzMaxLine)
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadJSONL(strings.NewReader(in))
		if err != nil {
			return
		}
		checkLines(t, in)
		roundTrip(t, tr, WriteJSONL, func(s string) (*Trace, error) { return ReadJSONL(strings.NewReader(s)) })
	})
}

func FuzzRead(f *testing.F) {
	for _, s := range seedCorpus(f, WriteCSV) {
		f.Add(s)
	}
	for _, s := range seedCorpus(f, WriteJSONL) {
		f.Add(s)
	}
	withMaxLine(f, fuzzMaxLine)
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		checkLines(t, in)
		if err := tr.Validate(); err != nil {
			t.Fatalf("autodetect accepted an invalid trace: %v", err)
		}
	})
}
