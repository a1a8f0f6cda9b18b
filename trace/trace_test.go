package trace

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func sample() *Trace {
	return New(100, []Opportunity{
		{Station: 0, Lifespan: 2412, Allowance: 2, Interrupts: []int64{401, 1180}},
		{Station: 0, Lifespan: 90, Allowance: 1},
		{Station: 2, Lifespan: 40000, Allowance: 3, Interrupts: []int64{40000}},
		{Station: 1, Lifespan: 1, Allowance: 0},
	})
}

func TestValidate(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := []*Trace{
		New(0, nil), // no grid
		New(100, []Opportunity{{Station: -1, Lifespan: 5}}),
		New(100, []Opportunity{{Station: MaxStations, Lifespan: 5}}),
		New(100, []Opportunity{{Station: 0, Lifespan: 0}}),
		New(100, []Opportunity{{Station: 0, Lifespan: 5, Allowance: -1}}),
		New(100, []Opportunity{{Station: 0, Lifespan: 5, Allowance: 0, Interrupts: []int64{3}}}),
		New(100, []Opportunity{{Station: 0, Lifespan: 5, Allowance: 2, Interrupts: []int64{3, 3}}}),
		New(100, []Opportunity{{Station: 0, Lifespan: 5, Allowance: 2, Interrupts: []int64{6}}}),
		New(100, []Opportunity{{Station: 0, Lifespan: 5, Allowance: 2, Interrupts: []int64{0}}}),
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

func TestShapeHelpers(t *testing.T) {
	tr := sample()
	if got := tr.Stations(); got != 3 {
		t.Errorf("Stations() = %d, want 3", got)
	}
	if got := tr.MaxOpportunities(); got != 2 {
		t.Errorf("MaxOpportunities() = %d, want 2", got)
	}
	s0, err := tr.Station(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s0) != 2 || s0[0].Lifespan != 2412 || s0[1].Lifespan != 90 {
		t.Errorf("station 0 opportunities wrong: %+v", s0)
	}
	if s9, err := tr.Station(9); err != nil || s9 != nil {
		t.Errorf("out-of-range station: %v, %v", s9, err)
	}
	empty := New(100, nil)
	if empty.Stations() != 0 || empty.MaxOpportunities() != 0 {
		t.Error("empty trace has stations")
	}
	invalid := New(0, nil)
	if _, err := invalid.Station(0); err == nil {
		t.Error("Station on an invalid trace did not surface the validation error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.TicksPerSetup != tr.TicksPerSetup || !reflect.DeepEqual(back.Opportunities, tr.Opportunities) {
		t.Fatalf("csv round trip mutated the trace:\n got %+v\nwant %+v", back.Opportunities, tr.Opportunities)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.TicksPerSetup != tr.TicksPerSetup || !reflect.DeepEqual(back.Opportunities, tr.Opportunities) {
		t.Fatalf("jsonl round trip mutated the trace:\n got %+v\nwant %+v", back.Opportunities, tr.Opportunities)
	}
}

func TestReadAutoDetect(t *testing.T) {
	tr := sample()
	for name, write := range map[string]func(*bytes.Buffer) error{
		"csv":   func(b *bytes.Buffer) error { return WriteCSV(b, tr) },
		"jsonl": func(b *bytes.Buffer) error { return WriteJSONL(b, tr) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		buf2 := bytes.NewBufferString("\n \t" + buf.String()) // leading whitespace must not confuse sniffing
		back, err := Read(buf2)
		if err != nil {
			t.Fatalf("%s autodetect: %v", name, err)
		}
		if !reflect.DeepEqual(back.Opportunities, tr.Opportunities) {
			t.Fatalf("%s autodetect mutated the trace", name)
		}
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

// endlessLine reads as one line that never ends, counting what was read.
type endlessLine struct{ read int }

func (r *endlessLine) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '7'
	}
	r.read += len(p)
	return len(p), nil
}

// A line of exactly the cap is read and one byte more is an error naming
// the line, in both encodings and through Read; an endless line is refused
// once the reader holds a cap's worth of it.
func TestReadersBoundLines(t *testing.T) {
	const limit = 80
	withMaxLine(t, limit)
	// The last line of each trace is n bytes long: the CSV row pads its
	// lifespan with leading zeros, the JSONL object trails spaces.
	csvHead := "cyclesteal-trace,1,100\nstation,lifespan,allowance,interrupts\n"
	csvTrace := func(n int) string {
		return csvHead + "0," + strings.Repeat("0", n-len("0,100,1,")) + "100,1,\n"
	}
	jsonlHead := `{"format":"cyclesteal-trace","version":1,"ticks_per_setup":100}` + "\n"
	jsonlTrace := func(n int) string {
		obj := `{"station":0,"lifespan":100,"allowance":1}`
		return jsonlHead + obj + strings.Repeat(" ", n-len(obj)) + "\n"
	}
	for _, c := range []struct {
		name  string
		trace func(int) string
		read  func(io.Reader) (*Trace, error)
		line  string
	}{
		{"ReadCSV", csvTrace, ReadCSV, "line 3"},
		{"ReadJSONL", jsonlTrace, ReadJSONL, "line 2"},
		{"Read csv", csvTrace, Read, "line 3"},
		{"Read jsonl", jsonlTrace, Read, "line 2"},
	} {
		if tr, err := c.read(strings.NewReader(c.trace(limit))); err != nil || len(tr.Opportunities) != 1 || tr.Opportunities[0].Lifespan != 100 {
			t.Errorf("%s: a line of exactly the cap: %v", c.name, err)
		}
		_, err := c.read(strings.NewReader(c.trace(limit + 1)))
		if err == nil || !strings.Contains(err.Error(), c.line) || !strings.Contains(err.Error(), "too long") {
			t.Errorf("%s: a line one byte over the cap: error %v, want a too-long error naming %s", c.name, err, c.line)
		}
	}
	for _, c := range []struct {
		name string
		head string
		read func(io.Reader) (*Trace, error)
	}{
		{"ReadCSV", csvHead, ReadCSV},
		{"ReadJSONL", jsonlHead, ReadJSONL},
	} {
		r := &endlessLine{}
		_, err := c.read(io.MultiReader(strings.NewReader(c.head), r))
		if err == nil || !strings.Contains(err.Error(), "too long") {
			t.Errorf("%s: endless line: error %v, want a too-long error", c.name, err)
		}
		if r.read > 2*limit {
			t.Errorf("%s: read %d bytes of a line capped at %d", c.name, r.read, limit)
		}
	}

	// A row within the line cap but over maxInterruptsPerRow is refused
	// before its interrupt list is split: the read allocates a small
	// multiple of the input, not a string header per interrupt.
	in := csvHead + "0,100,1," + strings.Repeat(";", maxInterruptsPerRow) + "\n"
	withMaxLine(t, len(in))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadCSV(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if want := fmt.Sprintf("has %d interrupts", maxInterruptsPerRow+1); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a row of %d interrupts: error %v, want one saying it %s", maxInterruptsPerRow+1, err, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16*uint64(len(in)) {
		t.Errorf("refusing a %d-byte row of too many interrupts allocated %d bytes, want < 16× the input", len(in), alloc)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"no magic":       "station,lifespan\n1,2\n",
		"bad version":    "cyclesteal-trace,9,100\nstation,lifespan,allowance,interrupts\n",
		"bad ticks":      "cyclesteal-trace,1,zebra\nstation,lifespan,allowance,interrupts\n",
		"short row":      "cyclesteal-trace,1,100\nstation,lifespan,allowance,interrupts\n0,5\n",
		"bad station":    "cyclesteal-trace,1,100\nstation,lifespan,allowance,interrupts\nx,5,1,\n",
		"bad lifespan":   "cyclesteal-trace,1,100\nstation,lifespan,allowance,interrupts\n0,x,1,\n",
		"bad allowance":  "cyclesteal-trace,1,100\nstation,lifespan,allowance,interrupts\n0,5,x,\n",
		"bad interrupt":  "cyclesteal-trace,1,100\nstation,lifespan,allowance,interrupts\n0,5,1,x\n",
		"over allowance": "cyclesteal-trace,1,100\nstation,lifespan,allowance,interrupts\n0,5,0,3\n",
		"unsorted":       "cyclesteal-trace,1,100\nstation,lifespan,allowance,interrupts\n0,5,2,3;2\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestReadJSONLErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"not jsonl":   "cyclesteal-trace,1,100\n",
		"bad format":  `{"format":"other","version":1,"ticks_per_setup":100}` + "\n",
		"bad version": `{"format":"cyclesteal-trace","version":7,"ticks_per_setup":100}` + "\n",
		"bad row":     `{"format":"cyclesteal-trace","version":1,"ticks_per_setup":100}` + "\n{\"station\":\n",
		"invalid opp": `{"format":"cyclesteal-trace","version":1,"ticks_per_setup":100}` + "\n" + `{"station":0,"lifespan":0,"allowance":0}` + "\n",
	}
	for name, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	if r.Trace() != nil {
		t.Fatal("fresh recorder holds a trace")
	}
	tr := sample()
	r.Publish(tr)
	if r.Trace() != tr {
		t.Fatal("recorder lost the published trace")
	}
	tr2 := New(50, nil)
	r.Publish(tr2)
	if r.Trace() != tr2 {
		t.Fatal("publish did not replace the earlier trace")
	}
}
