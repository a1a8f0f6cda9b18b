package trace

import (
	"bytes"
	"io"
	"reflect"
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

// endlessLine reads as one line that never ends, counting what was read.
type endlessLine struct{ read int }

func (r *endlessLine) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '7'
	}
	r.read += len(p)
	return len(p), nil
}

// A line of exactly the cap is read, with any line ending, and one byte
// more is an error naming the line; an endless line is refused once the
// reader holds a cap's worth of it.
func TestReadersBoundLines(t *testing.T) {
	const limit = 80
	withMaxLine(t, limit)
	// The last line of each trace is n bytes long: the object trails
	// spaces.
	head := `{"format":"cyclesteal-trace","version":1,"ticks_per_setup":100}` + "\n"
	trace := func(n int, end string) string {
		obj := `{"station":0,"lifespan":100,"allowance":1}`
		return head + obj + strings.Repeat(" ", n-len(obj)) + end
	}
	for _, end := range []string{"\n", "\r\n", ""} {
		if tr, err := ReadJSONL(strings.NewReader(trace(limit, end))); err != nil || len(tr.Opportunities) != 1 || tr.Opportunities[0].Lifespan != 100 {
			t.Errorf("a line of exactly the cap ending %q: %v", end, err)
		}
		_, err := ReadJSONL(strings.NewReader(trace(limit+1, end)))
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "too long") {
			t.Errorf("a line one byte over the cap ending %q: error %v, want a too-long error naming line 2", end, err)
		}
	}
	r := &endlessLine{}
	_, err := ReadJSONL(io.MultiReader(strings.NewReader(head), r))
	if err == nil || !strings.Contains(err.Error(), "too long") {
		t.Errorf("endless line: error %v, want a too-long error", err)
	}
	if r.read > 2*limit {
		t.Errorf("read %d bytes of a line capped at %d", r.read, limit)
	}
}

// Only JSON whitespace makes a line blank: a line of a vertical tab, a
// form feed, NEL or a no-break space is an error naming it, as it is in the
// service WAL. A CSV trace is refused at its first line.
func TestReadJSONLRefusesNonJSONSpace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	if tr, err := ReadJSONL(strings.NewReader("\n \t\r\n" + buf.String() + "\n\r\n")); err != nil || len(tr.Opportunities) != 4 {
		t.Fatalf("blank lines of JSON whitespace: %v", err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	for _, b := range []string{"\v", "\f", "\u0085", "\u00a0"} {
		in := strings.Join(lines[:2], "") + b + "\n" + strings.Join(lines[2:], "")
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("a line of only %q: error %v, want one naming line 3", b, err)
		}
	}
	csv := "cyclesteal-trace,1,100\nstation,lifespan,allowance,interrupts\n0,2412,2,401;1180\n"
	if _, err := ReadJSONL(strings.NewReader(csv)); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("a CSV trace: error %v, want one naming line 1", err)
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
