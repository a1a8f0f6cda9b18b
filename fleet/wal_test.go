package fleet

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"cyclesteal/internal/jsonl"
)

// writeEvent writes ev's line as a service logs it: its ticks encoded by
// jsonl.AppendInt64s and spliced into the record.
func writeEvent(w io.Writer, ev ServiceEvent) error {
	return writeWALRecord(w, ev, jsonl.AppendInt64s(nil, ev.Ticks))
}

// withWALMaxLine lowers the WAL line cap for one test.
func withWALMaxLine(t *testing.T, n int) {
	old := walMaxLine
	walMaxLine = n
	t.Cleanup(func() { walMaxLine = old })
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

// validWAL is a small well-formed log exercising every record kind.
const validWAL = `{"format":"cyclesteal-service-wal","version":2,"ticks_per_setup":100}
{"round":0,"kind":"submit","tenant":"acme","job_id":1,"tasks":[240,250,60]}
{"round":1,"kind":"checkpoint","checkpoint":4,"adaptive":true}
{"round":2,"kind":"join","sampled":true,"station":12}
{"round":2,"kind":"leave","sampled":true,"station":3}
{"round":5,"kind":"crash","sampled":true,"station":7}
{"round":9,"kind":"kill","sampled":true}
`

func TestReadWALValid(t *testing.T) {
	events, err := ReadWAL(strings.NewReader(validWAL))
	if err != nil {
		t.Fatal(err)
	}
	want := []ServiceEvent{
		{Round: 0, Kind: EventSubmit, Tenant: "acme", JobID: 1, Ticks: []int64{240, 250, 60}},
		{Round: 1, Kind: EventCheckpoint, Checkpoint: 4, Adaptive: true},
		{Round: 2, Kind: EventJoin, Sampled: true, Station: 12},
		{Round: 2, Kind: EventLeave, Sampled: true, Station: 3},
		{Round: 5, Kind: EventCrash, Sampled: true, Station: 7},
		{Round: 9, Kind: EventKill, Sampled: true},
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("decoded %+v,\nwant %+v", events, want)
	}
}

// TestReadWALRejectsMalformed pins the strict-decode contract: every damaged
// log errors with a line-pointing message — no panic, no silent skip.
func TestReadWALRejectsMalformed(t *testing.T) {
	header := `{"format":"cyclesteal-service-wal","version":2,"ticks_per_setup":100}` + "\n"
	cases := []struct {
		name string
		log  string
		want string // substring of the error
	}{
		{"empty", "", "missing header"},
		{"header not JSON", "not json\n", "header"},
		{"header unknown field", `{"format":"cyclesteal-service-wal","version":2,"ticks_per_setup":100,"x":1}` + "\n", "header"},
		{"wrong format", `{"format":"other","version":2,"ticks_per_setup":100}` + "\n", "format"},
		{"wrong version", `{"format":"cyclesteal-service-wal","version":3,"ticks_per_setup":100}` + "\n", "log version 3, but this build reads version 2"},
		{"zero grid", `{"format":"cyclesteal-service-wal","version":2,"ticks_per_setup":0}` + "\n", "ticks_per_setup"},
		{"event not JSON", header + "garbage\n", "line 2"},
		{"blank lines count", header + "\n \t\n" + "garbage\n", "line 4"},
		{"unknown kind", header + `{"round":0,"kind":"explode"}` + "\n", "unknown kind"},
		{"unknown field", header + `{"round":0,"kind":"join","wat":true}` + "\n", "line 2"},
		{"negative round", header + `{"round":-1,"kind":"join"}` + "\n", "negative round"},
		{"rounds run backwards", header + `{"round":5,"kind":"join"}` + "\n" + `{"round":4,"kind":"leave"}` + "\n", "backwards"},
		{"events after kill", header + `{"round":1,"kind":"kill"}` + "\n" + `{"round":2,"kind":"join"}` + "\n", "after the kill"},
		{"negative duration", header + `{"round":0,"kind":"submit","tasks":[3,-1]}` + "\n", "line 2: task 1 duration must be ≥ 1 tick, got -1"},
		{"zero tick", header + `{"round":0,"kind":"submit","tasks":[0]}` + "\n", "line 2: task 0 duration must be ≥ 1 tick, got 0"},
		{"total overflow", header + `{"round":0,"kind":"submit","tasks":[1,9223372036854775807,1]}` + "\n", "line 2: task 1: the job's total duration overflows the tick grid"},
		{"caller-unit duration", header + `{"round":0,"kind":"submit","tasks":[12.5]}` + "\n", "line 2"},
		{"negative checkpoint", header + `{"round":0,"kind":"checkpoint","checkpoint":-2}` + "\n", "checkpoint"},
		{"trailing data", header + `{"round":0,"kind":"join"} {"round":1,"kind":"leave"}` + "\n", "trailing"},
	}
	// None of these bytes is JSON whitespace: after a record they are
	// trailing data, and a line of one of them alone is not blank.
	for _, b := range []string{"\v", "\f", "\u0085", "\u00a0"} {
		name := fmt.Sprintf("%q", b)
		cases = append(cases,
			struct{ name, log, want string }{name + " after a record", header + `{"round":0,"kind":"join"}` + b + "\n", "line 2: trailing"},
			struct{ name, log, want string }{name + " alone on a line", header + `{"round":0,"kind":"join"}` + "\n" + b + "\n", "line 3"},
			struct{ name, log, want string }{name + " after the header", strings.TrimSuffix(header, "\n") + b + "\n", "header"},
		)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadWAL(strings.NewReader(tc.log))
			if err == nil {
				t.Fatalf("decoded %q without error", tc.log)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestWALRoundTrip pins the codec: a decoded log re-encodes byte-identically
// (modulo the blank lines the reader skips).
func TestWALRoundTrip(t *testing.T) {
	events, err := ReadWAL(strings.NewReader(validWAL))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeWALHeader(&buf, 100); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := writeEvent(&buf, ev); err != nil {
			t.Fatal(err)
		}
	}
	if buf.String() != validWAL {
		t.Fatalf("re-encoded log\n%s\nwant\n%s", buf.String(), validWAL)
	}
	again, err := ReadWAL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-decoding our own encoding: %v", err)
	}
	if !reflect.DeepEqual(again, events) {
		t.Fatalf("round trip changed the events:\n%+v\n%+v", again, events)
	}
}

// version1WAL is a log in the retired version 1, whose submits carried
// caller-unit durations.
const version1WAL = `{"format":"cyclesteal-service-wal","version":1,"ticks_per_setup":100}
{"round":0,"kind":"submit","tenant":"acme","job_id":1,"tasks":[12,12.5,3]}
{"round":1,"kind":"checkpoint","checkpoint":4,"adaptive":true}
`

// A version-1 log is refused by every reader with an error naming both
// versions, whether its submits hold floats or integers.
func TestWALReadersRefuseVersion1(t *testing.T) {
	integral := strings.Replace(version1WAL, "12.5", "12", 1)
	for _, log := range []string{version1WAL, integral, strings.SplitAfter(version1WAL, "\n")[0]} {
		_, readErr := ReadWAL(strings.NewReader(log))
		_, recoverErr := RecoverService(ServiceConfig{Fleet: serviceFleet(1)}, strings.NewReader(log))
		for name, err := range map[string]error{"ReadWAL": readErr, "RecoverService": recoverErr} {
			if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 2") {
				t.Errorf("%s of %q: error %v, want one naming versions 1 and 2", name, log, err)
			}
		}
	}
}

// FuzzReadWAL feeds arbitrary bytes to the decoder. The property under test:
// malformed input errors — never panics — and anything the decoder accepts
// re-encodes through the writer into a log the decoder accepts again with
// the same events (the codec is a retraction), while the same events under
// a version-1 header are refused, naming both versions.
func FuzzReadWAL(f *testing.F) {
	f.Add(validWAL)
	f.Add("")
	f.Add(`{"format":"cyclesteal-service-wal","version":2,"ticks_per_setup":1}` + "\n")
	f.Add(`{"format":"cyclesteal-service-wal","version":2,"ticks_per_setup":100}` + "\n" + `{"round":0,"kind":"submit","tasks":[]}` + "\n")
	f.Add(`{"format":"cyclesteal-service-wal","version":2,"ticks_per_setup":100}` + "\n" + `{"round":3,"kind":"kill"}` + "\n")
	f.Add(`{"format":"cyclesteal-service-wal","version":2,"ticks_per_setup":100}` + "\n" + `{"round":0,"kind":"checkpoint","checkpoint":1e309}` + "\n")
	f.Add("{\"format\"\x00:1}")
	f.Add(`{"format":"cyclesteal-service-wal","version":2,"ticks_per_setup":100}` + "\n" + `{"round":0,"kind":"submit","tasks":[9223372036854775807,1]}` + "\n")
	f.Add(version1WAL)
	f.Add(`{"format":"cyclesteal-service-wal","version":1,"ticks_per_setup":100}` + "\n" + `{"round":0,"kind":"submit","tasks":[500,500]}` + "\n")
	f.Fuzz(func(t *testing.T, log string) {
		events, err := ReadWAL(strings.NewReader(log))
		if err != nil {
			return // rejected is fine; panicking is the only failure
		}
		var buf, old bytes.Buffer
		if err := writeWALHeader(&buf, 100); err != nil {
			t.Fatalf("re-encoding header: %v", err)
		}
		if err := writeWALLine(&old, jsonl.Header{Format: walFormat, Version: 1, TicksPerSetup: 100}); err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if err := writeEvent(io.MultiWriter(&buf, &old), ev); err != nil {
				t.Fatalf("accepted event %+v does not re-encode: %v", ev, err)
			}
		}
		again, err := ReadWAL(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("accepted log does not re-decode: %v\nre-encoded:\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("round trip changed events:\nfirst  %+v\nsecond %+v", events, again)
		}
		if _, err := ReadWAL(&old); err == nil || !strings.Contains(err.Error(), "log version 1, but this build reads version 2") {
			t.Fatalf("the events under a version-1 header: error %v, want one naming both versions", err)
		}
	})
}

// TestWALReadersRefuseTrailingData pins both log readers against bytes
// after a line's object. A check built on encoding/json's Decoder.More let
// a trailing } or ] through, and the line decoded as if it were clean.
func TestWALReadersRefuseTrailingData(t *testing.T) {
	header := `{"format":"cyclesteal-service-wal","version":2,"ticks_per_setup":100}`
	submit := `{"round":0,"kind":"submit","tenant":"a","job_id":1,"tasks":[5,5]}`
	cfg := faultedConfig(1, 0, nil)
	if events, err := ReadWAL(strings.NewReader(header + "\n" + submit + " \t\r\n")); err != nil || len(events) != 1 {
		t.Fatalf("clean log: %d events, %v", len(events), err)
	}
	if _, err := RecoverService(cfg, strings.NewReader(header+"\n"+submit+"\n")); err != nil {
		t.Fatalf("clean log refused: %v", err)
	}
	for _, tail := range []string{"}", "]", "]}", "}}", "]]]}}}", " }", " x", "{}", "0", ","} {
		for _, log := range []string{header + "\n" + submit + tail + "\n", header + tail + "\n" + submit + "\n"} {
			if events, err := ReadWAL(strings.NewReader(log)); err == nil {
				t.Errorf("ReadWAL decoded %d events from %q", len(events), log)
			}
			if _, err := RecoverService(cfg, strings.NewReader(log)); err == nil {
				t.Errorf("RecoverService accepted %q", log)
			}
		}
	}
}

// A line of exactly the cap is read with any line ending, and one byte
// more is an error naming it, as soon as the reader has buffered the cap's
// worth of it: an endless line neither hangs the decoder nor grows its
// buffer without bound.
func TestReadWALBoundsLines(t *testing.T) {
	withWALMaxLine(t, 1024)
	header := `{"format":"cyclesteal-service-wal","version":2,"ticks_per_setup":100}` + "\n\n"
	join := func(n int) string {
		rec := `{"round":0,"kind":"join"}`
		return rec + strings.Repeat(" ", n-len(rec))
	}
	for _, end := range []string{"\n", "\r\n", ""} {
		if evs, err := ReadWAL(strings.NewReader(header + join(1024) + end)); err != nil || len(evs) != 1 {
			t.Errorf("a line of exactly the cap ending %q: %d events, %v", end, len(evs), err)
		}
		_, err := ReadWAL(strings.NewReader(header + join(1025) + end))
		if err == nil || !strings.Contains(err.Error(), "line 3: too long") {
			t.Errorf("a line one byte over the cap ending %q: error %v, want a too-long error naming line 3", end, err)
		}
	}
	r := &endlessLine{}
	_, err := ReadWAL(io.MultiReader(strings.NewReader(header), r))
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "too long") {
		t.Fatalf("endless line: error %v, want a too-long error naming line 3", err)
	}
	if r.read > 2*1024 {
		t.Fatalf("the reader buffered %d bytes of a line capped at 1024", r.read)
	}
	// Under the cap, a long line still decodes.
	line := `{"round":0,"kind":"submit","tenant":"a","job_id":1,"tasks":[` + strings.Repeat("5,", 400) + "5]}"
	if evs, err := ReadWAL(strings.NewReader(header + line + "\n")); err != nil || len(evs) != 1 || len(evs[0].Ticks) != 401 {
		t.Fatalf("a %d-byte line under the cap: %d events, %v", len(line), len(evs), err)
	}
}
