package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"cyclesteal/fleet"
)

// fuzzSeedFrames produces one of every frame kind, with realistic
// payloads, as decoder corpus seeds.
func fuzzSeedFrames(t interface{ Fatal(...any) }) [][]byte {
	spec := Spec{Stations: 3, Setup: 5, Trials: 70, Owners: []OwnerSpec{{Kind: "office", Param: 300, Wrap: "poisson", WrapParam: 90}}}
	study, err := spec.Study()
	if err != nil {
		t.Fatal(err)
	}
	results, err := study.RunShards(context.Background(), []int{0, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	withTasks := spec
	withTasks.Ticks = []int64{50, 237, 237, 400, 1, 1, 12345678901234567, 33, 399}
	frames := []Frame{
		{Kind: FrameHello, Format: wireFormat, Version: wireVersion},
		{Kind: FrameStudy, Format: wireFormat, Version: wireVersion, Spec: &spec},
		{Kind: FrameStudy, Format: wireFormat, Version: wireVersion, Spec: &withTasks},
		{Kind: FrameAssign, Shards: []int{0, 5, 63}},
		{Kind: FrameProgress, Done: 3, Total: 9},
		{Kind: FrameShard, Shard: &results[0]},
		{Kind: FrameDone, Shards: []int{0, 5}},
		{Kind: FrameError, Error: "boom"},
	}
	var out [][]byte
	for _, f := range frames {
		var buf bytes.Buffer
		if err := EncodeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		out = append(out, bytes.TrimRight(buf.Bytes(), "\n"))
	}
	return out
}

// referenceParseFrame is ParseFrame as plain encoding/json defines it: a
// strict decode of a Frame — unknown fields refused, nothing but JSON
// whitespace after the value — followed by the frame's validation.
func referenceParseFrame(line []byte) (Frame, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var f Frame
	if err := dec.Decode(&f); err != nil {
		return Frame{}, err
	}
	if len(bytes.TrimLeft(line[dec.InputOffset():], " \t\r\n")) > 0 {
		return Frame{}, errors.New("trailing data")
	}
	if err := f.validate(); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// version1Lines are frames of the first wire version, whose study spec
// carried its job as caller-unit floats: ParseFrame refuses each, naming
// both versions.
var version1Lines = []string{
	`{"frame":"hello","format":"cyclesteal-distrib","version":1}`,
	`{"frame":"study","format":"cyclesteal-distrib","version":1,"spec":{"stations":2,"setup":1,"tasks":[0.5,2.37],"trials":3}}`,
	`{"frame":"study","format":"cyclesteal-distrib","version":1,"spec":{"stations":2,"setup":1,"tasks":[12,12],"trials":3}}`,
}

// FuzzReadFrame pins the wire decoder's contract: arbitrary bytes never
// panic; ParseFrame accepts a line exactly when the plain encoding/json
// reference does, with a deeply equal frame; and every accepted frame
// re-encodes to json.Marshal's bytes, whose decoding re-encodes to the
// same bytes and re-decodes to exactly itself (the canonical-form round
// trip a coordinator and worker rely on).
func FuzzReadFrame(f *testing.F) {
	for _, seed := range fuzzSeedFrames(f) {
		f.Add(seed)
	}
	f.Add([]byte(`{"frame":"assign","shards":[64]}`))
	f.Add([]byte(`{"frame":"hello","format":"wrong","version":2}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"frame":"shard","shard":{"shard":0,"metrics":[{"n":-1}]}}`))
	f.Add([]byte(`{"frame":"hello","format":"cyclesteal-distrib","version":2}}`))
	f.Add([]byte(`{"frame":"study","format":"cyclesteal-distrib","version":2,"spec":{"stations":2,"setup":1,"tasks":[1,2,3],"TASKS":[4,null],"trials":3}}`))
	f.Add([]byte(`{"frame":"study","format":"cyclesteal-distrib","version":2,"spec":{"stations":2,"setup":1,"tasks":[1,"2"],"trials":3}}`))
	f.Add([]byte(`{"frame":"study","format":"cyclesteal-distrib","version":2,"spec":{"stations":2,"setup":1,"tasks":[1e400],"trials":3}}`))
	for _, line := range version1Lines {
		f.Add([]byte(line))
	}
	for _, c := range studyLineCases {
		f.Add([]byte(c.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		fr, err := ParseFrame(line)
		want, werr := referenceParseFrame(line)
		if (err == nil) != (werr == nil) {
			t.Fatalf("ParseFrame error %v, reference error %v", err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(fr, want) {
			t.Fatalf("ParseFrame diverged from the reference:\n got %+v\nwant %+v", fr, want)
		}
		var buf bytes.Buffer
		if err := EncodeFrame(&buf, fr); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		raw, err := json.Marshal(fr)
		if err != nil {
			t.Fatalf("json.Marshal of an accepted frame: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), append(raw, '\n')) {
			t.Fatalf("EncodeFrame wrote\n%s\njson.Marshal\n%s", buf.Bytes(), raw)
		}
		// An empty array the encoder omits, such as "owners":[], decodes
		// to an empty slice and comes back nil, so the round trip is exact
		// from the canonical form on: the re-decoded frame encodes to the
		// same bytes and re-decodes to exactly itself.
		back, err := ParseFrame(bytes.TrimRight(buf.Bytes(), "\n"))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		var again bytes.Buffer
		if err := EncodeFrame(&again, back); err != nil {
			t.Fatalf("re-decoded frame failed to encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatalf("frame round trip changed the bytes:\n got %s\nwant %s", again.Bytes(), buf.Bytes())
		}
		if back2, err := ParseFrame(bytes.TrimRight(again.Bytes(), "\n")); err != nil || !reflect.DeepEqual(back, back2) {
			t.Fatalf("canonical frame round trip diverged (%v):\n got %+v\nwant %+v", err, back2, back)
		}
	})
}

// FuzzReadShardResult pins the shard-state decoder the same way: no panic
// on any input, exact round trip for anything accepted — including the
// float64 payloads, which must cross the wire bit-for-bit.
func FuzzReadShardResult(f *testing.F) {
	spec := Spec{Stations: 2, Setup: 5, Trials: 80}
	study, err := spec.Study()
	if err != nil {
		f.Fatal(err)
	}
	results, err := study.RunShards(context.Background(), []int{0, 9}, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range results {
		raw, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"shard":0,"metrics":[]}`))
	f.Add([]byte(`{"shard":-1,"metrics":[]}`))
	f.Add([]byte(`{"shard":0,"metrics":[{"n":2,"mean":1,"m2":0.5,"min":0,"max":2,"sketch":{"k":9,"n":2}}]}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		r, err := ParseShardResult(line)
		if err != nil {
			return
		}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("accepted shard result failed to re-encode: %v", err)
		}
		back, err := ParseShardResult(raw)
		if err != nil {
			t.Fatalf("re-encoded shard result rejected: %v", err)
		}
		if !reflect.DeepEqual(r, back) {
			t.Fatalf("shard result round trip diverged:\n got %+v\nwant %+v", back, r)
		}
	})
}

// TestFuzzSeedsAccepted keeps the healthy corpus healthy: every seed the
// fuzzers start from that should parse does parse.
func TestFuzzSeedsAccepted(t *testing.T) {
	for i, seed := range fuzzSeedFrames(t) {
		if _, err := ParseFrame(seed); err != nil {
			t.Errorf("seed frame %d rejected: %v", i, err)
		}
	}
	if _, err := ParseShardResult([]byte(`{"shard":3,"metrics":[{"n":0,"mean":0,"m2":0,"min":0,"max":0}]}`)); err != nil {
		t.Errorf("minimal shard result rejected: %v", err)
	}
	if err := (fleet.ShardResult{Shard: 1}).Validate(); err != nil {
		t.Errorf("empty-metrics shard result invalid: %v", err)
	}
}

// trailingTails are bytes after a valid JSON object that a strict decoder
// must refuse. A check built on encoding/json's Decoder.More let the ones
// starting with } or ] through.
var trailingTails = []string{"}", "]", "]]]}}}", "}}", "]}", " }", "\n]", " x", "{}", "0", ",", "\x00"}

// TestStrictDecodersRefuseTrailingData pins both frame-level decoders
// against trailing bytes, and their acceptance of trailing whitespace.
func TestStrictDecodersRefuseTrailingData(t *testing.T) {
	frame := `{"frame":"hello","format":"cyclesteal-distrib","version":2}`
	shard := `{"shard":3,"metrics":[{"n":0,"mean":0,"m2":0,"min":0,"max":0}]}`
	for _, tail := range trailingTails {
		if _, err := ParseFrame([]byte(frame + tail)); err == nil {
			t.Errorf("ParseFrame accepted a frame followed by %q", tail)
		}
		if _, err := ParseShardResult([]byte(shard + tail)); err == nil {
			t.Errorf("ParseShardResult accepted a shard result followed by %q", tail)
		}
	}
	if _, err := ParseFrame([]byte(frame + " \t\r\n")); err != nil {
		t.Errorf("ParseFrame refused trailing whitespace: %v", err)
	}
	if _, err := ParseShardResult([]byte(shard + " \t\r\n")); err != nil {
		t.Errorf("ParseShardResult refused trailing whitespace: %v", err)
	}
}

// TestEncodeFrameMatchesJSON pins the frame encoder to json.Marshal byte
// for byte: every seed frame, perfbench's 100,000-task study frame, and
// study frames whose string fields json.Marshal escapes — one of them
// spelling out the "trials" key the tick array is spliced in front of.
func TestEncodeFrameMatchesJSON(t *testing.T) {
	var frames []Frame
	for _, seed := range fuzzSeedFrames(t) {
		f, err := ParseFrame(seed)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	big := studyFrameSpec(t)
	tricky := Spec{Stations: 2, Setup: 1.5, Trials: 4, Policy: `<guideline>&,"trials":9}}`, Ticks: []int64{100, 100, 250}}
	single := Spec{Stations: 1, Setup: 1, Trials: 1, Ticks: []int64{math.MaxInt64}}
	for _, spec := range []*Spec{&big, &tricky, &single} {
		frames = append(frames, Frame{Kind: FrameStudy, Format: wireFormat, Version: wireVersion, Spec: spec})
	}
	for i, f := range frames {
		var buf bytes.Buffer
		if err := EncodeFrame(&buf, f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), append(raw, '\n')) {
			t.Fatalf("frame %d: EncodeFrame wrote\n%.300s\njson.Marshal\n%.300s", i, buf.Bytes(), raw)
		}
	}
	// A tick below 1, and ticks whose total overflows, are refused.
	for _, ticks := range [][]int64{{1, 0}, {5, -3}, {math.MaxInt64, 1}} {
		bad := Spec{Stations: 1, Setup: 1, Trials: 1, Ticks: ticks}
		if err := EncodeFrame(&bytes.Buffer{}, Frame{Kind: FrameStudy, Format: wireFormat, Version: wireVersion, Spec: &bad}); err == nil {
			t.Fatalf("encoded the ticks %v", ticks)
		}
	}
}

// studyHead opens a study line up to the inside of its spec.
const studyHead = `{"frame":"study","format":"cyclesteal-distrib","version":2,"spec":{`

// studyLineCases are study lines at the edges of ParseFrame's one-pass
// path, each with whether that path takes it (fast): a declined line must
// fall back to the strict decode of the whole line, and both paths must
// agree with encoding/json.
var studyLineCases = []struct {
	name string
	line string
	fast bool
}{
	{"plain", studyHead + `"stations":2,"setup":1,"tasks":[1,25,125],"trials":3}}`, true},
	{"tasks key in a string only", studyHead + `"stations":2,"setup":1,"policy":"x\"tasks\":[1]","trials":3}}`, false},
	{"tasks key in a string, then the key", studyHead + `"stations":2,"setup":1,"policy":"\"tasks\":[9]","tasks":[1,2],"trials":3}}`, true},
	{"tasks string value only", studyHead + `"stations":2,"setup":1,"policy":"tasks","trials":3}}`, false},
	{"tasks string value, then the key", studyHead + `"stations":2,"setup":1,"policy":"tasks","tasks":[4],"trials":3}}`, true},
	{"escaped backslash before the key", studyHead + `"stations":2,"setup":1,"policy":"a\\","tasks":[1],"trials":3}}`, true},
	{"second key TASKS 0", studyHead + `"stations":2,"setup":1,"tasks":[1,2],"TASKS":0,"trials":3}}`, false},
	{"second key TASKS null", studyHead + `"stations":2,"setup":1,"tasks":[1,2],"TASKS":null,"trials":3}}`, false},
	{"second key TASKS array", studyHead + `"stations":2,"setup":1,"tasks":[1,2],"TASKS":[3],"trials":3}}`, false},
	{"escaped second key", studyHead + `"stations":2,"setup":1,"t\u0061sks":[9],"tasks":[1],"trials":3}}`, false},
	{"escaped key only", studyHead + `"stations":2,"setup":1,"t\u0061sks":[9],"trials":3}}`, false},
	{"folded second key", studyHead + `"stations":2,"setup":1,"tasks":[1],"taſks":[2],"trials":3}}`, false},
	{"tasks in an owner", studyHead + `"stations":2,"setup":1,"owners":[{"kind":"office","tasks":[1]}],"tasks":[1,2],"trials":3}}`, false},
	{"tasks at the frame's top", `{"frame":"study","tasks":[1],"format":"cyclesteal-distrib","version":1,"spec":{"stations":2,"setup":1,"trials":3}}`, false},
	{"two specs, tasks in the first", studyHead + `"stations":2,"setup":1,"tasks":[1,2],"trials":3},"spec":{"stations":3,"setup":1,"trials":4}}`, true},
	{"two specs, tasks in both", studyHead + `"stations":2,"setup":1,"tasks":[1,2],"trials":3},"spec":{"stations":3,"setup":1,"tasks":[5],"trials":4}}`, false},
	{"two specs, the second null", studyHead + `"stations":2,"setup":1,"tasks":[1,2],"trials":3},"spec":null}`, false},
	{"null element", studyHead + `"stations":2,"setup":1,"tasks":[1,null],"trials":3}}`, false},
	{"nested element", studyHead + `"stations":2,"setup":1,"tasks":[1,[2]],"trials":3}}`, false},
	{"string element", studyHead + `"stations":2,"setup":1,"tasks":[1,"2"],"trials":3}}`, false},
	{"out of range", studyHead + `"stations":2,"setup":1,"tasks":[9223372036854775808],"trials":3}}`, false},
	{"largest tick", studyHead + `"stations":2,"setup":1,"tasks":[9223372036854775807],"trials":3}}`, true},
	{"total overflows", studyHead + `"stations":2,"setup":1,"tasks":[9223372036854775807,1],"trials":3}}`, true},
	{"underflow", studyHead + `"stations":2,"setup":1,"tasks":[3,0,-2],"trials":3}}`, false},
	{"zero", studyHead + `"stations":2,"setup":1,"tasks":[0],"trials":3}}`, false},
	{"fraction", studyHead + `"stations":2,"setup":1,"tasks":[1.5],"trials":3}}`, false},
	{"leading zero", studyHead + `"stations":2,"setup":1,"tasks":[01],"trials":3}}`, false},
	{"bare minus", studyHead + `"stations":2,"setup":1,"tasks":[-],"trials":3}}`, false},
	{"bare point", studyHead + `"stations":2,"setup":1,"tasks":[1.],"trials":3}}`, false},
	{"leading point", studyHead + `"stations":2,"setup":1,"tasks":[.5],"trials":3}}`, false},
	{"bare exponent", studyHead + `"stations":2,"setup":1,"tasks":[1e],"trials":3}}`, false},
	{"plus sign", studyHead + `"stations":2,"setup":1,"tasks":[+1],"trials":3}}`, false},
	{"exponent forms", studyHead + `"stations":2,"setup":1,"tasks":[100,1e2,1E+2],"trials":3}}`, false},
	{"trailing comma", studyHead + `"stations":2,"setup":1,"tasks":[1,],"trials":3}}`, false},
	{"missing comma", studyHead + `"stations":2,"setup":1,"tasks":[1 2],"trials":3}}`, false},
	{"CR and tab whitespace", studyHead + `"stations":2,"setup":1,"tasks":` + "\r\t[ 1,\t2\r, 3\n]\t" + `,"trials":3}}`, true},
	{"empty array", studyHead + `"stations":2,"setup":1,"tasks":[],"trials":3}}`, true},
	{"unterminated array", studyHead + `"stations":2,"setup":1,"tasks":[1,2`, false},
	{"trailing bytes", studyHead + `"stations":2,"setup":1,"tasks":[1],"trials":3}}x`, false},
	{"number glued after the array", studyHead + `"stations":2,"setup":1,"tasks":[1].5,"trials":3}}`, false},
	{"exponent glued after the array", studyHead + `"stations":2,"setup":1,"tasks":[1]e5,"trials":3}}`, false},
	{"object value", studyHead + `"stations":2,"setup":1,"tasks":{"a":1},"trials":3}}`, false},
	{"invalid spec", studyHead + `"stations":0,"setup":1,"tasks":[1],"trials":3}}`, true},
}

// parseMatchesReference fails t unless ParseFrame and the encoding/json
// reference agree on line: both refuse it, or both accept it with deeply
// equal frames.
func parseMatchesReference(t *testing.T, line []byte) {
	t.Helper()
	got, err := ParseFrame(line)
	want, werr := referenceParseFrame(line)
	if (err == nil) != (werr == nil) {
		t.Fatalf("ParseFrame error %v, reference error %v", err, werr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseFrame diverged from the reference:\n got %+v\nwant %+v", got, want)
	}
}

// TestStudyLineOnePass pins the one-pass study decode at its edges: every
// case parses exactly as encoding/json does, and the one-pass path takes
// exactly the cases it should, giving ParseFrame's frame.
func TestStudyLineOnePass(t *testing.T) {
	for _, c := range studyLineCases {
		t.Run(c.name, func(t *testing.T) {
			line := []byte(c.line)
			parseMatchesReference(t, line)
			f, ok := parseStudyLine(line)
			if ok != c.fast {
				t.Fatalf("one-pass path took the line: %v, want %v", ok, c.fast)
			}
			if want, err := referenceParseFrame(line); ok && err == nil && !reflect.DeepEqual(f, want) {
				t.Fatalf("one-pass path gave\n%+v\nwant %+v", f, want)
			}
		})
	}
}

// Every study line EncodeFrame writes with a tick array takes the one-pass
// path, so a silent fallback cannot hide behind an equal result.
func TestEncodedStudyLinesTakeOnePass(t *testing.T) {
	big := studyFrameSpec(t)
	tricky := Spec{Stations: 2, Setup: 1.5, Trials: 4, Policy: `"tasks":[1],"trials":9}}`, Ticks: []int64{100, 100, 250}}
	withTasks := Spec{Stations: 3, Setup: 5, Trials: 70, Owners: []OwnerSpec{{Kind: "office", Param: 300}},
		Ticks: []int64{50, 237, 400, 1, 9, 12345678901234567, 1 << 40}}
	for i, spec := range []*Spec{&big, &tricky, &withTasks} {
		var buf bytes.Buffer
		if err := EncodeFrame(&buf, Frame{Kind: FrameStudy, Format: wireFormat, Version: wireVersion, Spec: spec}); err != nil {
			t.Fatal(err)
		}
		line := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		f, ok := parseStudyLine(line)
		if !ok {
			t.Fatalf("spec %d: the encoded study line fell back to the whole-line decode", i)
		}
		if !reflect.DeepEqual(f.Spec, spec) {
			t.Fatalf("spec %d: one-pass decode gave %+v, want %+v", i, f.Spec, spec)
		}
	}
}

// FuzzStudyFrame builds study lines from fuzzed pieces — the spec's fields
// before the task key, the key's spelling, the array's text and what
// follows it — and pins ParseFrame to the encoding/json reference on each.
// It also pins readTicks to encoding/json: an array it takes decodes to the
// same values, each at least 1, and an array of integers encoding/json
// decodes into an []int64 with no null element and none below 1 is one it
// takes, whole.
func FuzzStudyFrame(f *testing.F) {
	f.Add(`"stations":2,"setup":1,`, "tasks", "[1,25,125]", `,"trials":3}}`)
	f.Add(`"stations":2,"setup":1,"policy":"tasks",`, "tasks", "[ 1 ,\t2\r]", `,"TASKS":null,"trials":3}}`)
	f.Add(`"stations":2,"setup":1,"owners":[{"kind":"office"}],`, "TASKS", "[9223372036854775808]", `,"trials":3}}`)
	f.Add(`"stations":2,"setup":1,`, "tasks", "[0,1E+2,01,-5,2.5]", `,"trials":3},"spec":{"trials":4}}`)
	f.Add(`"stations":2,"setup":1,`, "tasks", "[]", `.5,"trials":3}}`)
	for _, c := range studyLineCases {
		if i := strings.Index(c.line, `"tasks":`); i >= 0 && strings.HasPrefix(c.line, studyHead) {
			f.Add(c.line[len(studyHead):i], "tasks", c.line[i+len(`"tasks":`):], "")
		}
	}
	f.Fuzz(func(t *testing.T, prefix, key, array, suffix string) {
		parseMatchesReference(t, []byte(studyHead+prefix+`"`+key+`":`+array+suffix))

		data := []byte(array)
		ticks, n, ok := readTicks(data)
		if ok {
			var ptrs []*int64
			if err := json.Unmarshal(data[:n], &ptrs); err != nil {
				t.Fatalf("readTicks took %q, which encoding/json refuses: %v", data[:n], err)
			}
			if ticks == nil || len(ticks) != len(ptrs) {
				t.Fatalf("readTicks read %d values (nil %v) from %q, encoding/json %d", len(ticks), ticks == nil, data[:n], len(ptrs))
			}
			for i, p := range ptrs {
				if p == nil || *p != ticks[i] || ticks[i] < 1 {
					t.Fatalf("readTicks read element %d of %q as %d, encoding/json as %v", i, data[:n], ticks[i], p)
				}
			}
		}
		var ptrs []*int64
		if len(data) > 0 && data[0] == '[' && json.Unmarshal(data, &ptrs) == nil {
			for _, p := range ptrs {
				if p == nil || *p < 1 {
					return // a null element or a tick below 1, which readTicks refuses
				}
			}
			if want := len(bytes.TrimRight(data, " \t\r\n")); !ok || n != want {
				t.Fatalf("readTicks(%q) = %d bytes, ok %v; encoding/json reads an array of %d bytes", data, n, ok, want)
			}
		}
	})
}
