package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The reference for everything here is encoding/json itself: json.Marshal
// of an []int64 for the encoder, and its Decoder for the strict decode.

// TestAppendInt64sMatchesJSON pins the tick-array encoder to json.Marshal
// byte for byte: empty, single and long arrays, runs of repeats (which
// copy bytes), every digit count and sign, and the int64 extremes, each
// appended after bytes the encoder must keep.
func TestAppendInt64sMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pool := []int64{0, 1, -1, 9, 10, 99, 100, 500, 240, 1e9, 1e18, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	for i := 0; i < 40; i++ {
		pool = append(pool, rng.Int63()>>uint(rng.Intn(63)), -rng.Int63())
	}
	check := func(vs []int64) {
		t.Helper()
		want, err := json.Marshal(vs)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendInt64s(nil, vs); !bytes.Equal(got, want) {
			t.Fatalf("AppendInt64s(%v) = %s, json.Marshal %s", vs, got, want)
		}
		if got := AppendInt64s([]byte(`"tasks":`), vs); !bytes.Equal(got, append([]byte(`"tasks":`), want...)) {
			t.Fatalf("AppendInt64s(%q, %v) = %s", `"tasks":`, vs, got)
		}
	}
	check([]int64{})
	check(pool)
	for _, v := range pool {
		check([]int64{v})
		check([]int64{v, v, v, -v, -v, v})
	}
	for i := 0; i < 2000; i++ {
		vs := []int64{}
		for n := rng.Intn(40); n > 0; n-- {
			v := pool[rng.Intn(len(pool))]
			for run := 1 + rng.Intn(4); run > 0; run-- { // runs copy bytes
				vs = append(vs, v)
			}
		}
		check(vs)
	}
}

// TestUnmarshalStrict pins the strict decode: unknown fields and any byte
// after the value but JSON whitespace are refused. encoding/json's
// Decoder.More reports no more data before a } or ], so a check built on it
// let those through.
func TestUnmarshalStrict(t *testing.T) {
	type obj struct {
		A int `json:"a"`
	}
	var v obj
	if err := Unmarshal([]byte(`{"a":1}`+" \t\r\n"), &v); err != nil || v.A != 1 {
		t.Fatalf("plain object with trailing whitespace: %+v, %v", v, err)
	}
	if err := Unmarshal([]byte(`{"a":1,"b":2}`), &v); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("unknown field accepted or misreported: %v", err)
	}
	for _, tail := range []string{"}", "]", "]]]}}}", " }", "\n]", " x", "{}", `{"a":2}`, "0", "null", ",", "\x00", " "} {
		if err := Unmarshal([]byte(`{"a":1}`+tail), &v); err == nil {
			t.Errorf("trailing %q accepted", tail)
		}
	}
	if err := Unmarshal([]byte(`{"a":`), &v); err == nil {
		t.Error("truncated object accepted")
	}
	if err := Unmarshal(nil, &v); err == nil {
		t.Error("empty input accepted")
	}
}

// readAll reads every line in under the cap max, as strings, up to the
// first error; a nil error means the reader ended with io.EOF.
func readAll(in string, max int) ([]string, error) {
	l := NewLines(strings.NewReader(in), max)
	var lines []string
	for {
		line, err := l.Next()
		if err == io.EOF {
			return lines, nil
		}
		if err != nil {
			return lines, err
		}
		lines = append(lines, string(line))
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

// A line of exactly the cap is read with LF, CRLF or no ending, and one
// byte more is an error naming its line; an endless line is refused once
// the reader holds the cap and an ending's worth of it.
func TestLinesBoundAtCap(t *testing.T) {
	const max = 100
	for _, end := range []string{"\n", "\r\n", ""} {
		in := "a\r\n\n" + strings.Repeat("x", max) + end
		if lines, err := readAll(in, max); err != nil || !slices.Equal(lines, []string{"a", "", strings.Repeat("x", max)}) {
			t.Errorf("a line of exactly the cap ending %q: %q, %v", end, lines, err)
		}
		lines, err := readAll(in[:len(in)-len(end)]+"x"+end, max)
		if err == nil || err.Error() != "line 3: too long: over the 100-byte cap" || len(lines) != 2 {
			t.Errorf("a line one byte over the cap ending %q: %q, error %v", end, lines, err)
		}
	}
	r := &endlessLine{}
	if _, err := NewLines(r, max).Next(); err == nil || !strings.Contains(err.Error(), "line 1: too long") {
		t.Errorf("endless line: error %v", err)
	}
	if r.read > max+len("\r\n") {
		t.Errorf("read %d bytes of a line capped at %d", r.read, max)
	}
}

// ReadLog checks the header once for every format that starts with one,
// skips blank lines of JSON whitespace only, and names the line of every
// error, a record's included.
func TestReadLog(t *testing.T) {
	header := `{"format":"f","version":2,"ticks_per_setup":7}`
	var got []string
	record := func(line []byte) error {
		if string(line) == "bad" {
			return errors.New("bad record")
		}
		got = append(got, string(line))
		return Unmarshal(line, new(int))
	}
	h, err := ReadLog(strings.NewReader(" \t\r\n"+header+"\n\n1\r\n2"), 64, "f", 2, record)
	if err != nil || h != (Header{Format: "f", Version: 2, TicksPerSetup: 7}) || !slices.Equal(got, []string{"1", "2"}) {
		t.Fatalf("ReadLog: %+v, records %q, %v", h, got, err)
	}
	for in, want := range map[string]string{
		"":                     "missing header",
		"\n \n":                "missing header",
		"f,2,7\n":              "line 1: header: invalid character",
		header + " x\n":        "line 1: header: trailing data",
		"\v\n" + header + "\n": "line 1: header: invalid character",
		header + "\n\f\n":      "line 2: invalid character",
		header + "\n\nbad\n":   "line 3: bad record",
		`{"format":"g","version":2,"ticks_per_setup":7}`:       `line 1: format "g", want "f"`,
		`{"format":"f","version":3,"ticks_per_setup":7}`:       "line 1: log version 3, but this build reads version 2",
		`{"format":"f","version":2,"ticks_per_setup":0}`:       "line 1: ticks_per_setup must be ≥ 1, got 0",
		`{"format":"f","version":2}`:                           "line 1: ticks_per_setup must be ≥ 1, got 0",
		`{"format":"f","version":2,"ticks_per_setup":7,"x":1}`: "line 1: header: json: unknown field",
	} {
		if _, err := ReadLog(strings.NewReader(in), 64, "f", 2, record); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("ReadLog(%q): error %v, want one starting %q", in, err, want)
		}
	}
}

// FuzzLines holds Lines to a naive split: for any input and a small cap it
// returns exactly the lines strings.Split on "\n" gives (the empty piece
// after a final "\n" aside), each with one trailing "\r" dropped, up to the
// first line over the cap, which is an error naming its number.
func FuzzLines(f *testing.F) {
	for _, s := range []string{"", "\n", "a", "a\n", "a\r\n", "\r", "\r\n", "\r\r\n", "a\rb\n\n", "xxxx", "xxxx\r\n", "xxxxx\n", "xxxx\r\r\n", "ab\ncd\r\nxxxxxx"} {
		f.Add(s, uint8(4))
	}
	f.Add("a\nb", uint8(0))
	f.Fuzz(func(t *testing.T, in string, cap8 uint8) {
		max := int(cap8 % 16)
		want := strings.Split(in, "\n")
		if want[len(want)-1] == "" {
			want = want[:len(want)-1]
		}
		for i := range want {
			want[i] = strings.TrimSuffix(want[i], "\r")
		}
		tooLong := slices.IndexFunc(want, func(s string) bool { return len(s) > max })
		got, err := readAll(in, max)
		if tooLong < 0 {
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("Lines(%q, %d) = %q, %v; want %q", in, max, got, err, want)
			}
			return
		}
		wantErr := fmt.Sprintf("line %d: too long: over the %d-byte cap", tooLong+1, max)
		if err == nil || err.Error() != wantErr || !slices.Equal(got, want[:tooLong]) {
			t.Fatalf("Lines(%q, %d) = %q, %v; want %q, then %q", in, max, got, err, want[:tooLong], wantErr)
		}
	})
}
