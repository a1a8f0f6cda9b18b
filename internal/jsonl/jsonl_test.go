package jsonl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The reference for everything here is encoding/json itself: json.Marshal
// of a float64 or []float64 for the encoders, json.Unmarshal into a
// []float64 for Floats.

// edgeFloats are the values where encoding/json's float formatting changes
// shape — signed zero, the %f/%e cutoffs at 1e-6 and 1e21, the smallest
// subnormal, the largest finite value — and where AppendFloat's short-
// decimal path starts and stops: 1e-6, just under 1e9, and 1e9.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999999999999e-7, 1e21, 9.999999999999999e20,
	5e-324, math.MaxFloat64, 0.1, 1.0 / 3, 12.5, 5, 123456789.125, 1e-300, 2.5e-9,
	999999999.999999, 999999999.9999999, 1e9, 1e9 + 0.5, 5e-7, 1.5e-6, 0.000001, 0.0000015,
	4503599627370496, 1e15, 1e15 + 0.5, 123456.7890123,
}

// floatClasses draws n values from each class the codec treats differently
// and returns them, negations included.
func floatClasses(rng *rand.Rand, n int) []float64 {
	var out []float64
	add := func(f float64) { out = append(out, f, -f) }
	for _, f := range edgeFloats {
		add(f)
	}
	for k := 0; k <= 1000; k++ {
		add(float64(k) / 100) // E12's durations are (50+Intn(351))/100
	}
	for i := 0; i < n; i++ {
		add(float64(rng.Intn(1e6)) / 100)
		add(rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(12)-4)))
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				add(f)
				break
			}
		}
		add(float64(rng.Int63n(1e16)) / math.Pow(10, float64(rng.Intn(10)))) // k/10^j
		add(float64(rng.Int63n(1e9)) / 1e6)
	}
	return out
}

func TestAppendFloatMatchesJSON(t *testing.T) {
	for _, f := range floatClasses(rand.New(rand.NewSource(1)), 20000) {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) [bits %#x] = %s, json.Marshal %s", f, math.Float64bits(f), got, want)
		}
		// Appending keeps what dst holds.
		if got := AppendFloat([]byte("x:"), f); !bytes.Equal(got, append([]byte("x:"), want...)) {
			t.Fatalf("AppendFloat(%q, %v) = %s", "x:", f, got)
		}
	}
}

func TestAppendFloatsMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pool := floatClasses(rng, 200)
	check := func(fs []float64) {
		t.Helper()
		want, err := json.Marshal(fs)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloats(nil, fs); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloats(%v) = %s, json.Marshal %s", fs, got, want)
		}
	}
	check([]float64{})
	check(edgeFloats)
	for i := 0; i < 2000; i++ {
		fs := []float64{}
		for n := rng.Intn(40); n > 0; n-- {
			f := pool[rng.Intn(len(pool))]
			for run := 1 + rng.Intn(4); run > 0; run-- { // runs copy bytes
				fs = append(fs, f)
			}
		}
		check(fs)
	}
}

// decodeBoth decodes data into a []float64 and into a Floats, each
// starting from a copy of start with start's capacity and spare storage.
func decodeBoth(data []byte, start []float64) (want []float64, werr error, got Floats, gerr error) {
	if start != nil {
		want = append(make([]float64, 0, cap(start)), start[:cap(start)]...)[:len(start)]
		got = append(make(Floats, 0, cap(start)), start[:cap(start)]...)[:len(start)]
	}
	werr = json.Unmarshal(data, &want)
	gerr = json.Unmarshal(data, &got)
	return
}

// sameFloats reports whether a and b are equal bit for bit, nil-ness
// included.
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkFloats asserts the Floats contract on one JSON value: an error
// exactly when encoding/json errs, and otherwise the same slice.
func checkFloats(t *testing.T, data []byte, start []float64) {
	t.Helper()
	want, werr, got, gerr := decodeBoth(data, start)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s (into %v): encoding/json error %v, Floats error %v", data, start, werr, gerr)
	}
	if werr == nil && !sameFloats(want, []float64(got)) {
		t.Fatalf("%s (into %v): encoding/json %#v, Floats %#v", data, start, want, []float64(got))
	}
}

func TestFloatsMatchesJSON(t *testing.T) {
	cases := []string{
		`null`, `[]`, " [ \t\r\n] ", `[1,2,3]`, " [ 1 ,\t2\r\n, 3 ] ", `[null]`, `[1,null,2]`, `[null,null]`,
		`[0]`, `[-0]`, `[0.0]`, `[-0.0]`, `[2.37,0.5,4]`, `[1e5,1E-5,2.5e+3,-7e-1]`, `[0.000001]`, `[1e-7]`,
		`[123456789012345]`, `[1234567890123456]`, `[0.12345678901234]`, `[0.000000000000001]`,
		`[123456789012345678901234567890]`, `[0.123456789012345678901234567890]`, `[1.7976931348623157e308]`,
		`[5e-324]`, `[1e-400]`, `[1e400]`, `[-1e400]`, `[1,1e400,2]`, `[1e999999999999999999999]`,
		`["1"]`, `[1,"a"]`, `[[1]]`, `[[]]`, `[{}]`, `[true]`, `[false,1]`, `[1,[2,[3]]]`, `[1,{"a":[2,"]"]}]`,
		`"x"`, `"[1,2]"`, `{}`, `{"a":1}`, `5`, `-0`, `true`, `false`,
	}
	starts := [][]float64{nil, {}, {9, 8}, append(make([]float64, 0, 5), 9, 8, 7, 6, 5)[:2]}
	for _, c := range cases {
		for _, start := range starts {
			checkFloats(t, []byte(c), start)
		}
	}
	// Random arrays: whitespace, null elements, signs, exponents, long and
	// short mantissas, and now and then an element that is no number.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		data := randomArray(rng)
		checkFloats(t, data, nil)
		checkFloats(t, data, starts[3])
	}
}

// randomArray writes a JSON array of random number tokens and nulls.
func randomArray(rng *rand.Rand) []byte {
	ws := []string{"", "", "", " ", "\t", "\r\n", "  \n "}
	var b strings.Builder
	b.WriteString(ws[rng.Intn(len(ws))] + "[")
	for n := rng.Intn(12); n > 0; n-- {
		b.WriteString(ws[rng.Intn(len(ws))])
		b.WriteString(randomToken(rng))
		b.WriteString(ws[rng.Intn(len(ws))])
		if n > 1 {
			b.WriteString(",")
		}
	}
	b.WriteString("]" + ws[rng.Intn(len(ws))])
	return []byte(b.String())
}

func randomToken(rng *rand.Rand) string {
	digits := func(n int) string {
		var s []byte
		for i := 0; i < n; i++ {
			s = append(s, byte('0'+rng.Intn(10)))
		}
		return string(s)
	}
	switch rng.Intn(10) {
	case 0:
		return "null"
	case 1:
		return []string{`"s"`, `true`, `[1]`, `{}`}[rng.Intn(4)]
	case 2:
		return fmt.Sprint(float64(50+rng.Intn(351)) / 100)
	}
	var s string
	if rng.Intn(4) == 0 {
		s = "-"
	}
	if rng.Intn(3) == 0 {
		s += "0"
	} else {
		s += fmt.Sprint(1+rng.Intn(9)) + digits(rng.Intn(20))
	}
	if rng.Intn(2) == 0 {
		s += "." + digits(1+rng.Intn(30))
	}
	if rng.Intn(5) == 0 {
		s += []string{"e", "E", "e+", "e-", "E-"}[rng.Intn(5)] + fmt.Sprint(rng.Intn(400))
	}
	return s
}

// FuzzFloats is the differential fuzz target for the codec: any valid JSON
// value decodes through Floats exactly as into a []float64, error for
// error — into a fresh slice and into one with spare storage — and any
// float64 bit pattern formats byte for byte as json.Marshal writes it.
func FuzzFloats(f *testing.F) {
	f.Add([]byte(`[2.37,0.5,null,4]`), math.Float64bits(2.37))
	f.Add([]byte(`null`), math.Float64bits(math.Copysign(0, -1)))
	f.Add([]byte(` [ ] `), math.Float64bits(1e21))
	f.Add([]byte(`[-0,1e-7,123456789012345678901234567890,1e400]`), math.Float64bits(5e-324))
	f.Add([]byte(`[1,"2"]`), math.Float64bits(1.0/3))
	f.Add([]byte(`{"a":[1]}`), math.Float64bits(999999999.999999))
	f.Fuzz(func(t *testing.T, data []byte, bits uint64) {
		if json.Valid(data) {
			checkFloats(t, data, nil)
			checkFloats(t, data, append(make([]float64, 0, 4), 9, 8, 7, 6)[:1])
		}
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		for _, fs := range [][]float64{{v}, {v, v, -v, v / 10}} {
			want, err := json.Marshal(fs)
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendFloats(nil, fs); !bytes.Equal(got, want) {
				t.Fatalf("AppendFloats(%v) = %s, json.Marshal %s", fs, got, want)
			}
		}
	})
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

// TestFloatsShadowField pins the way the wire decoders use Floats: a
// shadow struct's Floats field hides the []float64 field of the same JSON
// name, and the decode matches decoding the plain struct.
func TestFloatsShadowField(t *testing.T) {
	type plain struct {
		N     int       `json:"n"`
		Tasks []float64 `json:"tasks,omitempty"`
	}
	type shadow struct {
		plain
		Tasks Floats `json:"tasks,omitempty"`
	}
	for _, line := range []string{
		`{"n":1}`, `{"n":1,"tasks":[1.5,2]}`, `{"tasks":null,"n":2}`, `{"TASKS":[3]}`,
		`{"tasks":[1,2,3],"tasks":[4]}`, `{"tasks":[1,2,3],"tasks":[4],"tasks":[5,null,null]}`,
		`{"tasks":[1],"x":1}`, `{"tasks":"no"}`, `{"tasks":[1]}}`,
	} {
		var p plain
		var s shadow
		perr, serr := Unmarshal([]byte(line), &p), Unmarshal([]byte(line), &s)
		if (perr == nil) != (serr == nil) {
			t.Fatalf("%s: plain error %v, shadow error %v", line, perr, serr)
		}
		s.plain.Tasks = s.Tasks
		if perr == nil && !reflect.DeepEqual(p, s.plain) {
			t.Fatalf("%s: plain %+v, shadow %+v", line, p, s.plain)
		}
	}
}
