package jsonl

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The reference for everything here is encoding/json itself: json.Marshal
// of a float64 or []float64 for the encoders, and its Decoder for the
// strict decode.

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

// FuzzFloats is the differential fuzz target for the encoder: any float64
// bit pattern formats byte for byte as json.Marshal writes it, alone and in
// an array with a repeat.
func FuzzFloats(f *testing.F) {
	for _, v := range []float64{2.37, math.Copysign(0, -1), 1e21, 5e-324, 1.0 / 3, 999999999.999999} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
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
