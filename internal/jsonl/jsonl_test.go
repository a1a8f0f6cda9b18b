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
