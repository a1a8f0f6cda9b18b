package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cyclesteal/internal/jsonl"
)

// marshalWALRecord is the reference encoding of an event line: its
// walRecord through encoding/json, which defines the log's bytes. The
// service's hand-written encoder must match it byte for byte.
func marshalWALRecord(t testing.TB, ev ServiceEvent) []byte {
	t.Helper()
	line, err := json.Marshal(walRecord{
		Round:      ev.Round,
		Kind:       ev.Kind.String(),
		Sampled:    ev.Sampled,
		Tenant:     ev.Tenant,
		JobID:      ev.JobID,
		Ticks:      ev.Ticks,
		Station:    ev.Station,
		Checkpoint: ev.Checkpoint,
		Adaptive:   ev.Adaptive,
	})
	if err != nil {
		t.Fatalf("reference encoding of %+v: %v", ev, err)
	}
	return append(line, '\n')
}

// walEdgeTicks are ticks at the digit-count edges, the int64 extremes and
// the durations the benchmark and tests quantize to.
var walEdgeTicks = []int64{1, 9, 10, 99, 100, 240, 500, 999, 1000, 1 << 31, 1e18, math.MaxInt64 - 1, math.MaxInt64}

// walEdgeFloats are the checkpoint intervals where encoding/json's float
// formatting changes shape: signed zero, the %f/%e cutoffs at 1e-6 and
// 1e21, the smallest subnormal and the largest finite value.
var walEdgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999999999999e-7, 1e21, 9.999999999999999e20,
	5e-324, math.MaxFloat64, 0.1, 1.0 / 3, 12.5, 5, 123456789.125, 1e-300, 2.5e-9,
}

// randomWALFloat draws a finite float of any magnitude and sign, often an
// edge value.
func randomWALFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return walEdgeFloats[rng.Intn(len(walEdgeFloats))]
	case 1:
		return float64(rng.Intn(100)) / 4
	case 2:
		for {
			if f := math.Float64frombits(rng.Uint64()); finite(f) {
				return f
			}
		}
	default:
		return (rng.Float64() - 0.2) * math.Pow(10, float64(rng.Intn(60)-30))
	}
}

// randomWALTick draws a tick of any digit count, often an edge value.
func randomWALTick(rng *rand.Rand) int64 {
	if rng.Intn(4) == 0 {
		return walEdgeTicks[rng.Intn(len(walEdgeTicks))]
	}
	return 1 + rng.Int63n(math.MaxInt64)>>uint(rng.Intn(63))
}

// TestWALRecordMatchesJSON is the differential pin for the WAL encoder:
// every event line, and in particular every submit's tick array, comes out
// exactly as json.Marshal of its walRecord — for random events of every
// kind and the tick, checkpoint, tenant and ID edge cases.
func TestWALRecordMatchesJSON(t *testing.T) {
	tenants := []string{"", "acme", `qu"ote`, `back\slash`, "<b>&amp;</b>", "line sep ", "bad\xff\xfeutf8", "tab\tnew\nline\x00", "ünïcödé"}
	kinds := []EventKind{EventSubmit, EventJoin, EventLeave, EventCheckpoint, EventCrash, EventKill}
	check := func(ev ServiceEvent) {
		t.Helper()
		want := marshalWALRecord(t, ev)
		var got bytes.Buffer
		if err := writeEvent(&got, ev); err != nil {
			t.Fatalf("encoding %+v: %v", ev, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("event %+v encodes as\n%s\nwant\n%s", ev, got.Bytes(), want)
		}
	}

	// Edge cases: each edge tick alone, as a run of repeats, and next to
	// its neighbours; each edge checkpoint; every tenant; job ID 0.
	for _, d := range walEdgeTicks {
		check(ServiceEvent{Kind: EventSubmit, Tenant: "acme", Ticks: []int64{d}})
		check(ServiceEvent{Round: 3, Kind: EventSubmit, JobID: 7, Ticks: []int64{d, d, d, d - 1, d - 1, d}})
	}
	for _, f := range walEdgeFloats {
		check(ServiceEvent{Round: 1, Kind: EventCheckpoint, Checkpoint: f, Adaptive: true})
	}
	check(ServiceEvent{Kind: EventSubmit, Ticks: walEdgeTicks})
	for _, tenant := range tenants {
		check(ServiceEvent{Round: 2, Kind: EventSubmit, Tenant: tenant, JobID: 0, Ticks: []int64{500, 500}})
	}
	check(ServiceEvent{Kind: EventSubmit, Tenant: "acme"}) // a logged submit with no tasks

	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 3000; i++ {
		ev := ServiceEvent{Kind: kinds[rng.Intn(len(kinds))], Round: rng.Intn(1 << uint(rng.Intn(31)))}
		if rng.Intn(2) == 0 {
			ev.Sampled = true
		}
		if rng.Intn(3) == 0 {
			ev.Station = rng.Intn(5000) - 100
		}
		if rng.Intn(4) == 0 {
			ev.Checkpoint = randomWALFloat(rng)
			ev.Adaptive = rng.Intn(2) == 0
		}
		if ev.Kind == EventSubmit || rng.Intn(8) == 0 {
			ev.Tenant = tenants[rng.Intn(len(tenants))]
			if rng.Intn(2) == 0 {
				ev.Tenant = randomTenant(rng)
			}
			ev.JobID = rng.Intn(3) * rng.Intn(1<<20)
			for n := rng.Intn(40); n > 0; n-- {
				d := randomWALTick(rng)
				for run := 1 + rng.Intn(4); run > 0 && n > 0; run-- {
					ev.Ticks = append(ev.Ticks, d)
					n--
				}
			}
		}
		check(ev)
	}
}

// randomTenant draws a string rich in what JSON string encoding escapes:
// quotes, backslashes, control bytes, HTML characters, U+2028 and U+2029,
// and invalid or truncated UTF-8.
func randomTenant(rng *rand.Rand) string {
	pieces := []string{"a", "Z", "0", " ", `"`, `\`, "<", ">", "&", "\x00", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
		"é", "€", "😀", "\u2028", "\u2029", "\ufffd", "\xff", "\xe2\x80", "\xc3", "\xed\xa0\x80"}
	var b []byte
	for n := rng.Intn(12); n > 0; n-- {
		b = append(b, pieces[rng.Intn(len(pieces))]...)
	}
	return string(b)
}

// A checkpoint encoding/json refuses is refused here too: the log never
// holds a line it could not read back.
func TestWALEncoderRefusesNonFinite(t *testing.T) {
	for _, ev := range []ServiceEvent{
		{Kind: EventCheckpoint, Checkpoint: math.NaN()},
		{Kind: EventCheckpoint, Checkpoint: math.Inf(1)},
		{Kind: EventCheckpoint, Checkpoint: math.Inf(-1)},
		{Kind: EventSubmit, Ticks: []int64{5, 5}, Checkpoint: math.NaN()},
	} {
		var line bytes.Buffer
		if err := writeEvent(&line, ev); err == nil || line.Len() != 0 {
			t.Errorf("encoded %+v as %q (%v)", ev, line.Bytes(), err)
		}
	}
}

// walTicksFromBytes turns fuzz bytes into a tick slice with runs of
// repeats. Each step reads a control byte: an odd one repeats the last
// tick 1 to 8 times, an even one takes the next 8 bytes as an int64.
func walTicksFromBytes(data []byte) []int64 {
	ticks := []int64{}
	for len(data) > 0 {
		c := data[0]
		data = data[1:]
		if c&1 == 1 && len(ticks) > 0 {
			for n := int(c>>1)%8 + 1; n > 0; n-- {
				ticks = append(ticks, ticks[len(ticks)-1])
			}
			continue
		}
		if len(data) < 8 {
			break
		}
		ticks = append(ticks, int64(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return ticks
}

// FuzzWALTasks is the differential fuzz target for the tick-array encoder
// the WAL and the distrib study frame share (jsonl.AppendInt64s): for any
// ticks, with or without repeats, its bytes are json.Marshal's and
// encoding/json decodes them into an []int64 to the same values — and the
// whole submit record is json.Marshal's, with the fuzz bytes as its tenant.
func FuzzWALTasks(f *testing.F) {
	seed := func(vals ...int64) []byte {
		var b []byte
		for _, v := range vals {
			b = append(b, 0)
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
			b = append(b, 7) // repeat it 4 times
		}
		return b
	}
	f.Add([]byte{})
	f.Add(seed(500))
	f.Add(seed(walEdgeTicks...))
	f.Add(seed(0, -1, math.MinInt64, 99, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		ticks := walTicksFromBytes(data)
		want, err := json.Marshal(ticks)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", ticks, err)
		}
		got := jsonl.AppendInt64s(nil, ticks)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendInt64s(%v) = %s, json.Marshal %s", ticks, got, want)
		}
		var back []int64
		if err := json.Unmarshal(got, &back); err != nil || !slices.Equal(back, ticks) {
			t.Fatalf("AppendInt64s(%v) = %s decodes to %v (%v)", ticks, got, back, err)
		}
		ev := ServiceEvent{Round: len(data), Kind: EventSubmit, Tenant: string(data), JobID: len(ticks), Ticks: ticks}
		var line bytes.Buffer
		if err := writeWALRecord(&line, ev, got); err != nil {
			t.Fatal(err)
		}
		if want := marshalWALRecord(t, ev); !bytes.Equal(line.Bytes(), want) {
			t.Fatalf("submit record\n%s\nwant\n%s", line.Bytes(), want)
		}
	})
}

// BenchmarkFleetWALSubmit prices what a WAL'd Submit adds per job: encoding
// one 20,000-task submit event from an NxD job line ("20000x5" at Setup 1,
// 500 ticks a task) into its log record.
func BenchmarkFleetWALSubmit(b *testing.B) {
	ticks := make([]int64, 20000)
	for i := range ticks {
		ticks[i] = 500
	}
	ev := ServiceEvent{Round: 137, Kind: EventSubmit, Tenant: "tenant-1", JobID: 42, Ticks: ticks}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeWALRecord(io.Discard, ev, jsonl.AppendInt64s(nil, ev.Ticks)); err != nil {
			b.Fatal(err)
		}
	}
}
