package distrib

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"

	"cyclesteal/fleet"
)

// benchStudy builds one study and its full shard cover once per benchmark.
func benchStudy(b *testing.B) (*fleet.Study, []fleet.ShardResult) {
	b.Helper()
	cfg := fleet.Config{Stations: 4, Setup: 5, Opportunities: 2, Seed: 3}
	spec, err := NewSpec(cfg, fleet.Job{Tasks: fleet.FixedTasks(60, 12)}, 128)
	if err != nil {
		b.Fatal(err)
	}
	study, err := spec.Study()
	if err != nil {
		b.Fatal(err)
	}
	results, err := study.RunShards(context.Background(), study.AllShards(), nil)
	if err != nil {
		b.Fatal(err)
	}
	return study, results
}

// BenchmarkDistribMerge measures the coordinator's merge layer: rebuilding
// every shard's accumulators from wire state and folding the cover into a
// Replication.
func BenchmarkDistribMerge(b *testing.B) {
	study, results := benchStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.Merge(results); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardEncode measures one shard result's trip onto the wire —
// the per-shard marginal cost of distributing a study.
func BenchmarkShardEncode(b *testing.B) {
	_, results := benchStudy(b)
	f := Frame{Kind: FrameShard, Shard: &results[0]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := EncodeFrame(io.Discard, f); err != nil {
			b.Fatal(err)
		}
	}
}

// studyFrameSpec is perfbench's study frame: E12's mixed fleet of 1,000
// stations under the guideline policy with 4 opportunities, a job of
// 100,000 durations (50+Intn(351))/100 drawn at a fixed seed, 16 trials.
func studyFrameSpec(tb testing.TB) Spec {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	tasks := make([]float64, 100_000)
	for i := range tasks {
		tasks[i] = float64(50+rng.Intn(351)) / 100
	}
	cfg := fleet.Config{Stations: 1000, Setup: 1, Opportunities: 4, Policy: fleet.Policy{Name: "guideline"}, Seed: 1}
	spec, err := NewSpec(cfg, fleet.Job{Tasks: tasks}, 16)
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

// BenchmarkDistribStudyFrame measures the study frame's codec, the fixed
// cost every connection pays before its first trial: encoding the frame,
// its 100,000 ticks written without reflection (once per coordinator), and
// parsing it, the ticks read by the strict integer reader (once per
// worker).
func BenchmarkDistribStudyFrame(b *testing.B) {
	spec := studyFrameSpec(b)
	f := Frame{Kind: FrameStudy, Format: wireFormat, Version: wireVersion, Spec: &spec}
	var line bytes.Buffer
	if err := EncodeFrame(&line, f); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := EncodeFrame(io.Discard, f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		raw := bytes.TrimSuffix(line.Bytes(), []byte("\n"))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseFrame(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}
