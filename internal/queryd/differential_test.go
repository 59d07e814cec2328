package queryd

import (
	"testing"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// TestPipelinedIngestDifferential feeds one seeded zipf stream to a
// synchronous backend and to pipelined ones, sized like the serving
// benchmark (Ours, Λ=25, one byte of sketch per eight items). Pipeline
// workers land every batch by insertion, so the served sketch stays
// insertion-built:
//   - one worker applies batches in submission order, so its state — and
//     every answer — is bit-identical to synchronous ingest;
//   - two workers interleave batches, yet every key stays certified, every
//     interval contains the truth, and no estimate is off by more than Λ,
//     the paper's all-keys guarantee for insertion-built state.
func TestPipelinedIngestDifferential(t *testing.T) {
	const items, lambda = 100_000, 25
	s := stream.Zipf(items, items/10, 1.1, 21)
	mem := 1 << 12
	for mem*8 < items {
		mem <<= 1
	}
	spec := sketch.Spec{Lambda: lambda, MemoryBytes: mem, Seed: 1}

	build := func(workers int) *SketchBackend {
		cfg := SketchBackendConfig{Algo: "Ours", Spec: spec}
		if workers > 0 {
			cfg.Ingest = &ingest.Tuning{Workers: workers}
		}
		b, err := NewSketchBackendFrom(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		for lo := 0; lo < s.Len(); lo += 1024 {
			if ack := b.Ingest(ingest.Batch{Items: s.Items[lo:min(lo+1024, s.Len())]}); ack.Dropped != 0 {
				t.Fatalf("%d-worker backend dropped %d items", workers, ack.Dropped)
			}
		}
		return b
	}
	syncB, one, two := build(0), build(1), build(2)

	truth := s.Truth()
	keys := make([]uint64, 0, len(truth))
	for k := range truth {
		keys = append(keys, k)
	}
	answer := func(b *SketchBackend, batch []uint64) []query.Estimate {
		ans, err := b.Execute(query.Request{Kind: query.Point, Keys: batch})
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Certified {
			t.Fatal("answer not certified")
		}
		return ans.PerKey
	}
	over := 0
	for lo := 0; lo < len(keys); lo += query.MaxBatchKeys {
		batch := keys[lo:min(lo+query.MaxBatchKeys, len(keys))]
		want, got1, got2 := answer(syncB, batch), answer(one, batch), answer(two, batch)
		for i, w := range want {
			if got1[i] != w {
				t.Fatalf("key %d: 1-worker pipeline answers %+v, synchronous %+v", w.Key, got1[i], w)
			}
			e, exact := got2[i], truth[w.Key]
			if exact < e.Lower || exact > e.Upper {
				t.Fatalf("key %d: 2-worker interval [%d, %d] misses exact %d", e.Key, e.Lower, e.Upper, exact)
			}
			if max(e.Est, exact)-min(e.Est, exact) > lambda {
				over++
			}
		}
	}
	if over != 0 {
		t.Fatalf("2-worker pipeline left %d of %d keys over Λ=%d", over, len(keys), lambda)
	}
}
