// Package repro's root benchmark suite regenerates every table and figure
// of the paper, one benchmark per artifact:
//
//	go test -bench=. -benchmem                    # all artifacts, bench scale
//	go test -bench=BenchmarkFig4Outliers -v       # one figure, print rows
//	go run ./cmd/rsbench -exp fig4b -scale paper  # full paper scale
//
// Benchmarks run at a reduced stream scale (see benchOptions) so the whole
// suite completes on a laptop; the rendered rows are printed under -v.
package repro

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/harness"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// benchOptions keeps the full suite's wall time reasonable while preserving
// every shape the paper reports (memory axes scale with the stream).
var benchOptions = harness.Options{Items: 200_000, Seed: 1, Trials: 3}

// runExperiment executes a registered artifact once per benchmark
// iteration and logs the resulting rows (visible with -v).
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := harness.Run(id, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, t := range tables {
				b.Log("\n" + t.String())
			}
		}
	}
}

func BenchmarkTable1Complexity(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable3FPGA(b *testing.B)       { runExperiment(b, "table3") }
func BenchmarkTable4Switch(b *testing.B)     { runExperiment(b, "table4") }

func BenchmarkFig4Outliers(b *testing.B) {
	b.Run("lambda5", func(b *testing.B) { runExperiment(b, "fig4a") })
	b.Run("lambda25", func(b *testing.B) { runExperiment(b, "fig4b") })
}

func BenchmarkFig5ZeroOutlierMemory(b *testing.B) { runExperiment(b, "fig5") }

func BenchmarkFig6Datasets(b *testing.B) {
	b.Run("web", func(b *testing.B) { runExperiment(b, "fig6a") })
	b.Run("datacenter", func(b *testing.B) { runExperiment(b, "fig6b") })
	b.Run("zipf0.3", func(b *testing.B) { runExperiment(b, "fig6c") })
	b.Run("zipf3.0", func(b *testing.B) { runExperiment(b, "fig6d") })
}

func BenchmarkFig7FrequentKeys(b *testing.B) {
	b.Run("T100", func(b *testing.B) { runExperiment(b, "fig7a") })
	b.Run("T1000", func(b *testing.B) { runExperiment(b, "fig7b") })
}

func BenchmarkFig8AAE(b *testing.B) {
	b.Run("iptrace", func(b *testing.B) { runExperiment(b, "fig8a") })
	b.Run("zipf3.0", func(b *testing.B) { runExperiment(b, "fig8b") })
}

func BenchmarkFig9ARE(b *testing.B) {
	b.Run("iptrace", func(b *testing.B) { runExperiment(b, "fig9a") })
	b.Run("zipf3.0", func(b *testing.B) { runExperiment(b, "fig9b") })
}

func BenchmarkFig10Throughput(b *testing.B)     { runExperiment(b, "fig10") }
func BenchmarkFig11RwZeroOutlier(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12RwAAE(b *testing.B)          { runExperiment(b, "fig12") }
func BenchmarkFig13RlZeroOutlier(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkFig14RlAAE(b *testing.B)          { runExperiment(b, "fig14") }
func BenchmarkFig15Lambda(b *testing.B)         { runExperiment(b, "fig15") }
func BenchmarkFig16HashCalls(b *testing.B)      { runExperiment(b, "fig16") }
func BenchmarkFig17SensedInterval(b *testing.B) { runExperiment(b, "fig17") }
func BenchmarkFig18SensedError(b *testing.B)    { runExperiment(b, "fig18") }
func BenchmarkFig19ErrorControl(b *testing.B)   { runExperiment(b, "fig19") }

func BenchmarkFig20Testbed(b *testing.B) {
	b.Run("iptrace", func(b *testing.B) { runExperiment(b, "fig20a") })
	b.Run("hadoop", func(b *testing.B) { runExperiment(b, "fig20b") })
}

// Micro-benchmarks backing Figure 10's per-operation numbers for the core
// sketch (competitor micro-benches live in their packages).

func benchStream() *stream.Stream {
	return stream.IPTrace(200_000, 1)
}

func BenchmarkOursInsert(b *testing.B) {
	s := benchStream()
	sk := core.NewFromMemory(1<<20, 25, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := s.Items[i%len(s.Items)]
		sk.Insert(it.Key, it.Value)
	}
}

func BenchmarkOursRawInsert(b *testing.B) {
	s := benchStream()
	sk := core.NewRaw(1<<20, 25, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := s.Items[i%len(s.Items)]
		sk.Insert(it.Key, it.Value)
	}
}

func BenchmarkOursQuery(b *testing.B) {
	s := benchStream()
	sk := core.NewFromMemory(1<<20, 25, 1)
	metrics.Feed(sk, s)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= sk.Query(s.Items[i%len(s.Items)].Key)
	}
	_ = sink
}

// batchContenders are the variants with native BatchInserter
// implementations, benchmarked both item-at-a-time (BenchmarkInsert) and
// through the batch path (BenchmarkInsertBatch) so the amortization shows
// up in the perf trajectory. SS rides along as a fallback-path reference.
var batchContenders = []struct {
	name string
	spec sketch.Spec
}{
	{"Ours", sketch.Spec{MemoryBytes: 1 << 20, Lambda: 25, Seed: 1}},
	{"CM_fast", sketch.Spec{MemoryBytes: 1 << 20, Seed: 1}},
	{"CU_fast", sketch.Spec{MemoryBytes: 1 << 20, Seed: 1}},
	{"Ours_sharded4", sketch.Spec{MemoryBytes: 1 << 20, Lambda: 25, Seed: 1, Shards: 4}},
	{"Ours_sharded8", pipelineBenchSpec},
	{"SS_fallback", sketch.Spec{MemoryBytes: 1 << 20, Seed: 1}},
}

func contenderSketch(name string, spec sketch.Spec) sketch.Sketch {
	algo := name
	switch name {
	case "Ours_sharded4", "Ours_sharded8":
		algo = "Ours"
	case "SS_fallback":
		algo = "SS"
	}
	return sketch.MustBuild(algo, spec)
}

func BenchmarkInsert(b *testing.B) {
	s := benchStream()
	for _, c := range batchContenders {
		b.Run(c.name, func(b *testing.B) {
			sk := contenderSketch(c.name, c.spec)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := s.Items[i%len(s.Items)]
				sk.Insert(it.Key, it.Value)
			}
		})
	}
}

func BenchmarkInsertBatch(b *testing.B) {
	s := benchStream()
	const chunk = 4096 // a realistic ingestion quantum (NIC ring / epoch flush)
	for _, c := range batchContenders {
		b.Run(c.name, func(b *testing.B) {
			sk := contenderSketch(c.name, c.spec)
			b.ReportAllocs()
			b.ResetTimer()
			for inserted := 0; inserted < b.N; {
				lo := inserted % len(s.Items)
				hi := lo + chunk
				if hi > len(s.Items) {
					hi = len(s.Items)
				}
				if rem := b.N - inserted; hi-lo > rem {
					hi = lo + rem
				}
				sketch.InsertBatch(sk, s.Items[lo:hi])
				inserted += hi - lo
			}
		})
	}
}

// pipelineBenchSpec is the sharded core sketch both sides of the ingest
// acceptance comparison run on: BenchmarkInsertBatch/Ours_sharded8 is the
// single-writer baseline, BenchmarkPipelineIngest the async plane over the
// same Spec.
var pipelineBenchSpec = sketch.Spec{MemoryBytes: 1 << 20, Lambda: 25, Seed: 1, Shards: 8}

// BenchmarkPipelineIngest measures the ingest plane end to end — submit,
// queue hand-off, per-batch landing — at 1, 4, and 8 workers on the
// sharded core sketch. Per-op time is per item, so items/sec compares
// directly against BenchmarkInsertBatch/Ours_sharded8 (the single-writer
// baseline): the acceptance bar is ≥ 3× at 8 workers. CI records both in
// the BENCH_ingest.json artifact.
func BenchmarkPipelineIngest(b *testing.B) {
	s := benchStream()
	const chunk = 4096 // the same ingestion quantum BenchmarkInsertBatch uses
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("Ours_sharded8/workers=%d", workers), func(b *testing.B) {
			a, err := ingest.NewAsyncIngester("Ours", pipelineBenchSpec, ingest.Tuning{
				Workers: workers,
				Queue:   128,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			b.ReportAllocs()
			b.ResetTimer()
			var source uint64
			for inserted := 0; inserted < b.N; {
				lo := inserted % len(s.Items)
				hi := lo + chunk
				if hi > len(s.Items) {
					hi = len(s.Items)
				}
				if rem := b.N - inserted; hi-lo > rem {
					hi = lo + rem
				}
				source++
				a.Submit(ingest.Batch{Items: s.Items[lo:hi], Source: source})
				inserted += hi - lo
			}
			if err := a.Drain(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// queryBatchSizes sweeps the batch-query amortization: 1 key isolates the
// batch path's fixed overhead against a plain Query call, 16 is a small
// dashboard refresh, 256 the acceptance-criteria serving batch.
var queryBatchSizes = []int{1, 16, 256}

// queryBatchContenders cover the flat native paths and the sharded wrapper,
// whose per-shard lock amortization is where batching pays most.
var queryBatchContenders = []struct {
	name string
	spec sketch.Spec
}{
	{"Ours", sketch.Spec{MemoryBytes: 1 << 20, Lambda: 25, Seed: 1}},
	{"CM_fast", sketch.Spec{MemoryBytes: 1 << 20, Seed: 1}},
	{"Ours_sharded16", sketch.Spec{MemoryBytes: 1 << 20, Lambda: 25, Seed: 1, Shards: 16}},
	{"CM_sharded16", sketch.Spec{MemoryBytes: 1 << 20, Seed: 1, Shards: 16}},
}

func queryContenderSketch(name string, spec sketch.Spec) sketch.Sketch {
	algo := name
	switch name {
	case "Ours_sharded16":
		algo = "Ours"
	case "CM_sharded16":
		algo = "CM_fast"
	}
	return sketch.MustBuild(algo, spec)
}

// benchQueryKeys draws n keys from the stream (heavy keys repeat, as in a
// real serving mix) and sorts them, the shape the sharded batch path feeds
// each shard.
func benchQueryKeys(s *stream.Stream, n, off int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = s.Items[(off+i*37)%len(s.Items)].Key
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// BenchmarkQueryLoop is the per-key baseline: the same key batches answered
// by calling Query in a loop. Compare against BenchmarkQueryBatch at equal
// /keys=N to read the amortization (per-op time is per key in both).
func BenchmarkQueryLoop(b *testing.B) {
	s := benchStream()
	for _, c := range queryBatchContenders {
		for _, size := range queryBatchSizes {
			b.Run(fmt.Sprintf("%s/keys=%d", c.name, size), func(b *testing.B) {
				sk := queryContenderSketch(c.name, c.spec)
				metrics.Feed(sk, s)
				keys := benchQueryKeys(s, size, 0)
				b.ReportAllocs()
				b.ResetTimer()
				var sink uint64
				for i := 0; i < b.N; i += size {
					for _, k := range keys {
						sink ^= sk.Query(k)
					}
				}
				_ = sink
			})
		}
	}
}

// BenchmarkQueryBatch reads the same batches through the unified batch
// path: one QueryBatch call per batch — one lock round-trip per shard, runs
// of equal keys collapsed, instrumentation hoisted.
func BenchmarkQueryBatch(b *testing.B) {
	s := benchStream()
	for _, c := range queryBatchContenders {
		for _, size := range queryBatchSizes {
			b.Run(fmt.Sprintf("%s/keys=%d", c.name, size), func(b *testing.B) {
				sk := queryContenderSketch(c.name, c.spec)
				metrics.Feed(sk, s)
				keys := benchQueryKeys(s, size, 0)
				est := make([]uint64, size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += size {
					sketch.QueryBatch(sk, keys, est, nil)
				}
			})
		}
	}
}

// BenchmarkMerge measures the distributed-aggregation primitive: folding a
// fully populated 1MB sketch into another. This is the per-batch cost
// ceiling of the netsum collector's merged view and the per-rotation cost
// of the epoch ring's cached window views.
func BenchmarkMerge(b *testing.B) {
	s := benchStream()
	for _, name := range []string{"Ours", "CM_fast", "CU_fast", "Count"} {
		b.Run(name, func(b *testing.B) {
			spec := sketch.Spec{MemoryBytes: 1 << 20, Lambda: 25, Seed: 1}
			src := sketch.MustBuild(name, spec)
			sketch.InsertBatch(src, s.Items[:len(s.Items)/2])
			dst := sketch.MustBuild(name, spec).(sketch.Mergeable)
			sketch.InsertBatch(dst, s.Items[len(s.Items)/2:])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dst.Merge(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Epoch-ring benchmarks: ingest through the ring (the mutex + rotation
// check over the raw sketch) and the rotation itself (sealing + publishing
// a fresh sealed set).
func BenchmarkRingInsert(b *testing.B) {
	s := benchStream()
	r := epoch.NewRing(sketch.Factory{Name: "Ours", New: func(mem int) sketch.Sketch {
		return core.NewFromMemory(mem, 25, 1)
	}}, 1<<20, time.Hour, 4, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := s.Items[i%len(s.Items)]
		r.Insert(it.Key, it.Value)
	}
}

func BenchmarkRingInsertBatch(b *testing.B) {
	s := benchStream()
	const chunk = 4096
	r := epoch.NewRing(sketch.Factory{Name: "Ours", New: func(mem int) sketch.Sketch {
		return core.NewFromMemory(mem, 25, 1)
	}}, 1<<20, time.Hour, 4, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for inserted := 0; inserted < b.N; {
		lo := inserted % len(s.Items)
		hi := lo + chunk
		if hi > len(s.Items) {
			hi = len(s.Items)
		}
		if rem := b.N - inserted; hi-lo > rem {
			hi = lo + rem
		}
		r.InsertBatch(s.Items[lo:hi])
		inserted += hi - lo
	}
}

func BenchmarkRingRotate(b *testing.B) {
	// Every insert lands one epoch boundary ahead of the last, so each
	// iteration pays exactly one seal + publish.
	now := time.Unix(0, 0)
	r := epoch.NewRing(sketch.Factory{Name: "CM_fast", New: func(mem int) sketch.Sketch {
		return sketch.MustBuild("CM_fast", sketch.Spec{MemoryBytes: mem, Seed: 1})
	}}, 256<<10, time.Second, 4, func() time.Time { return now })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Second)
		r.Insert(uint64(i), 1)
	}
}

// BenchmarkRingSealedQuery measures the lock-free sealed-window read path
// under a populated ring.
func BenchmarkRingSealedQuery(b *testing.B) {
	s := benchStream()
	now := time.Unix(0, 0)
	r := epoch.NewRing(sketch.Factory{Name: "Ours", New: func(mem int) sketch.Sketch {
		return core.NewFromMemory(mem, 25, 1)
	}}, 1<<20, time.Second, 4, func() time.Time { return now })
	r.InsertBatch(s.Items)
	now = now.Add(time.Second)
	r.Insert(1, 1) // seal
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Query(s.Items[i%len(s.Items)].Key)
	}
	_ = sink
}

func BenchmarkOursQueryWithError(b *testing.B) {
	s := benchStream()
	sk := core.NewFromMemory(1<<20, 25, 1)
	metrics.Feed(sk, s)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		e, m := sk.QueryWithError(s.Items[i%len(s.Items)].Key)
		sink ^= e + m
	}
	_ = sink
}
