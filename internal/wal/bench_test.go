package wal

import (
	"fmt"
	"testing"

	"repro/internal/ingest"
	"repro/internal/stream"
)

// BenchmarkWALAppend prices the durability policies against each other: what
// a lone writer's per-batch fsync costs, and what the pure write path costs
// with fsync off. Batches are 64 items — a typical agent flush fragment —
// and b.N appends stream into one log.
func BenchmarkWALAppend(b *testing.B) {
	policies := []FsyncPolicy{{Mode: SyncEachBatch}, {Mode: SyncOff}}
	items := make([]stream.Item, 64)
	for i := range items {
		items[i] = stream.Item{Key: uint64(i * 7919), Value: 1}
	}
	for _, p := range policies {
		b.Run(fmt.Sprintf("fsync=%s", p), func(b *testing.B) {
			l, err := Open(Options{Dir: b.TempDir(), Fsync: p})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			batch := ingest.Batch{Items: items, Source: 1}
			b.SetBytes(int64(len(items)) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALAppendParallel measures leader/follower fsync sharing under
// batch: appends that arrive while one fsync is in flight all ride the next
// one, so with many producers ns/op falls well below the serial row.
func BenchmarkWALAppendParallel(b *testing.B) {
	items := make([]stream.Item, 64)
	for i := range items {
		items[i] = stream.Item{Key: uint64(i * 7919), Value: 1}
	}
	b.Run("fsync=batch", func(b *testing.B) {
		l, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncPolicy{Mode: SyncEachBatch}})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		batch := ingest.Batch{Items: items, Source: 1}
		b.SetBytes(int64(len(items)) * 16)
		// Sharing amortizes across concurrent appenders, not CPUs: force
		// real followers even on single-core CI runners.
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := l.Append(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkWALReplay prices recovery: how fast a log streams back through a
// no-op consumer.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		b.Fatal(err)
	}
	items := make([]stream.Item, 64)
	for i := range items {
		items[i] = stream.Item{Key: uint64(i * 7919), Value: 1}
	}
	const records = 10000
	for i := 0; i < records; i++ {
		if _, err := l.Append(ingest.Batch{Items: items, Source: 1}); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(records * int64(len(items)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rl, err := Open(Options{Dir: dir, Fsync: FsyncPolicy{Mode: SyncOff}})
		if err != nil {
			b.Fatal(err)
		}
		n, err := rl.Replay(0, func(ingest.Batch, uint64) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("replayed %d, want %d", n, records)
		}
		rl.Close()
	}
}
