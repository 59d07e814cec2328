package rcache

import (
	"testing"
	"time"
)

// BenchmarkCacheLRU replays a zipf trace (200k requests over 10k distinct
// keys) through a 1024-entry cache, reporting the hit rate alongside the
// usual time/allocs — the numbers BENCH_cache.json commits and
// scripts/perf_gate.sh compares.
func BenchmarkCacheLRU(b *testing.B) {
	trace := zipfTrace(200_000, 10_000, 1.1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var st Stats
	for i := 0; i < b.N; i++ {
		c := New(Config{Capacity: 1024, TTL: time.Hour})
		for _, key := range trace {
			c.Do(key, 0, false, func() (any, error) { return 1, nil })
		}
		st = c.Stats()
	}
	b.ReportMetric(st.HitRate, "hitrate")
	b.ReportMetric(float64(len(trace)), "ops/run")
}

// BenchmarkCacheHit pins the hot path: a fresh-entry hit is one lock, one
// map probe, and one move to the head of the recency list.
func BenchmarkCacheHit(b *testing.B) {
	c := New(Config{Capacity: 1024, TTL: time.Hour})
	c.Do("k", 0, false, func() (any, error) { return 1, nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Do("k", 0, false, func() (any, error) { return 1, nil })
	}
}

// BenchmarkCacheHitParallel measures hits under contention on the one
// cache mutex: every goroutine hammers its own hot key. Splitting the lock
// eight ways did not pay: on a 2-vCPU Xeon, eight shards measured
// ~295 ns/op against ~240 ns/op for one lock.
func BenchmarkCacheHitParallel(b *testing.B) {
	c := New(Config{Capacity: 1024, TTL: time.Hour})
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = zipfTrace(64, 64, 0.1, uint64(i)+1)[i%64]
		c.Do(keys[i], 0, false, func() (any, error) { return 1, nil })
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Do(keys[i&63], 0, false, func() (any, error) { return 1, nil })
			i++
		}
	})
}

// BenchmarkCacheMissEvict is the worst-case full-churn path: every access
// misses, stores, and evicts.
func BenchmarkCacheMissEvict(b *testing.B) {
	c := New(Config{Capacity: 64, TTL: time.Hour})
	keys := zipfTrace(128, 128, 0.01, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Do(keys[i%len(keys)], uint64(i), true, func() (any, error) { return i, nil })
	}
}
