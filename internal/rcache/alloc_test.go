package rcache

import (
	"testing"
	"time"
)

// TestCacheHitAllocFree pins the allocation contract of the serving hot
// path: a fresh-entry hit in Do builds the generation-labeled key in a
// stack buffer and probes the entry map through the alloc-free
// map[string(bytes)] form, so steady-state hits perform zero heap
// allocations. Only a miss registering a flight materializes a retained
// key string.
//
// Judged on the best of a few attempts, like TestHotPathsAllocFree at the
// repo root: AllocsPerRun counts process-wide mallocs and interference
// only ever adds, while a real per-hit allocation shows up in every
// attempt.
func TestCacheHitAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	compute := func() (any, error) { return 1, nil }
	c := New(Config{Capacity: 1024, TTL: time.Hour})
	if _, cached, err := c.Do("x/0/7/60/12345", 0, false, compute); err != nil || cached {
		t.Fatalf("warmup Do = cached %v, err %v", cached, err)
	}
	best := 1e18
	for attempt := 0; attempt < 5 && best > 0; attempt++ {
		got := testing.AllocsPerRun(1000, func() {
			if _, cached, err := c.Do("x/0/7/60/12345", 0, false, compute); err != nil || !cached {
				t.Fatalf("hit Do = cached %v, err %v", cached, err)
			}
		})
		if got < best {
			best = got
		}
	}
	if best != 0 {
		t.Errorf("fresh-entry hit allocates %.0f allocs/op, want 0", best)
	}
}
