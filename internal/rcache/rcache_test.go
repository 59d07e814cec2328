package rcache

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stream"
)

type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestCacheTTLExpiry(t *testing.T) {
	clk := &manualClock{now: time.Unix(0, 0)}
	c := New(Config{Capacity: 16, TTL: time.Second, Clock: clk.Now})
	computes := 0
	get := func() (any, bool) {
		v, cached, err := c.Do("k", 0, false, func() (any, error) {
			computes++
			return computes, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, cached
	}
	if v, cached := get(); cached || v.(int) != 1 {
		t.Fatalf("first get = (%v, cached=%v)", v, cached)
	}
	if v, cached := get(); !cached || v.(int) != 1 {
		t.Fatalf("second get = (%v, cached=%v), want cached 1", v, cached)
	}
	clk.Advance(2 * time.Second)
	// An expired entry is a plain miss.
	if v, cached := get(); cached || v.(int) != 2 {
		t.Fatalf("post-TTL get = (%v, cached=%v), want recomputed 2", v, cached)
	}
}

func TestCacheImmutableIgnoresTTL(t *testing.T) {
	clk := &manualClock{now: time.Unix(0, 0)}
	c := New(Config{Capacity: 16, TTL: time.Millisecond, Clock: clk.Now})
	computes := 0
	get := func(gen uint64) (any, bool) {
		v, cached, err := c.Do("k", gen, true, func() (any, error) {
			computes++
			return computes, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, cached
	}
	get(3)
	clk.Advance(time.Hour)
	if v, cached := get(3); !cached || v.(int) != 1 {
		t.Fatalf("immutable entry expired: (%v, cached=%v)", v, cached)
	}
	// A new generation invalidates wholesale.
	if v, cached := get(4); cached || v.(int) != 2 {
		t.Fatalf("stale-generation entry served: (%v, cached=%v)", v, cached)
	}
	if inv := c.Stats().Invalidations; inv != 1 {
		t.Errorf("invalidations = %d, want 1", inv)
	}
}

func TestCacheGenerationDropsOlderEntries(t *testing.T) {
	c := New(Config{Capacity: 16, TTL: time.Minute})
	for i := 0; i < 8; i++ {
		key := string(rune('a' + i))
		if _, _, err := c.Do(key, 1, true, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Stats().Entries; n != 8 {
		t.Fatalf("entries = %d, want 8", n)
	}
	// First access at generation 2 drops all generation-1 entries — an O(1)
	// map swap, not a per-entry sweep, but the counters still tally each
	// discarded entry.
	if _, _, err := c.Do("z", 2, true, func() (any, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Invalidations != 8 {
		t.Errorf("after generation bump: entries=%d invalidations=%d, want 1/8", st.Entries, st.Invalidations)
	}
}

func TestCacheGenerationInvalidatesLazily(t *testing.T) {
	// A generation advance costs nothing until the first access carrying
	// it: stale entries stay in the map, unreachable (lookups carry the
	// generation label), and that access drops them all at once.
	c := New(Config{Capacity: 64, TTL: time.Minute})
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = "key-" + strconv.Itoa(i)
		if _, _, err := c.Do(keys[i], 1, true, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries != 16 || st.Invalidations != 0 || st.Generation != 1 {
		t.Fatalf("before any gen-2 access: entries=%d invalidations=%d gen=%d, want 16/0/1", st.Entries, st.Invalidations, st.Generation)
	}
	for i, key := range keys {
		v, cached, err := c.Do(key, 2, true, func() (any, error) { return i + 100, nil })
		if err != nil {
			t.Fatal(err)
		}
		if cached || v.(int) != i+100 {
			t.Fatalf("key %q at gen 2 = (%v, cached=%v), want recompute", key, v, cached)
		}
		if i == 0 {
			if st := c.Stats(); st.Entries != 1 || st.Invalidations != 16 {
				t.Fatalf("after the first gen-2 access: entries=%d invalidations=%d, want 1/16", st.Entries, st.Invalidations)
			}
		}
	}
	st := c.Stats()
	if st.Entries != 16 || st.Invalidations != 16 || st.Generation != 2 {
		t.Errorf("entries=%d invalidations=%d gen=%d, want 16/16/2", st.Entries, st.Invalidations, st.Generation)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(Config{Capacity: 3, TTL: time.Minute})
	get := func(key string) {
		if _, _, err := c.Do(key, 0, false, func() (any, error) { return key, nil }); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("c")
	get("a") // refresh a; b becomes LRU
	get("d") // evicts b
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("entries=%d evictions=%d, want 3/1", st.Entries, st.Evictions)
	}
	if _, cached, _ := c.Do("b", 0, false, func() (any, error) { return "b", nil }); cached {
		t.Error("evicted entry b still served")
	}
	if _, cached, _ := c.Do("a", 0, false, func() (any, error) { return "a", nil }); !cached {
		t.Error("recently used entry a evicted")
	}
}

func TestCacheSingleflightCollapses(t *testing.T) {
	c := New(Config{Capacity: 16, TTL: time.Minute})
	var computes atomic.Uint64
	release := make(chan struct{})
	var wg sync.WaitGroup
	const clients = 32
	results := make([]any, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("hot", 0, false, func() (any, error) {
				computes.Add(1)
				<-release
				return "answer", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Let the herd pile up behind the first flight, then release it.
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times for %d concurrent identical queries", got, clients)
	}
	for i, v := range results {
		if v != "answer" {
			t.Fatalf("client %d got %v", i, v)
		}
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := New(Config{Capacity: 16, TTL: time.Minute})
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, cached, err := c.Do("k", 0, false, func() (any, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) || cached {
			t.Fatalf("attempt %d: err=%v cached=%v", i, err, cached)
		}
	}
	if calls != 3 {
		t.Errorf("error was cached: %d computes for 3 calls", calls)
	}
}

func TestCacheStaleGenerationCannotEvictFresh(t *testing.T) {
	// A request still holding a pre-seal generation must neither serve nor
	// evict the current generation's entry: each generation's entries and
	// flights are isolated, and stores against a superseded generation are
	// refused outright.
	c := New(Config{Capacity: 16, TTL: time.Minute})
	fresh := 0
	get := func(gen uint64) (any, bool) {
		v, cached, err := c.Do("k", gen, true, func() (any, error) {
			fresh++
			return gen, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, cached
	}
	get(2) // current generation computes and caches
	if v, cached := get(1); cached || v.(uint64) != 1 {
		t.Fatalf("stale-generation request served (%v, cached=%v)", v, cached)
	}
	// The fresh generation-2 entry must have survived the stale access.
	if v, cached := get(2); !cached || v.(uint64) != 2 {
		t.Fatalf("generation-2 entry evicted by stale request: (%v, cached=%v)", v, cached)
	}
	if fresh != 2 {
		t.Errorf("%d computes, want 2 (one per generation)", fresh)
	}
}

func TestCacheCoalescedErrorNotCountedAsHit(t *testing.T) {
	// A waiter that joins an in-flight computation which then fails was NOT
	// served by the cache. The old cache counted the join as a hit up
	// front; the rebuilt one counts hits only after the flight succeeds and
	// tallies the failure separately.
	c := New(Config{Capacity: 16, TTL: time.Minute})
	boom := errors.New("boom")
	enter := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, err := c.Do("k", 0, false, func() (any, error) {
			close(enter)
			<-release
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("flight owner err = %v", err)
		}
	}()
	<-enter
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		_, cached, err := c.Do("k", 0, false, func() (any, error) {
			t.Error("waiter ran compute despite in-flight computation")
			return nil, nil
		})
		if !errors.Is(err, boom) || cached {
			t.Errorf("waiter = (cached=%v, err=%v), want joined error", cached, err)
		}
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	<-joined
	st := c.Stats()
	if st.Hits != 0 {
		t.Errorf("hits = %d, want 0 (errored flight must not count as a hit)", st.Hits)
	}
	if st.Coalesced != 1 || st.CoalescedErrors != 1 {
		t.Errorf("coalesced=%d coalescedErrors=%d, want 1/1", st.Coalesced, st.CoalescedErrors)
	}
	if st.HitRate != 0 {
		t.Errorf("hit rate = %v, want 0", st.HitRate)
	}
}

// zipfTrace materializes a shuffled zipf key trace as strings, the form
// cache keys take on the wire.
func zipfTrace(n, distinct int, skew float64, seed uint64) []string {
	s := stream.Zipf(n, distinct, skew, seed)
	keys := make([]string, len(s.Items))
	for i, it := range s.Items {
		keys[i] = "x/0/7/60/" + strconv.FormatUint(it.Key, 10)
	}
	return keys
}
