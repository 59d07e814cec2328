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

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in, want string
		ok       bool
	}{
		{"", PolicyLRU, true},
		{"lru", PolicyLRU, true},
		{"s3fifo", PolicyS3FIFO, true},
		{"tinylfu", PolicyTinyLFU, true},
		{"arc", "", false},
		{"LRU", "", false},
	} {
		got, err := ParsePolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePolicy(%q) = (%q, %v), want (%q, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
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
	// SWR is off, so an expired entry is a plain miss.
	if v, cached := get(); cached || v.(int) != 2 {
		t.Fatalf("post-TTL get = (%v, cached=%v), want recomputed 2", v, cached)
	}
}

func TestCacheImmutableIgnoresTTL(t *testing.T) {
	clk := &manualClock{now: time.Unix(0, 0)}
	c := New(Config{Capacity: 16, Shards: 1, TTL: time.Millisecond, Clock: clk.Now})
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
	c := New(Config{Capacity: 16, Shards: 1, TTL: time.Minute})
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

func TestCacheShardedGenerationInvalidatesLazily(t *testing.T) {
	// With multiple shards, a generation advance lands on each shard the
	// first time that shard is accessed with the new label — stale entries
	// in untouched shards are unreachable (lookups carry the generation)
	// and are reclaimed on their shard's next access.
	c := New(Config{Capacity: 64, Shards: 4, TTL: time.Minute})
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = "key-" + strconv.Itoa(i)
		if _, _, err := c.Do(keys[i], 1, true, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Touch every key at generation 2: every shard observes the advance.
	for i, key := range keys {
		v, cached, err := c.Do(key, 2, true, func() (any, error) { return i + 100, nil })
		if err != nil {
			t.Fatal(err)
		}
		if cached || v.(int) != i+100 {
			t.Fatalf("key %q at gen 2 = (%v, cached=%v), want recompute", key, v, cached)
		}
	}
	st := c.Stats()
	if st.Entries != 16 || st.Invalidations != 16 || st.Generation != 2 {
		t.Errorf("entries=%d invalidations=%d gen=%d, want 16/16/2", st.Entries, st.Invalidations, st.Generation)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(Config{Capacity: 3, Shards: 1, TTL: time.Minute})
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

func TestCacheSWRServesStaleWhileRevalidating(t *testing.T) {
	clk := &manualClock{now: time.Unix(0, 0)}
	c := New(Config{Capacity: 16, TTL: time.Second, SWR: 10 * time.Second, Clock: clk.Now})
	var computes atomic.Int64
	refreshed := make(chan struct{})
	compute := func() (any, error) {
		n := computes.Add(1)
		if n == 2 {
			defer close(refreshed)
		}
		return int(n), nil
	}
	if v, cached, _ := c.Do("k", 0, false, compute); cached || v.(int) != 1 {
		t.Fatalf("first get = (%v, cached=%v)", v, cached)
	}
	clk.Advance(2 * time.Second) // expired, inside the SWR window

	// Every stale hit inside the window serves the old value immediately;
	// exactly one background flight refreshes.
	for i := 0; i < 4; i++ {
		v, cached, err := c.Do("k", 0, false, compute)
		if err != nil {
			t.Fatal(err)
		}
		if !cached || v.(int) != 1 {
			t.Fatalf("stale get %d = (%v, cached=%v), want stale 1 served", i, v, cached)
		}
	}
	<-refreshed
	if got := computes.Load(); got != 2 {
		t.Fatalf("computes = %d, want 2 (one initial, one revalidation)", got)
	}
	// The refreshed value replaces the stale entry; poll because the
	// background flight settles after publishing to waiters.
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, cached, _ := c.Do("k", 0, false, compute)
		if cached && v.(int) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refreshed value never served: (%v, cached=%v)", v, cached)
		}
		time.Sleep(time.Millisecond)
	}
	st := c.Stats()
	if st.StaleServed != 4 {
		t.Errorf("staleServed = %d, want 4", st.StaleServed)
	}
}

func TestCacheSWRExpiryDuringRevalidationJoinsFlight(t *testing.T) {
	// The race from the issue: an entry expires past its whole SWR window
	// WHILE a revalidation flight is still running. The late caller must
	// join that flight (it is registered in the inflight map), not start a
	// second compute.
	clk := &manualClock{now: time.Unix(0, 0)}
	c := New(Config{Capacity: 16, TTL: time.Second, SWR: 5 * time.Second, Clock: clk.Now})
	var computes atomic.Int64
	enter := make(chan struct{})
	release := make(chan struct{})
	first := func() (any, error) { computes.Add(1); return "old", nil }
	slow := func() (any, error) {
		computes.Add(1)
		close(enter)
		<-release
		return "new", nil
	}
	if _, _, err := c.Do("k", 0, false, first); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second) // stale, inside SWR
	if v, cached, _ := c.Do("k", 0, false, slow); !cached || v.(string) != "old" {
		t.Fatalf("stale get = (%v, cached=%v), want old served", v, cached)
	}
	<-enter                // revalidation flight is now in progress
	clk.Advance(time.Hour) // the entry is now beyond its SWR window entirely

	got := make(chan any, 1)
	go func() {
		v, _, err := c.Do("k", 0, false, func() (any, error) {
			t.Error("late caller recomputed instead of joining the revalidation flight")
			return nil, nil
		})
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if v := <-got; v.(string) != "new" {
		t.Fatalf("late caller got %v, want the revalidated value", v)
	}
	if n := computes.Load(); n != 2 {
		t.Errorf("computes = %d, want 2", n)
	}
}

func TestCacheSWRRevalidationErrorReleasesClaim(t *testing.T) {
	clk := &manualClock{now: time.Unix(0, 0)}
	c := New(Config{Capacity: 16, TTL: time.Second, SWR: time.Minute, Clock: clk.Now})
	if _, _, err := c.Do("k", 0, false, func() (any, error) { return "v", nil }); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	boom := errors.New("boom")
	fail := make(chan struct{})
	if v, cached, _ := c.Do("k", 0, false, func() (any, error) {
		defer close(fail)
		return nil, boom
	}); !cached || v.(string) != "v" {
		t.Fatalf("stale get = (%v, cached=%v)", v, cached)
	}
	<-fail
	// The failed revalidation must release the claim so a later stale hit
	// can try again. Poll: settle runs after the flight publishes. The
	// retry compute runs on a background revalidation goroutine, so the
	// flag is atomic.
	var retried atomic.Bool
	deadline := time.Now().Add(2 * time.Second)
	for !retried.Load() && time.Now().Before(deadline) {
		if v, cached, _ := c.Do("k", 0, false, func() (any, error) {
			retried.Store(true)
			return "v2", nil
		}); !cached || v.(string) != "v" {
			t.Fatalf("stale get after failed revalidation = (%v, cached=%v)", v, cached)
		}
		time.Sleep(time.Millisecond)
	}
	if !retried.Load() {
		t.Fatal("revalidation claim never released after a failed flight")
	}
}

func TestCacheS3FIFOGhostReadmission(t *testing.T) {
	c := New(Config{Capacity: 10, Shards: 1, Policy: PolicyS3FIFO, TTL: time.Minute})
	get := func(key string) {
		if _, _, err := c.Do(key, 0, false, func() (any, error) { return key, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Fill small (cap/10 = 1) and overflow it so "g0" is evicted to ghost.
	get("g0")
	for i := 0; i < 9; i++ {
		get("fill-" + strconv.Itoa(i))
	}
	get("overflow") // pushes g0 (freq 0) out of small into ghost
	if c.Stats().Evictions == 0 {
		t.Fatal("no eviction after overflowing small queue")
	}
	// The returning key must be routed into main via the ghost queue.
	get("g0")
	if gh := c.Stats().GhostHits; gh != 1 {
		t.Errorf("ghost hits = %d, want 1", gh)
	}
}

func TestCacheTinyLFURejectsColdCandidates(t *testing.T) {
	c := New(Config{Capacity: 32, Shards: 1, Policy: PolicyTinyLFU, TTL: time.Minute})
	get := func(key string) {
		if _, _, err := c.Do(key, 0, false, func() (any, error) { return key, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Build up frequency on a working set, then stream one-hit wonders
	// through: the admission filter should deny most of them.
	for round := 0; round < 5; round++ {
		for i := 0; i < 24; i++ {
			get("hot-" + strconv.Itoa(i))
		}
	}
	for i := 0; i < 200; i++ {
		get("cold-" + strconv.Itoa(i))
	}
	st := c.Stats()
	if st.AdmissionRejects == 0 {
		t.Fatal("TinyLFU never rejected a cold candidate")
	}
	// The hot set must have survived the scan.
	hits := 0
	for i := 0; i < 24; i++ {
		if _, cached, _ := c.Do("hot-"+strconv.Itoa(i), 0, false, func() (any, error) { return nil, nil }); cached {
			hits++
		}
	}
	if hits < 16 {
		t.Errorf("only %d/24 hot keys survived the cold scan", hits)
	}
}

// TestPolicyHitRatesUnderZipf is the acceptance criterion from the issue:
// on a zipf skew-1.1 trace at equal capacity, both admission-controlled
// policies must beat plain LRU's hit rate.
func TestPolicyHitRatesUnderZipf(t *testing.T) {
	trace := zipfTrace(200_000, 10_000, 1.1, 1)
	rate := func(policy string) float64 {
		c := New(Config{Capacity: 1024, Shards: 8, Policy: policy, TTL: time.Hour})
		for _, key := range trace {
			if _, _, err := c.Do(key, 0, false, func() (any, error) { return 1, nil }); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats().HitRate
	}
	lru := rate(PolicyLRU)
	s3 := rate(PolicyS3FIFO)
	tlfu := rate(PolicyTinyLFU)
	t.Logf("hit rates under zipf(skew=1.1, distinct=10k, cap=1k): lru=%.4f s3fifo=%.4f tinylfu=%.4f", lru, s3, tlfu)
	if s3 <= lru {
		t.Errorf("s3fifo hit rate %.4f does not beat lru %.4f", s3, lru)
	}
	if tlfu <= lru {
		t.Errorf("tinylfu hit rate %.4f does not beat lru %.4f", tlfu, lru)
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
