// Package rcache is the serving plane's result cache: one LRU of whole
// answers, epoch-aware, with singleflight collapsing of concurrent
// identical computes.
//
// queryd caches only top-k answers, keyed by (k, window): a handful of
// distinct keys per server. So the cache is one mutex, one entry map, one
// inflight map and one intrusive recency list; at that key count neither
// an admission-controlled eviction policy nor lock sharding has anything
// to win.
//
// Entries are keyed by (query, sealed-set generation). Two freshness
// regimes coexist:
//
//   - Immutable entries (epochal backends): an answer derived only from
//     sealed windows cannot change while the generation holds, so it
//     caches with no TTL. When a new window seals the generation advances,
//     and the first access carrying it discards the whole entry map in
//     O(1), with no list walk under the lock.
//   - TTL entries (live, cumulative backends): the answer drifts with
//     every ingested batch, so it expires after a short TTL.
package rcache

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Default sizing applied by New when Config leaves fields zero.
const (
	// DefaultCapacity is the entry budget.
	DefaultCapacity = 4096
	// DefaultTTL bounds staleness for live (non-epochal) answers.
	DefaultTTL = 250 * time.Millisecond
)

// Config sizes a Cache. The zero value is usable: an LRU cache of
// DefaultCapacity entries with DefaultTTL freshness.
type Config struct {
	// Capacity is the entry budget. Values below 1 mean DefaultCapacity.
	Capacity int
	// TTL bounds staleness of mutable entries. Values ≤ 0 mean
	// DefaultTTL.
	TTL time.Duration
	// Clock overrides wall time (tests).
	Clock func() time.Time
}

// Cache is the result cache. All exported methods are safe for concurrent
// use.
type Cache struct {
	mu       sync.Mutex
	gen      uint64 // highest generation observed
	entries  map[string]*entry
	inflight map[string]*flight
	// head is the most recently used entry, tail the next to evict.
	head, tail *entry

	capacity int
	ttl      time.Duration
	clock    func() time.Time

	// Counters are telemetry instruments (single atomic words), so the
	// cache's JSON stats and its Prometheus series read the same source of
	// truth, and a scrape takes no lock.
	hits            telemetry.Counter
	misses          telemetry.Counter
	coalesced       telemetry.Counter
	coalescedErrors telemetry.Counter
	evictions       telemetry.Counter
	invalidations   telemetry.Counter
}

// entry is one stored answer, intrusively linked into the recency list.
// A zero expires means immutable: valid while its generation holds.
type entry struct {
	key        string // generation-labeled: base + "@" + gen
	val        any
	expires    time.Time
	prev, next *entry
}

// flight is one in-progress computation; waiters block on done and share
// the result.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	if cfg.Capacity < 1 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Cache{
		entries:  make(map[string]*entry),
		inflight: make(map[string]*flight),
		capacity: cfg.Capacity,
		ttl:      cfg.TTL,
		clock:    cfg.Clock,
	}
}

// observe folds a newly seen generation into the cache: everything stored
// under older generations is unreachable (lookups always carry the
// current generation label), so the cache discards its entry map and
// recency list wholesale — O(1) in the entry count modulo GC. Callers
// hold c.mu.
func (c *Cache) observe(gen uint64) {
	if gen <= c.gen {
		return
	}
	c.gen = gen
	if n := len(c.entries); n > 0 {
		c.invalidations.Add(uint64(n))
		c.entries = make(map[string]*entry)
		c.head, c.tail = nil, nil
	}
}

// appendGenKey renders the generation-labeled cache key into dst. Do
// builds the key in a stack buffer and probes the maps via the alloc-free
// map[string(bytes)] form, materializing a retained string only when a
// flight is registered.
func appendGenKey(dst []byte, key string, gen uint64) []byte {
	dst = append(dst, key...)
	dst = append(dst, '@')
	return strconv.AppendUint(dst, gen, 10)
}

// Do returns the cached answer for key at generation gen, computing it at
// most once across concurrent callers on a miss. immutable marks answers
// derived only from sealed state (no TTL). cached reports whether the
// caller was served without running compute: a fresh entry, or a
// collapsed concurrent flight that succeeded. Errors are never cached.
//
// Entries and in-flight computations are stored under (key, gen), not key
// alone: a request still holding a pre-seal generation can neither evict
// the current generation's entry nor join (or be joined by) a flight from
// a different generation — it recomputes under its own label, and the
// store of its soon-unreachable answer is refused outright.
func (c *Cache) Do(key string, gen uint64, immutable bool, compute func() (any, error)) (val any, cached bool, err error) {
	var kbuf [64]byte
	kb := appendGenKey(kbuf[:0], key, gen)

	c.mu.Lock()
	c.observe(gen)
	if e, ok := c.entries[string(kb)]; ok {
		if e.expires.IsZero() || e.expires.After(c.clock()) {
			c.hits.Inc()
			c.unlink(e)
			c.pushHead(e)
			val := e.val
			c.mu.Unlock()
			return val, true, nil
		}
		c.drop(e)
	}
	if f, ok := c.inflight[string(kb)]; ok {
		c.coalesced.Inc()
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			// A waiter that receives an error was NOT served by the
			// cache; counting it as a hit would let failed computes
			// inflate the hit rate.
			c.coalescedErrors.Inc()
			return f.val, false, f.err
		}
		c.hits.Inc()
		return f.val, true, nil
	}
	genKey := string(kb) // miss path: the flight and entry retain the key
	f := &flight{done: make(chan struct{})}
	c.inflight[genKey] = f
	c.misses.Inc()
	c.mu.Unlock()

	f.val, f.err = compute()
	close(f.done)
	c.settle(genKey, gen, immutable, f)
	return f.val, false, f.err
}

// settle removes a resolved flight and stores a successful value at the
// head of the recency list, evicting from the tail past capacity. Stores
// are refused when the cache has moved past gen: a stale-generation answer
// is unreachable from the moment it lands, and letting it in would only
// squat capacity.
func (c *Cache) settle(genKey string, gen uint64, immutable bool, f *flight) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.inflight, genKey)
	if f.err != nil || gen != c.gen {
		return
	}
	// No entry exists under genKey: a flight is registered only on a miss,
	// and it is its key's only flight until it settles here.
	e := &entry{key: genKey, val: f.val}
	if !immutable {
		e.expires = c.clock().Add(c.ttl)
	}
	c.entries[genKey] = e
	c.pushHead(e)
	for len(c.entries) > c.capacity {
		c.drop(c.tail)
		c.evictions.Inc()
	}
}

// pushHead links e as the most recently used entry. Callers hold c.mu.
func (c *Cache) pushHead(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	} else {
		c.tail = e
	}
	c.head = e
}

// unlink removes e from the recency list. Callers hold c.mu.
func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// drop removes one entry from the list and the map. Callers hold c.mu.
func (c *Cache) drop(e *entry) {
	c.unlink(e)
	delete(c.entries, e.key)
}

// Stats is a point-in-time counter snapshot for /v1/status. HitRate folds
// collapsed concurrent flights into hits: every request that was served a
// valid answer without running the backend query itself was served by
// the cache layer. The first eight fields keep the exact JSON shape of the
// original queryd cache.
type Stats struct {
	Entries       int     `json:"entries"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Coalesced     uint64  `json:"coalesced"`
	Evictions     uint64  `json:"evictions"`
	Invalidations uint64  `json:"invalidations"`
	Generation    uint64  `json:"generation"`
	HitRate       float64 `json:"hit_rate"`

	CoalescedErrors uint64 `json:"coalesced_errors,omitempty"`
}

// Stats returns the current cache counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:            c.hits.Value(),
		Misses:          c.misses.Value(),
		Coalesced:       c.coalesced.Value(),
		Evictions:       c.evictions.Value(),
		Invalidations:   c.invalidations.Value(),
		CoalescedErrors: c.coalescedErrors.Value(),
	}
	c.mu.Lock()
	st.Entries = len(c.entries)
	st.Generation = c.gen
	c.mu.Unlock()
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}

// RegisterMetrics exposes the cache's instruments on reg under
// prefix_* (e.g. prefix "queryd_cache" yields queryd_cache_hits_total).
// Counters are the same words Stats reads; entries and the observed
// generation are sampled at scrape time under a brief mutex hold.
func (c *Cache) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.RegisterCounter(prefix+"_hits_total", "Requests served from the cache (including coalesced flights).", nil, &c.hits)
	reg.RegisterCounter(prefix+"_misses_total", "Requests that ran the backend query.", nil, &c.misses)
	reg.RegisterCounter(prefix+"_coalesced_total", "Requests collapsed onto an in-flight identical computation.", nil, &c.coalesced)
	reg.RegisterCounter(prefix+"_coalesced_errors_total", "Coalesced waiters whose shared flight resolved to an error.", nil, &c.coalescedErrors)
	reg.RegisterCounter(prefix+"_evictions_total", "Least recently used entries evicted at capacity.", nil, &c.evictions)
	reg.RegisterCounter(prefix+"_invalidations_total", "Entries dropped by generation advances.", nil, &c.invalidations)
	reg.GaugeFunc(prefix+"_entries", "Entries currently cached.", nil, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.entries))
	})
	reg.GaugeFunc(prefix+"_generation", "Highest sealed-set generation the cache has observed.", nil, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.gen)
	})
}
