// Package rcache is the serving plane's result cache: a sharded,
// policy-pluggable, epoch-aware cache with singleflight collapsing,
// and stale-while-revalidate for TTL'd answers.
//
// Entries are keyed by (query, sealed-set generation) and live in one of N
// power-of-two shards, each with its own mutex, entry map, inflight map,
// and eviction/admission policy instance — the hash of the base query key
// picks the shard, so all generations of a key contend on the same lock
// and concurrent load on distinct keys mostly does not contend at all.
//
// Two freshness regimes coexist, exactly as in the original queryd cache:
//
//   - Immutable entries (epochal backends): an answer derived only from
//     sealed windows cannot change while the generation holds, so it
//     caches with no TTL. When a new window seals the generation advances
//     and the shard discards its entire entry map in O(1) — no list walk
//     under the lock (the old cache swept every entry on each seal).
//   - TTL entries (live, cumulative backends): the answer drifts with
//     every ingested batch, so it expires after a short TTL. With
//     stale-while-revalidate enabled, an expired entry still inside the
//     SWR window is served immediately while ONE background flight
//     recomputes it — staleness costs freshness, never soundness, because
//     the certified interval remains correct for the state it was
//     computed from.
package rcache

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Default sizing applied by New when Config leaves fields zero.
const (
	// DefaultCapacity is the total entry budget across all shards.
	DefaultCapacity = 4096
	// DefaultShards balances lock spreading against per-shard policy
	// overhead; at the default capacity each shard holds 512 entries.
	DefaultShards = 8
	// DefaultTTL bounds staleness for live (non-epochal) answers.
	DefaultTTL = 250 * time.Millisecond
)

// Config sizes and parameterizes a Cache. The zero value is usable: an
// LRU cache of DefaultCapacity entries across DefaultShards shards with
// DefaultTTL freshness and no SWR.
type Config struct {
	// Capacity is the total entry budget, split evenly across shards.
	// Values below 1 mean DefaultCapacity.
	Capacity int
	// Shards is the shard count, rounded up to a power of two. Zero means
	// DefaultShards; 1 disables sharding (useful in tests that assert
	// exact eviction order).
	Shards int
	// Policy names the eviction/admission policy: PolicyLRU (default),
	// PolicyS3FIFO, or PolicyTinyLFU.
	Policy string
	// TTL bounds staleness of mutable entries. Values ≤ 0 mean
	// DefaultTTL.
	TTL time.Duration
	// SWR is the stale-while-revalidate window appended after TTL expiry:
	// an entry expired less than SWR ago is served immediately while a
	// single background flight refreshes it. Zero disables SWR.
	SWR time.Duration
	// Clock overrides wall time (tests).
	Clock func() time.Time
}

// Cache is the sharded result cache. All exported methods are safe for
// concurrent use.
type Cache struct {
	shards []*shard
	mask   uint64

	policy   string
	capacity int
	ttl      time.Duration
	swr      time.Duration
	clock    func() time.Time

	// Counters are telemetry instruments (single atomic words) so the
	// cache's JSON stats and its Prometheus series read the same source of
	// truth. Increments happen under a shard mutex; the atomic
	// representation buys lock-free scrapes and cross-shard aggregation.
	hits             telemetry.Counter
	misses           telemetry.Counter
	coalesced        telemetry.Counter
	coalescedErrors  telemetry.Counter
	evictions        telemetry.Counter
	invalidations    telemetry.Counter
	ghostHits        telemetry.Counter
	admissionRejects telemetry.Counter
	staleServed      telemetry.Counter
}

// shard is one lock domain: a map of generation-labeled entries, the
// inflight computations for its keys, and a private policy instance.
type shard struct {
	mu       sync.Mutex
	gen      uint64 // highest generation observed by this shard
	entries  map[string]*entry
	inflight map[string]*flight
	pol      policy
}

// entry is one stored answer, intrusively linked into its shard's policy
// queues. A zero expires means immutable: valid while its generation
// holds.
type entry struct {
	key  string // generation-labeled: base + "@" + gen
	hash uint64 // hash of the BASE key, shared by the policy sketches
	val  any

	expires  time.Time // zero: immutable
	swrUntil time.Time // end of the stale-while-revalidate window
	// revalidating marks that a background refresh flight has been
	// claimed for this stale entry, so concurrent stale hits do not pile
	// on redundant recomputes.
	revalidating bool

	// Intrusive policy state: linkage, queue tag, and the S3-FIFO access
	// counter. Owned by the shard's policy under the shard mutex.
	prev, next *entry
	where      int8
	freq       uint8
}

// flight is one in-progress computation; waiters block on done and share
// the result.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// New builds a cache from cfg. Unknown policy names fall back to LRU —
// callers that need strictness validate with ParsePolicy first.
func New(cfg Config) *Cache {
	if cfg.Capacity < 1 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Shards < 1 {
		cfg.Shards = DefaultShards
	}
	nshards := 1
	for nshards < cfg.Shards {
		nshards <<= 1
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	pol, err := ParsePolicy(cfg.Policy)
	if err != nil {
		pol = PolicyLRU
	}
	c := &Cache{
		shards:   make([]*shard, nshards),
		mask:     uint64(nshards - 1),
		policy:   pol,
		capacity: cfg.Capacity,
		ttl:      cfg.TTL,
		swr:      cfg.SWR,
		clock:    cfg.Clock,
	}
	perShard := cfg.Capacity / nshards
	if perShard < 1 {
		perShard = 1
	}
	for i := range c.shards {
		sh := &shard{
			entries:  make(map[string]*entry),
			inflight: make(map[string]*flight),
		}
		sh.pol = newPolicy(pol, perShard, c, func(e *entry) {
			c.evictions.Inc()
			delete(sh.entries, e.key)
		})
		c.shards[i] = sh
	}
	return c
}

// hashKey is inline FNV-1a 64 over the base key: good dispersion for the
// short structured query keys this cache sees, zero allocations, and no
// seed state to thread around.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// shardFor picks the shard by the BASE key, not the generation-labeled
// one, so all generations of a key live behind the same lock and a
// generation advance settles per shard exactly once.
func (c *Cache) shardFor(h uint64) *shard { return c.shards[h&c.mask] }

// observe folds a newly seen generation into the shard: everything stored
// under older generations is unreachable (lookups always carry the
// current generation label), so the shard discards its entry map and
// policy state wholesale — O(1) in the entry count modulo GC, where the
// old cache walked its whole LRU list under the global lock on every
// seal. Callers hold sh.mu.
func (c *Cache) observe(sh *shard, gen uint64) {
	if gen <= sh.gen {
		return
	}
	sh.gen = gen
	if n := len(sh.entries); n > 0 {
		c.invalidations.Add(uint64(n))
		sh.entries = make(map[string]*entry)
		sh.pol.reset()
	}
}

// appendGenKey renders the generation-labeled cache key into dst. Hot
// paths build the key in a stack buffer and probe maps via the
// alloc-free map[string(bytes)] form, materializing a retained string
// only when an entry or flight is actually registered.
func appendGenKey(dst []byte, key string, gen uint64) []byte {
	dst = append(dst, key...)
	dst = append(dst, '@')
	return strconv.AppendUint(dst, gen, 10)
}

// Do returns the cached answer for key at generation gen, computing it at
// most once across concurrent callers on a miss. immutable marks answers
// derived only from sealed state (no TTL). cached reports whether the
// caller was served without running compute — a fresh entry, a stale
// entry inside the SWR window, or a collapsed concurrent flight that
// succeeded.
//
// Entries and in-flight computations are stored under (key, gen), not key
// alone: a request still holding a pre-seal generation can neither evict
// the current generation's entry nor join (or be joined by) a flight from
// a different generation — it recomputes under its own label, and the
// store of its soon-unreachable answer is refused outright.
func (c *Cache) Do(key string, gen uint64, immutable bool, compute func() (any, error)) (val any, cached bool, err error) {
	var kbuf [64]byte
	kb := appendGenKey(kbuf[:0], key, gen)
	h := hashKey(key)
	sh := c.shardFor(h)

	sh.mu.Lock()
	c.observe(sh, gen)
	if e, ok := sh.entries[string(kb)]; ok {
		now := c.clock()
		switch {
		case e.expires.IsZero() || e.expires.After(now):
			c.hits.Inc()
			sh.pol.touch(e)
			val := e.val
			sh.mu.Unlock()
			return val, true, nil
		case e.swrUntil.After(now):
			// Expired but inside the SWR window: serve stale now, refresh
			// in the background at most once. The background flight lives
			// in the inflight map, so a caller arriving after the entry
			// ages out entirely joins it instead of recomputing.
			c.hits.Inc()
			c.staleServed.Inc()
			sh.pol.touch(e)
			// e.key IS the generation-labeled key, already retained — no
			// new string even when claiming the refresh flight.
			if !e.revalidating && sh.inflight[e.key] == nil {
				e.revalidating = true
				f := &flight{done: make(chan struct{})}
				sh.inflight[e.key] = f
				go c.runFlight(sh, e.key, h, gen, immutable, f, compute)
			}
			val := e.val
			sh.mu.Unlock()
			return val, true, nil
		default:
			sh.drop(e)
		}
	}
	if f, ok := sh.inflight[string(kb)]; ok {
		c.coalesced.Inc()
		sh.mu.Unlock()
		<-f.done
		if f.err != nil {
			// A waiter that receives an error was NOT served by the
			// cache; counting it as a hit would let failed computes
			// inflate the hit rate (the old cache's accounting bug).
			c.coalescedErrors.Inc()
			return f.val, false, f.err
		}
		c.hits.Inc()
		return f.val, true, f.err
	}
	genKey := string(kb) // miss path: the flight and entry retain the key
	f := &flight{done: make(chan struct{})}
	sh.inflight[genKey] = f
	c.misses.Inc()
	sh.mu.Unlock()

	f.val, f.err = compute()
	close(f.done)
	c.settle(sh, genKey, h, gen, immutable, f)
	return f.val, false, f.err
}

// runFlight is the background half of stale-while-revalidate: compute,
// publish to waiters, settle into the shard.
func (c *Cache) runFlight(sh *shard, genKey string, h, gen uint64, immutable bool, f *flight, compute func() (any, error)) {
	f.val, f.err = compute()
	close(f.done)
	c.settle(sh, genKey, h, gen, immutable, f)
}

// settle removes a resolved flight and stores its outcome: a successful
// value is stored, an error clears the claim so a later stale hit may
// retry. Stores are
// refused when the shard has moved past gen — a stale-generation answer
// is unreachable from the moment it lands, and letting it in would only
// squat capacity.
func (c *Cache) settle(sh *shard, genKey string, h, gen uint64, immutable bool, f *flight) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.inflight, genKey)
	if gen != sh.gen {
		return
	}
	if f.err == nil {
		c.store(sh, genKey, h, f.val, immutable)
		return
	}
	// Failure: if this was a revalidation flight the stale entry is still
	// present — release the claim so the next stale hit can try again.
	if e, ok := sh.entries[genKey]; ok {
		e.revalidating = false
	}
}

// store replaces any existing entry under genKey and offers the new one
// to the policy. The entry enters the map BEFORE the policy sees it: an
// admission-controlled policy may evict the candidate itself, and the
// eviction callback unconditionally deletes by key. Callers hold sh.mu.
func (c *Cache) store(sh *shard, genKey string, h uint64, val any, immutable bool) {
	if old, ok := sh.entries[genKey]; ok {
		sh.pol.remove(old)
		delete(sh.entries, genKey)
	}
	e := &entry{key: genKey, hash: h, val: val}
	if !immutable {
		e.expires = c.clock().Add(c.ttl)
		if c.swr > 0 {
			e.swrUntil = e.expires.Add(c.swr)
		}
	}
	sh.entries[genKey] = e
	sh.pol.add(e)
}

// drop removes one entry without counting an eviction (expiry,
// supersession). Callers hold sh.mu.
func (sh *shard) drop(e *entry) {
	sh.pol.remove(e)
	delete(sh.entries, e.key)
}

// Stats is a point-in-time counter snapshot for /v1/status and the serve
// experiment. HitRate folds collapsed concurrent flights into hits: every
// request that was served a valid answer without running the backend
// query itself was served by the cache layer. The first eight fields keep
// the exact JSON shape of the original queryd cache; the policy-specific
// fields are omitted when zero so LRU deployments see an unchanged
// surface.
type Stats struct {
	Entries       int     `json:"entries"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Coalesced     uint64  `json:"coalesced"`
	Evictions     uint64  `json:"evictions"`
	Invalidations uint64  `json:"invalidations"`
	Generation    uint64  `json:"generation"`
	HitRate       float64 `json:"hit_rate"`

	Policy           string `json:"policy,omitempty"`
	Shards           int    `json:"shards,omitempty"`
	CoalescedErrors  uint64 `json:"coalesced_errors,omitempty"`
	GhostHits        uint64 `json:"ghost_hits,omitempty"`
	AdmissionRejects uint64 `json:"admission_rejects,omitempty"`
	StaleServed      uint64 `json:"stale_served,omitempty"`
}

// Stats returns current cache counters, aggregated across shards.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:             c.hits.Value(),
		Misses:           c.misses.Value(),
		Coalesced:        c.coalesced.Value(),
		Evictions:        c.evictions.Value(),
		Invalidations:    c.invalidations.Value(),
		Policy:           c.policy,
		Shards:           len(c.shards),
		CoalescedErrors:  c.coalescedErrors.Value(),
		GhostHits:        c.ghostHits.Value(),
		AdmissionRejects: c.admissionRejects.Value(),
		StaleServed:      c.staleServed.Value(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st.Entries += len(sh.entries)
		if sh.gen > st.Generation {
			st.Generation = sh.gen
		}
		sh.mu.Unlock()
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}

// Policy returns the canonical name of the active eviction policy.
func (c *Cache) Policy() string { return c.policy }

// RegisterMetrics exposes the cache's instruments on reg under
// prefix_* (e.g. prefix "queryd_cache" yields queryd_cache_hits_total).
// Counters are the same words Stats reads; entries and the observed
// generation are sampled at scrape time under brief per-shard mutex
// holds, with a per-shard entries breakdown for spotting hash skew.
func (c *Cache) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.RegisterCounter(prefix+"_hits_total", "Requests served from the cache (including coalesced flights).", nil, &c.hits)
	reg.RegisterCounter(prefix+"_misses_total", "Requests that ran the backend query.", nil, &c.misses)
	reg.RegisterCounter(prefix+"_coalesced_total", "Requests collapsed onto an in-flight identical computation.", nil, &c.coalesced)
	reg.RegisterCounter(prefix+"_coalesced_errors_total", "Coalesced waiters whose shared flight resolved to an error.", nil, &c.coalescedErrors)
	reg.RegisterCounter(prefix+"_evictions_total", "Entries evicted by the cache policy.", nil, &c.evictions)
	reg.RegisterCounter(prefix+"_invalidations_total", "Entries dropped by generation advances.", nil, &c.invalidations)
	reg.RegisterCounter(prefix+"_ghost_hits_total", "Keys readmitted via the S3-FIFO ghost queue.", nil, &c.ghostHits)
	reg.RegisterCounter(prefix+"_admission_rejects_total", "Candidates denied admission by the TinyLFU frequency filter.", nil, &c.admissionRejects)
	reg.RegisterCounter(prefix+"_stale_served_total", "Expired entries served inside the stale-while-revalidate window.", nil, &c.staleServed)
	reg.GaugeFunc(prefix+"_entries", "Entries currently cached.", nil, func() float64 {
		n := 0
		for _, sh := range c.shards {
			sh.mu.Lock()
			n += len(sh.entries)
			sh.mu.Unlock()
		}
		return float64(n)
	})
	reg.GaugeFunc(prefix+"_generation", "Highest sealed-set generation the cache has observed.", nil, func() float64 {
		var g uint64
		for _, sh := range c.shards {
			sh.mu.Lock()
			if sh.gen > g {
				g = sh.gen
			}
			sh.mu.Unlock()
		}
		return float64(g)
	})
	reg.CollectFunc(prefix+"_shard_entries", "Entries per cache shard.", telemetry.TypeGauge, func(emit telemetry.Emit) {
		for i, sh := range c.shards {
			sh.mu.Lock()
			n := len(sh.entries)
			sh.mu.Unlock()
			emit(telemetry.Labels{"shard": strconv.Itoa(i)}, float64(n))
		}
	})
}
