// Package epoch provides time-windowed measurement on top of any sketch:
// the standard deployment pattern where the data plane measures in fixed
// epochs (say, 10s windows), the control plane reads sealed windows, and
// the structure rotates without missing traffic.
//
// Ring keeps one active (accumulating) sketch and up to Capacity sealed
// ones, newest first. Sealed windows are immutable and published through an
// atomic pointer swap, so queries against them never contend with ingest:
// a reader loads the current sealed set and walks sketches no writer will
// ever touch again. Sliding-window queries merge the last n sealed epochs
// into one view (cached per sealed set, so the merge cost is paid once per
// rotation, not per query) when the sketch supports sketch.Mergeable, and
// fall back to summing per-epoch estimates otherwise.
//
// Every window is built by insertion only. Writers either insert and rotate
// in one step (Insert, InsertBatch) or land batches from an ingest
// pipeline without rotating (InsertBatchAt): a pipeline worker may apply a
// batch after its epoch elapsed, and the batch still belongs to the window
// that was active when it was accepted. Rotation then follows either a
// drain of the attached pipelines (AttachFlusher) or a batch tagged with a
// later epoch.
package epoch

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Clock abstracts time for tests.
type Clock func() time.Time

// DefaultCapacity is the sealed-window retention when NewRing is given a
// non-positive capacity: enough look-back for sliding-window queries
// without hoarding memory.
const DefaultCapacity = 8

// Ring wraps a sketch factory with epoch-based rotation and a bounded
// history of sealed windows. It is safe for concurrent use: ingest
// serializes on an internal mutex, sealed-window queries are lock-free.
type Ring struct {
	factory  sketch.Factory
	memBytes int
	interval time.Duration
	capacity int
	clock    Clock

	// origin is the ring's creation time: epoch k (1-based, see Epoch)
	// spans [origin+(k-1)·interval, origin+k·interval).
	origin time.Time

	// mu guards the active window and rotation bookkeeping. Sealed-window
	// queries never take it.
	mu      sync.Mutex
	active  sketch.Sketch
	started time.Time

	// startedNanos mirrors started (unix nanos) so read paths can check
	// rotation dueness without taking mu.
	startedNanos atomic.Int64

	// flushers are ingest-pipeline drain hooks (AttachFlusher) run from
	// read paths when rotation is overdue, BEFORE the seal: pending batches
	// submitted in the closing epoch land in it, so sealed windows stay
	// exact under async ingest. hasFlushers gates the check off the hot
	// path; drainMu serializes concurrent readers — a late reader WAITS for
	// the in-flight drain rather than skipping it, since sealing while
	// another reader's drain is still landing batches would strand acked
	// batches in the next window.
	flushMu     sync.Mutex
	flushers    []func()
	hasFlushers atomic.Bool
	drainMu     sync.Mutex

	// drainedFor records which epoch start (startedNanos value) the last
	// completed drain covered. With flushers attached, maybeRotate refuses
	// to seal until a drain has completed for the CURRENT epoch start —
	// closing the race where a reader checks overdue() just before the
	// boundary, skips the drain, and would otherwise strand undrained
	// pre-boundary batches in the next window.
	drainedFor atomic.Int64

	// sealed is the immutable published history; every rotation installs a
	// fresh sealedSet, so readers holding the old one keep a consistent view.
	sealed atomic.Pointer[sealedSet]
}

// sealedSet is one immutable generation of sealed windows, newest first.
// The windows themselves are never written after publication; the merged
// cache is the only mutable state and carries its own lock.
type sealedSet struct {
	windows   []sketch.Sketch
	rotations uint64

	// mergedMu guards merged, the lazily built sliding-window views keyed
	// by [from, to] sealed-window index ranges. The cache dies with its
	// sealedSet, which is exactly the required invalidation-on-rotation.
	mergedMu sync.Mutex
	merged   map[[2]int]sketch.Sketch
}

// NewRing builds a ring producing a fresh sketch every interval and
// retaining up to capacity sealed windows (DefaultCapacity when ≤ 0).
func NewRing(f sketch.Factory, memBytes int, interval time.Duration, capacity int, clock Clock) *Ring {
	if clock == nil {
		clock = time.Now
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Ring{
		factory:  f,
		memBytes: memBytes,
		interval: interval,
		capacity: capacity,
		clock:    clock,
	}
	r.active = f.New(memBytes)
	r.started = clock()
	r.origin = r.started
	r.startedNanos.Store(r.started.UnixNano())
	// Deliberately not equal to startedNanos: the first epoch of a
	// pipelined ring must be drained before it can seal, like every other.
	r.drainedFor.Store(r.started.UnixNano() - 1)
	r.sealed.Store(&sealedSet{})
	return r
}

// Capacity returns the maximum number of retained sealed windows.
func (r *Ring) Capacity() int { return r.capacity }

// Interval returns the epoch length.
func (r *Ring) Interval() time.Duration { return r.interval }

// maybeRotate seals elapsed epochs. Callers hold r.mu. An idle gap yields
// empty sealed windows — the sliding window genuinely slides — but at most
// capacity+1 sketches are materialized per gap, since any older ones would
// immediately fall off the ring. A ring with attached flushers only seals
// after a drain completed for the current epoch start, so queued batches
// holding pre-boundary traffic can never be stranded behind a seal.
func (r *Ring) maybeRotate() {
	now := r.clock()
	gap := now.Sub(r.started)
	if gap < r.interval {
		return
	}
	if r.hasFlushers.Load() && r.drainedFor.Load() != r.startedNanos.Load() {
		// Overdue but not yet drained (a reader raced the boundary): leave
		// the window active; the next poke drains and then seals.
		return
	}
	r.advance(int(gap / r.interval))
}

// advance seals the active window and moves the active epoch forward by
// elapsed epochs, materializing at most capacity+1 windows. Callers hold
// r.mu.
func (r *Ring) advance(elapsed int) {
	for i := 0; i < min(elapsed, r.capacity+1); i++ {
		r.seal()
	}
	r.started = r.started.Add(r.interval * time.Duration(elapsed))
	r.startedNanos.Store(r.started.UnixNano())
}

// seal publishes the active window as the newest sealed one and installs a
// fresh active. Callers hold r.mu.
func (r *Ring) seal() {
	old := r.sealed.Load()
	keep := len(old.windows)
	if keep >= r.capacity {
		keep = r.capacity - 1
	}
	windows := make([]sketch.Sketch, 0, keep+1)
	windows = append(windows, r.active)
	windows = append(windows, old.windows[:keep]...)
	r.sealed.Store(&sealedSet{windows: windows, rotations: old.rotations + 1})
	r.active = r.factory.New(r.memBytes)
}

// poke opportunistically seals overdue epochs from the read path without
// ever blocking on ingest: if a writer holds the lock, it will rotate
// itself, and the reader proceeds against the current sealed set. With
// attached flushers, an overdue rotation first drains the ingest pipelines
// (no lock held — their lands need mu), so the closing epoch seals with
// every batch submitted to it.
func (r *Ring) poke() {
	if r.hasFlushers.Load() && r.overdue() {
		r.drainFlushers()
	}
	if r.mu.TryLock() {
		r.maybeRotate()
		r.mu.Unlock()
	}
}

// overdue reports (lock-free, from the mirrored start time) whether the
// active epoch has elapsed.
func (r *Ring) overdue() bool {
	return r.clock().Sub(time.Unix(0, r.startedNanos.Load())) >= r.interval
}

// drainFlushers runs every attached flusher. Concurrent readers serialize
// on drainMu: each returns only once some complete drain finished after its
// call began, so no caller can proceed to seal while another caller's drain
// is still landing pre-boundary batches. Never called with mu held:
// flushers block on pipeline lands, which take mu through InsertBatchAt.
func (r *Ring) drainFlushers() {
	r.drainMu.Lock()
	defer r.drainMu.Unlock()
	// Capture the epoch start the drain covers BEFORE draining: if a seal
	// sneaks in mid-drain (it cannot, seals require drainedFor to match,
	// but belt and suspenders), the stale stamp keeps the gate closed.
	covers := r.startedNanos.Load()
	r.flushMu.Lock()
	fs := make([]func(), len(r.flushers))
	copy(fs, r.flushers)
	r.flushMu.Unlock()
	for _, f := range fs {
		f()
	}
	r.drainedFor.Store(covers)
}

// AttachFlusher registers an ingest-pipeline drain hook (typically
// Pipeline.Drain via ForRing). Read paths call it before sealing an overdue
// epoch, which is what keeps sealed windows exact when the ring is fed
// through pipelines: every batch submitted before the epoch boundary lands
// in the window that was active when it was submitted. A ring fed through
// pipelines should be written only through them — direct Insert/InsertBatch
// calls rotate without draining and can strand queued batches in the next
// window.
func (r *Ring) AttachFlusher(f func()) {
	r.flushMu.Lock()
	r.flushers = append(r.flushers, f)
	r.flushMu.Unlock()
	r.hasFlushers.Store(true)
}

// Epoch returns the sequence number (1-based) of the epoch the ring's clock
// is in now — the tag a producer stamps on a batch when it accepts it, so a
// pipeline worker applying the batch later can still land it in that
// epoch's window (InsertBatchAt). Lock-free; never rotates.
func (r *Ring) Epoch() uint64 {
	return r.epochAt(r.clock())
}

// epochAt maps a time to its 1-based epoch sequence number.
func (r *Ring) epochAt(t time.Time) uint64 {
	d := t.Sub(r.origin)
	if d < 0 {
		d = 0
	}
	return uint64(d/r.interval) + 1
}

// InsertBatchAt lands items as a batch accepted in epoch e (an Epoch tag).
// While e still names the active window — even after its interval has
// elapsed — the items land there without rotating: a batch accepted before
// a boundary stays in its epoch however late a worker applies it. A later
// tag first rotates exactly up to epoch e (not to wherever the clock is
// now), so a batch accepted after a boundary is what seals the closing
// window, and batches queued behind it still find their own. An earlier
// tag (its epoch already sealed) lands in the active window. Tag 0 lands in
// the active window without rotating; it is the path of pipelines attached
// with ForRing, whose rotation follows a drain.
func (r *Ring) InsertBatchAt(e uint64, items []stream.Item) {
	r.mu.Lock()
	if active := r.epochAt(r.started); e > active {
		r.advance(int(e - active))
	}
	sketch.InsertBatch(r.active, items)
	r.mu.Unlock()
}

// Insert adds value to key in the current epoch.
func (r *Ring) Insert(key, value uint64) {
	r.mu.Lock()
	r.maybeRotate()
	r.active.Insert(key, value)
	r.mu.Unlock()
}

// InsertBatch bulk-ingests into the current epoch through the sketch's
// native batch path. The whole batch lands in one epoch: rotation happens
// on the boundary before it, matching how a drained NIC ring or network
// frame is accounted to the window that receives it.
func (r *Ring) InsertBatch(items []stream.Item) {
	r.mu.Lock()
	r.maybeRotate()
	sketch.InsertBatch(r.active, items)
	r.mu.Unlock()
}

// Query reads the most recent sealed epoch — what operators act on.
// Returns 0 before the first rotation. Lock-free with respect to ingest.
func (r *Ring) Query(key uint64) uint64 {
	r.poke()
	ss := r.sealed.Load()
	if len(ss.windows) == 0 {
		return 0
	}
	return ss.windows[0].Query(key)
}

// QueryLive reads the active (accumulating) window. It takes the ingest
// lock: the live window is by definition under mutation.
func (r *Ring) QueryLive(key uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maybeRotate()
	return r.active.Query(key)
}

// QuerySealedWithError reads the newest sealed window's certified interval
// when the underlying sketch supports it; ok is false otherwise or before
// the first rotation. Lock-free with respect to ingest.
func (r *Ring) QuerySealedWithError(key uint64) (est, mpe uint64, ok bool) {
	r.poke()
	ss := r.sealed.Load()
	if len(ss.windows) == 0 {
		return 0, 0, false
	}
	eb, good := ss.windows[0].(sketch.ErrorBounded)
	if !good {
		return 0, 0, false
	}
	est, mpe = eb.QueryWithError(key)
	return est, mpe, true
}

// QueryWindow answers a sliding-window query: the estimated value sum of
// key over the last n sealed epochs (clamped to what the ring retains).
// With a Mergeable sketch the answer comes from one merged view; otherwise
// per-epoch estimates are summed, which preserves upper-bound semantics
// for overestimating sketches but compounds their error.
func (r *Ring) QueryWindow(key uint64, n int) uint64 {
	return r.QueryRange(key, 0, n-1)
}

// QueryRange answers over sealed epochs from..to inclusive, indexed newest
// first (0 = most recent sealed). Indices beyond the retained history are
// clamped; an empty range returns 0. A thin shim over the batch read core
// (rangeBatch), so single-key and batch answers cannot diverge.
func (r *Ring) QueryRange(key uint64, from, to int) uint64 {
	r.poke()
	ss := r.sealed.Load()
	from, to, ok := clampRange(from, to, len(ss.windows))
	if !ok {
		return 0
	}
	keys := [1]uint64{key}
	var est [1]uint64
	r.rangeBatch(ss, from, to, keys[:], est[:], nil)
	return est[0]
}

// QueryWindowWithError answers a sliding-window query with a certified
// interval over the last n sealed epochs: truth ∈ [est−mpe, est]. The
// merged view certifies directly; without Mergeable support, per-epoch
// certified intervals are summed (sound composition, as in netsum). ok is
// false when no sealed window exists or the sketch cannot certify. A thin
// shim over the batch read core (rangeBatch).
func (r *Ring) QueryWindowWithError(key uint64, n int) (est, mpe uint64, ok bool) {
	r.poke()
	ss := r.sealed.Load()
	from, to, rangeOK := clampRange(0, n-1, len(ss.windows))
	if !rangeOK {
		return 0, 0, false
	}
	keys := [1]uint64{key}
	var e, m [1]uint64
	if !r.rangeBatch(ss, from, to, keys[:], e[:], m[:]) {
		return 0, 0, false
	}
	return e[0], m[0], true
}

// clampRange normalizes a newest-first epoch range against the retained
// window count.
func clampRange(from, to, have int) (int, int, bool) {
	if from < 0 {
		from = 0
	}
	if to >= have {
		to = have - 1
	}
	if have == 0 || from > to {
		return 0, 0, false
	}
	return from, to, true
}

// mergedView returns the cached merge of sealed windows from..to, building
// it on first use. A single-window range needs no merge. Returns nil when
// the sketch does not support merging (or a merge fails), in which case
// callers fall back to summing.
func (r *Ring) mergedView(ss *sealedSet, from, to int) sketch.Sketch {
	if from == to {
		return ss.windows[from]
	}
	if _, ok := ss.windows[from].(sketch.Mergeable); !ok {
		// Probe a sealed window before allocating: a non-Mergeable factory
		// would otherwise pay a full sketch allocation per query only to
		// discard it and fall back to summing.
		return nil
	}
	key := [2]int{from, to}
	ss.mergedMu.Lock()
	defer ss.mergedMu.Unlock()
	if m, ok := ss.merged[key]; ok {
		return m // nil for a range whose merge failed: fall back to summing
	}
	if ss.merged == nil {
		ss.merged = make(map[[2]int]sketch.Sketch)
	}
	view := r.factory.New(r.memBytes)
	mg, ok := view.(sketch.Mergeable)
	if !ok {
		ss.merged[key] = nil
		return nil
	}
	for i := from; i <= to; i++ {
		if err := mg.Merge(ss.windows[i]); err != nil {
			// Cache the failure so later queries for this range don't
			// re-allocate and re-merge just to fall back again.
			ss.merged[key] = nil
			return nil
		}
	}
	ss.merged[key] = view
	return view
}

// Generation returns the sealed-set generation: a counter that increments
// exactly when a window seals, and never otherwise. Any answer derived only
// from sealed windows (Query, QueryWindow, QueryRange, TrackedWindow, and
// their WithError forms) is immutable for a fixed generation — the
// invalidation contract result caches key on. Overdue epochs are sealed
// opportunistically before reading, so a reader polling Generation observes
// rotations even on an otherwise idle ring.
func (r *Ring) Generation() uint64 {
	r.poke()
	return r.sealed.Load().rotations
}

// PeekGeneration returns the already-published generation WITHOUT poking:
// no rotation is driven and no attached pipeline is drained. Write paths
// stamping Acks use it — a producer must never block on a full pipeline
// drain just to label its acknowledgement; sealing is the read paths' and
// the janitor's job.
func (r *Ring) PeekGeneration() uint64 {
	return r.sealed.Load().rotations
}

// TrackedWindow enumerates the heavy-hitter keys tracked over the last n
// sealed epochs, from the same merged view sliding-window queries use. ok
// is false when nothing is sealed yet, the sketch cannot merge a
// multi-window view, or it does not report tracked keys.
func (r *Ring) TrackedWindow(n int) ([]sketch.KV, bool) {
	r.poke()
	ss := r.sealed.Load()
	from, to, rangeOK := clampRange(0, n-1, len(ss.windows))
	if !rangeOK {
		return nil, false
	}
	view := r.mergedView(ss, from, to)
	if view == nil {
		return nil, false
	}
	hh, ok := view.(sketch.HeavyHitterReporter)
	if !ok {
		return nil, false
	}
	return hh.Tracked(), true
}

// RegisterMetrics exposes the ring's seal state on reg under the ring_*
// namespace. Every sample derives from the already-published sealed set —
// PeekGeneration semantics — so a scrape never pokes the ring, drives a
// rotation, or drains an attached pipeline. An overdue-but-unsealed epoch
// is therefore invisible to /metrics until a reader or the janitor seals
// it; that staleness is the price of a scrape that cannot perturb the
// data plane.
func (r *Ring) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("ring_seals_total", "Epoch windows sealed over the ring's life.", nil, func() float64 {
		return float64(r.sealed.Load().rotations)
	})
	reg.GaugeFunc("ring_generation", "Published sealed-set generation (no-poke read).", nil, func() float64 {
		return float64(r.sealed.Load().rotations)
	})
	reg.GaugeFunc("ring_sealed_windows", "Sealed windows currently retained.", nil, func() float64 {
		return float64(len(r.sealed.Load().windows))
	})
	reg.GaugeFunc("ring_capacity", "Sealed-window retention limit.", nil, func() float64 {
		return float64(r.capacity)
	})
	reg.GaugeFunc("ring_epoch_interval_seconds", "Epoch rotation interval.", nil, func() float64 {
		return r.interval.Seconds()
	})
}

// Sealed reports how many sealed windows the ring currently retains.
func (r *Ring) Sealed() int {
	r.poke()
	return len(r.sealed.Load().windows)
}

// Rotations reports how many epochs have been sealed in total.
func (r *Ring) Rotations() uint64 {
	r.poke()
	return r.sealed.Load().rotations
}

// MemoryBytes reports the accounted memory of the active window plus every
// retained sealed window (merged query views are caches, not accounted
// state, exactly as the paper's accounting excludes control-plane copies).
func (r *Ring) MemoryBytes() int {
	r.mu.Lock()
	total := r.active.MemoryBytes()
	r.mu.Unlock()
	for _, w := range r.sealed.Load().windows {
		total += w.MemoryBytes()
	}
	return total
}

// Name identifies the wrapped algorithm.
func (r *Ring) Name() string { return r.factory.Name + "_ring" }
