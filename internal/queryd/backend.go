// Package queryd is the query-serving subsystem: an HTTP/JSON server that
// fronts a measurement backend — a netsum.Collector aggregating many
// agents, or a standalone registry-built sketch — with the unified typed
// query plane (internal/query): batched point estimates carrying certified
// bounds, heavy-hitter top-k, and sliding-window queries, served through
// /v2/query. Top-k answers flow through an epoch-aware result cache, and
// state is made durable through checkpoint files (WriteCheckpoint) built
// on sketch.Snapshotter.
package queryd

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/epoch"
	"repro/internal/ingest"
	"repro/internal/netsum"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Status describes a backend for /v1/status.
type Status struct {
	Mode       string `json:"mode"` // "collector" or "standalone"
	Algo       string `json:"algo"`
	Epochal    bool   `json:"epochal"`
	Generation uint64 `json:"generation"`
	Agents     int    `json:"agents"`
	Updates    uint64 `json:"updates"`
	Queries    uint64 `json:"queries"`
	// Ingest reports the write pipeline's counters when the backend ingests
	// through one (absent for synchronous backends).
	Ingest *ingest.Stats `json:"ingest,omitempty"`
	// WAL reports write-ahead-log counters when durable ingest is enabled
	// (absent otherwise).
	WAL *wal.Stats `json:"wal,omitempty"`
}

// Backend is the query surface the server fronts: one typed batch executor
// plus the cache-contract metadata. Implementations must be safe for
// concurrent use — the HTTP server issues queries from many goroutines.
type Backend interface {
	// Execute answers one typed batch request under a single state
	// snapshot; /v2/query is a thin layer over it. Refusals (validation,
	// missing capabilities, unknown agents) are returned as errors.
	Execute(query.Request) (query.Answer, error)
	// Generation is the sealed-set generation answers derive from; it
	// advances exactly when a window seals and stays 0 for cumulative
	// backends.
	Generation() uint64
	// Epochal reports whether answers derive only from sealed (immutable)
	// windows — the cache's signal to skip TTLs and key on Generation.
	Epochal() bool
	// Status reports identity and counters.
	Status() Status
}

// Checkpointer is implemented by backends whose state can be checkpointed
// for a warm restart.
type Checkpointer interface {
	Checkpoint(w io.Writer) error
	// CanCheckpoint reports whether Checkpoint can possibly succeed under
	// the backend's configuration, so a server asked to persist state that
	// never will (epoch mode, merging disabled, non-Snapshottable variant)
	// refuses at startup instead of logging failures forever.
	CanCheckpoint() error
}

// Ingester is implemented by backends that accept updates over HTTP
// (standalone mode; collector backends ingest through the agent protocol).
// The Ack reports what actually happened — how many items were applied (or
// enqueued, pipelined), how many a full queue refused — so HTTP clients are
// never told 200 while their items silently vanish.
type Ingester interface {
	Ingest(b ingest.Batch) ingest.Ack
}

// CollectorBackend fronts a netsum.Collector: global answers composed
// across every agent, with certified bounds. Execute delegates straight to
// the collector's batch core — the same one the wire protocol's exec
// frames use.
type CollectorBackend struct {
	C *netsum.Collector
	// Algo names the collector's sketch variant for Status and checkpoint
	// headers.
	Algo string
}

// Execute answers the typed batch request from the collector's global view.
func (b CollectorBackend) Execute(req query.Request) (query.Answer, error) {
	return b.C.Execute(req)
}

// Generation is the collector-wide seal count.
func (b CollectorBackend) Generation() uint64 { return b.C.Generation() }

// Epochal reports whether the collector measures in sealed windows.
func (b CollectorBackend) Epochal() bool { return b.C.Epochal() }

// Checkpoint snapshots the merged global view.
func (b CollectorBackend) Checkpoint(w io.Writer) error { return b.C.SnapshotGlobal(w) }

// CanCheckpoint reports whether the collector maintains a snapshottable
// merged view.
func (b CollectorBackend) CanCheckpoint() error { return b.C.CanSnapshotGlobal() }

// CutLSN reports the WAL position the collector's most recent snapshot cut
// covered (0 with no WAL).
func (b CollectorBackend) CutLSN() uint64 { return b.C.WALCutLSN() }

// CheckpointCommitted truncates the collector's WAL through the last cut.
func (b CollectorBackend) CheckpointCommitted() error { return b.C.WALCheckpointCommitted() }

// RegisterMetrics delegates to the collector, which registers its own
// netsum_* series plus its ingest pipeline's and (when durable) its WAL's.
func (b CollectorBackend) RegisterMetrics(reg *telemetry.Registry) { b.C.RegisterMetrics(reg) }

// Status reports collector identity and ingest counters.
func (b CollectorBackend) Status() Status {
	agents, updates, queries := b.C.Stats()
	ist := b.C.IngestStats()
	return Status{
		Mode:       "collector",
		Algo:       b.Algo,
		Epochal:    b.C.Epochal(),
		Generation: b.C.Generation(),
		Agents:     agents,
		Updates:    updates,
		Queries:    queries,
		Ingest:     &ist,
		WAL:        b.C.WALStats(),
	}
}

// SketchBackend serves a standalone registry-built sketch — cumulative, or
// wrapped in an epoch ring when built with an epoch length. Ingest arrives
// over HTTP (Ingest); queries and ingest may run concurrently. With
// SketchBackendConfig.Ingest set, writes flow through an async ingest
// pipeline (workers land each batch by insertion under the sketch's lock)
// and query paths drain it first, so acked writes are always visible.
type SketchBackend struct {
	algo string

	// Cumulative mode: sk under mu (writers exclusive, readers shared) —
	// except when selfSynced: sharded sketches lock per shard internally,
	// and routing everything through one outer mutex would serialize the
	// concurrent ingest that Spec.Shards exists to provide.
	mu         sync.RWMutex
	sk         sketch.Sketch
	selfSynced bool

	// Epoch mode: the ring locks internally.
	ring *epoch.Ring

	// pipe is the optional async write plane; nil means synchronous ingest.
	pipe *ingest.Pipeline

	// journal makes ingest durable once AttachWAL gives it a log: it owns
	// replay, append-before-submit and the checkpoint cut. Without a log
	// Ingest goes straight to submit.
	journal wal.Journal

	// updates/queries double as the backend's Prometheus instruments
	// (RegisterMetrics) — the same atomic words Status reads.
	updates telemetry.Counter
	queries telemetry.Counter
}

// SketchBackendConfig names everything a standalone backend is built from.
type SketchBackendConfig struct {
	// Algo is the registered variant; Spec sizes it.
	Algo string
	Spec sketch.Spec
	// Epoch > 0 selects epoch mode: a ring rotating every Epoch, retaining
	// Windows sealed epochs (≤ 0 means the default). Clock overrides time
	// (tests).
	Epoch   time.Duration
	Windows int
	Clock   epoch.Clock
	// Ingest, when non-nil, routes writes through an async pipeline with
	// this tuning: workers land each batch in the sketch (or the ring's
	// active window) by insertion, off the producer's critical path.
	Ingest *ingest.Tuning
}

// NewSketchBackend builds a standalone backend for the named registry
// variant with synchronous ingest. epochLen > 0 selects epoch mode: a ring
// rotating every epochLen retaining windows sealed epochs (≤ 0 windows
// means the default).
func NewSketchBackend(algo string, spec sketch.Spec, epochLen time.Duration, windows int, clock epoch.Clock) (*SketchBackend, error) {
	return NewSketchBackendFrom(SketchBackendConfig{
		Algo: algo, Spec: spec, Epoch: epochLen, Windows: windows, Clock: clock,
	})
}

// NewSketchBackendFrom builds a standalone backend from the full config.
func NewSketchBackendFrom(cfg SketchBackendConfig) (*SketchBackend, error) {
	entry, ok := sketch.Lookup(cfg.Algo)
	if !ok {
		return nil, fmt.Errorf("queryd: unknown algorithm %q", cfg.Algo)
	}
	b := &SketchBackend{algo: cfg.Algo}
	if cfg.Epoch > 0 {
		b.ring = epoch.NewRing(entry.Factory(cfg.Spec), cfg.Spec.MemoryBytes, cfg.Epoch, cfg.Windows, cfg.Clock)
	} else {
		b.sk = entry.Build(cfg.Spec)
		b.selfSynced = cfg.Spec.Shards > 1
	}
	if cfg.Ingest == nil {
		return b, nil
	}
	if b.ring != nil {
		// Ring target: batches land in the active window, and the ring
		// drains the pipeline before sealing an overdue epoch, so sealed
		// windows are exact.
		b.pipe = ingest.ForRing(b.ring, *cfg.Ingest)
	} else {
		b.pipe = ingest.New(ingest.Options{Tuning: *cfg.Ingest, Apply: func(batch ingest.Batch) error {
			b.insertFlat(batch)
			return nil
		}})
	}
	return b, nil
}

// insertFlat lands a batch in the cumulative sketch. Self-synchronizing
// (sharded) sketches lock per shard internally; flat ones take the
// backend's write lock.
func (b *SketchBackend) insertFlat(batch ingest.Batch) {
	if b.selfSynced {
		sketch.InsertBatch(b.sk, batch.Items)
		return
	}
	b.mu.Lock()
	sketch.InsertBatch(b.sk, batch.Items)
	b.mu.Unlock()
}

// ErrLostWrites marks the unrecoverable backend state where acked items
// were lost (a failed apply discards its batch). HTTP surfaces map it to a
// hard 500 — retrying, here or on another replica, cannot restore the lost
// writes.
var ErrLostWrites = errors.New("queryd: ingest pipeline lost acked items")

// drain is the read-your-writes barrier of pipelined backends; a no-op for
// synchronous ones. A pipeline error means acked items were lost, so
// readers must refuse to answer rather than serve certified intervals that
// provably miss traffic.
func (b *SketchBackend) drain() error {
	if b.pipe == nil {
		return nil
	}
	if err := b.pipe.Drain(); err != nil {
		return fmt.Errorf("%w: %v", ErrLostWrites, err)
	}
	return nil
}

// Close stops the ingest pipeline's workers, landing everything accepted.
// Synchronous backends close trivially.
func (b *SketchBackend) Close() error {
	if b.pipe == nil {
		return nil
	}
	return b.pipe.Close()
}

// Restore warm-starts a cumulative backend from a snapshot (epoch-mode
// state ages out instead of being checkpointed).
func (b *SketchBackend) Restore(r io.Reader) error {
	if b.ring != nil {
		return errors.New("queryd: warm restart is cumulative-mode only (epoch-ring state ages out instead)")
	}
	sn, ok := b.sk.(sketch.Snapshotter)
	if !ok {
		return fmt.Errorf("queryd: %q does not support Restore", b.algo)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return sn.Restore(r)
}

// Ingest lands a typed batch: enqueued on the pipeline when one is
// configured (the Ack then reports drops under the Drop policy), applied
// synchronously otherwise. The Ack's generation is stamped from the
// backend, so epoch-mode clients can key caches off their own writes.
//
// With a WAL attached, the journal appends the batch (durable per the fsync
// policy) before it enters the pipeline — the ack promises the write
// survives a crash. A failed append refuses the whole batch (Dropped) rather
// than acking a write that would vanish on restart; the log's sticky failure
// state surfaces in Status.
func (b *SketchBackend) Ingest(batch ingest.Batch) ingest.Ack {
	ack, err := b.journal.Ingest(batch, b.submit)
	if err != nil {
		return ingest.Ack{Dropped: len(batch.Items), Generation: b.peekGeneration()}
	}
	return ack
}

// submit is Ingest minus durability: the in-memory landing path, shared by
// live traffic and WAL replay.
func (b *SketchBackend) submit(batch ingest.Batch) ingest.Ack {
	var ack ingest.Ack
	if b.pipe != nil {
		ack = b.pipe.Submit(batch)
		b.updates.Add(uint64(ack.Accepted))
		ack.Generation = b.peekGeneration()
		return ack
	}
	if b.ring != nil {
		b.ring.InsertBatch(batch.Items)
	} else {
		b.insertFlat(batch)
	}
	b.updates.Add(uint64(len(batch.Items)))
	return ingest.Ack{Accepted: len(batch.Items), Generation: b.peekGeneration()}
}

// peekGeneration labels Acks without driving rotation: Generation() pokes
// the ring, which on a pipelined epoch backend would drain the whole
// pipeline inside the write handler — the producer stall the async plane
// exists to remove.
func (b *SketchBackend) peekGeneration() uint64 {
	if b.ring == nil {
		return 0
	}
	return b.ring.PeekGeneration()
}

// Execute answers the typed batch request. Epoch mode delegates to the
// ring's Execute (one sealed-set snapshot for the whole batch); cumulative
// mode answers every key under a single read-lock acquisition through the
// sketch's native batch path, so a 256-key batch costs one lock round-trip
// (or one per shard, self-synced) instead of 256. Window requests against
// a cumulative backend degenerate to Point with Coverage 0, mirroring the
// collector.
func (b *SketchBackend) Execute(req query.Request) (query.Answer, error) {
	if err := req.Validate(); err != nil {
		return query.Answer{}, err
	}
	if err := b.drain(); err != nil {
		return query.Answer{}, err
	}
	b.queries.Inc()
	if b.ring != nil {
		return b.ring.Execute(req)
	}
	if req.Agent != 0 {
		return query.Answer{}, errors.New("queryd: standalone backends have no agents to scope to")
	}
	ans := query.Answer{Source: "sketch"}
	if req.Kind == query.TopK {
		return b.executeTopK(req, ans)
	}
	_, bounded := b.sk.(sketch.ErrorBounded)
	est := make([]uint64, len(req.Keys))
	var mpe []uint64
	if bounded {
		mpe = make([]uint64, len(req.Keys))
	}
	if !b.selfSynced {
		b.mu.RLock()
	}
	sketch.QueryBatch(b.sk, req.Keys, est, mpe)
	if !b.selfSynced {
		b.mu.RUnlock()
	}
	ans.Certified = bounded
	ans.PerKey = query.EstimatesFrom(req.Keys, est, mpe)
	return ans, nil
}

// executeTopK enumerates tracked heavy hitters, heaviest first, with each
// key's interval read under the same lock hold.
func (b *SketchBackend) executeTopK(req query.Request, ans query.Answer) (query.Answer, error) {
	hh, ok := b.sk.(sketch.HeavyHitterReporter)
	if !ok {
		return query.Answer{}, fmt.Errorf("queryd: %q does not report tracked keys", b.algo)
	}
	_, bounded := b.sk.(sketch.ErrorBounded)
	if !b.selfSynced {
		b.mu.RLock()
		defer b.mu.RUnlock()
	}
	kvs := query.TopKOf(hh.Tracked(), req.K)
	keys := make([]uint64, len(kvs))
	for i, kv := range kvs {
		keys[i] = kv.Key
	}
	est := make([]uint64, len(keys))
	var mpe []uint64
	if bounded {
		mpe = make([]uint64, len(keys))
	}
	sketch.QueryBatch(b.sk, keys, est, mpe)
	ans.Certified = bounded
	ans.PerKey = query.EstimatesFrom(keys, est, mpe)
	return ans, nil
}

// Generation is the ring's seal count (0 in cumulative mode).
func (b *SketchBackend) Generation() uint64 {
	if b.ring == nil {
		return 0
	}
	return b.ring.Generation()
}

// Epochal reports epoch mode.
func (b *SketchBackend) Epochal() bool { return b.ring != nil }

// AttachWAL makes ingest durable through l: the journal replays every
// record past ckptLSN (the restored checkpoint's cut) and the log's own
// watermark through submit, drains, and only then starts appending each
// Ingest. It refuses epoch mode and a drop-policy pipeline (wal.Refuse). A
// nil l leaves ingest unlogged.
func (b *SketchBackend) AttachWAL(l *wal.Log, ckptLSN uint64) error {
	policy := ingest.Block // synchronous ingest never drops
	if b.pipe != nil {
		policy = b.pipe.Policy()
	}
	if err := b.journal.Recover(l, ckptLSN, wal.Ingester{
		Epochal: b.ring != nil, Policy: policy, Land: b.submit, Drain: b.drain,
	}); err != nil {
		return fmt.Errorf("queryd: %w", err)
	}
	return nil
}

// CutLSN reports the WAL position the most recent checkpoint cut covered.
func (b *SketchBackend) CutLSN() uint64 { return b.journal.CutLSN() }

// CheckpointCommitted truncates the WAL through the last cut, now that the
// checkpoint holding it is durable.
func (b *SketchBackend) CheckpointCommitted() error { return b.journal.Commit() }

// Checkpoint snapshots the cumulative sketch. Readers may run concurrently
// (a snapshot is a read); ingest is excluded for the journal's cut only —
// the state is drained and serialized into memory, then written to w after
// the cut, so ingest never stalls on the destination's I/O.
func (b *SketchBackend) Checkpoint(w io.Writer) error {
	if err := b.CanCheckpoint(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := b.journal.Cut(func() error { return b.snapshot(&buf) }); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// snapshot drains pending ingest and serializes the sketch into buf; the
// caller has checked CanCheckpoint.
func (b *SketchBackend) snapshot(buf *bytes.Buffer) error {
	if err := b.drain(); err != nil {
		return err
	}
	sn := b.sk.(sketch.Snapshotter)
	if b.selfSynced {
		// Sharded snapshots lock shard-by-shard themselves.
		return sn.Snapshot(buf)
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	return sn.Snapshot(buf)
}

// CanCheckpoint reports whether the backend is a cumulative snapshottable
// sketch.
func (b *SketchBackend) CanCheckpoint() error {
	if b.ring != nil {
		return errors.New("queryd: checkpointing is cumulative-mode only (epoch-ring state ages out instead)")
	}
	if _, ok := b.sk.(sketch.Snapshotter); !ok {
		return fmt.Errorf("queryd: %q does not support Snapshot", b.algo)
	}
	return nil
}

// RegisterMetrics exposes the backend's instruments on reg: its own
// update/query counters plus, when configured, its ingest pipeline's, its
// WAL's, and its epoch ring's. Call it after the backend is fully wired
// (in particular after AttachWAL) — queryd.New does, at server build time.
func (b *SketchBackend) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCounter("queryd_backend_updates_total", "Items accepted by Ingest.", nil, &b.updates)
	reg.RegisterCounter("queryd_backend_queries_total", "Typed batch requests executed.", nil, &b.queries)
	if b.pipe != nil {
		b.pipe.RegisterMetrics(reg)
	}
	b.journal.RegisterMetrics(reg)
	if b.ring != nil {
		b.ring.RegisterMetrics(reg)
	}
}

// Status reports identity and counters.
func (b *SketchBackend) Status() Status {
	st := Status{
		Mode:       "standalone",
		Algo:       b.algo,
		Epochal:    b.Epochal(),
		Generation: b.Generation(),
		Updates:    b.updates.Value(),
		Queries:    b.queries.Value(),
	}
	if b.pipe != nil {
		ist := b.pipe.Stats()
		st.Ingest = &ist
	}
	st.WAL = b.journal.Stats()
	return st
}
