package ingest

import (
	"fmt"
	"sync"

	"repro/internal/sketch"
	"repro/internal/stream"
)

// AsyncIngester is the sketch-level surface of the ingest plane: it wraps
// any registry variant behind a Pipeline, so writers enqueue batches
// instead of taking the sketch's lock, and workers land them by insertion.
// It implements sketch.Sketch, sketch.BatchInserter, and
// sketch.BatchQuerier, so it drops into every place a sketch goes — with
// the usual async contract: reads answer the landed state; call Drain first
// for read-your-writes.
type AsyncIngester struct {
	name string

	// mu guards target during lands and reads. Self-synchronizing targets
	// (sharded wrappers, selfSynced) lock per shard internally, so workers
	// land into them without it and scale across shards; reads still take
	// it.
	mu         sync.Mutex
	target     sketch.Sketch
	selfSynced bool

	pipe *Pipeline
}

// NewAsyncIngester builds the named registry variant from spec and wraps it
// in a pipeline of t.Workers writers.
func NewAsyncIngester(algo string, spec sketch.Spec, t Tuning) (*AsyncIngester, error) {
	entry, ok := sketch.Lookup(algo)
	if !ok {
		return nil, fmt.Errorf("ingest: unknown algorithm %q", algo)
	}
	target := entry.Build(spec)
	a := &AsyncIngester{name: target.Name() + "_async", target: target, selfSynced: spec.Shards > 1}
	a.pipe = New(Options{Tuning: t, Apply: a.land})
	return a, nil
}

// land inserts one dequeued batch into the target.
func (a *AsyncIngester) land(b Batch) error {
	if a.selfSynced {
		sketch.InsertBatch(a.target, b.Items)
		return nil
	}
	a.mu.Lock()
	sketch.InsertBatch(a.target, b.Items)
	a.mu.Unlock()
	return nil
}

// Submit enqueues one typed batch, the native entry point.
func (a *AsyncIngester) Submit(b Batch) Ack { return a.pipe.Submit(b) }

// InsertBatch enqueues items as one unattributed batch (sketch.BatchInserter).
func (a *AsyncIngester) InsertBatch(items []stream.Item) {
	a.pipe.Submit(Batch{Items: items})
}

// Insert enqueues a single item. The pipeline's unit of work is the batch;
// prefer InsertBatch or Submit on any hot path.
func (a *AsyncIngester) Insert(key, value uint64) {
	a.pipe.Submit(Batch{Items: []stream.Item{{Key: key, Value: value}}})
}

// Query answers from the landed state.
func (a *AsyncIngester) Query(key uint64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.target.Query(key)
}

// QueryWithError answers the landed state's certified interval; ok is false
// when the wrapped variant is not ErrorBounded.
func (a *AsyncIngester) QueryWithError(key uint64) (est, mpe uint64, ok bool) {
	eb, isEB := a.target.(sketch.ErrorBounded)
	if !isEB {
		return 0, 0, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	est, mpe = eb.QueryWithError(key)
	return est, mpe, true
}

// QueryBatch answers a whole key batch under one lock hold through the
// target's native batch path (sketch.BatchQuerier shape).
func (a *AsyncIngester) QueryBatch(keys []uint64, est, mpe []uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sketch.QueryBatch(a.target, keys, est, mpe)
}

// Drain blocks until everything accepted so far has landed — the
// read-your-writes barrier.
func (a *AsyncIngester) Drain() error { return a.pipe.Drain() }

// Close drains, stops the workers, and reports the first worker error.
func (a *AsyncIngester) Close() error { return a.pipe.Close() }

// Stats snapshots the pipeline counters.
func (a *AsyncIngester) Stats() Stats { return a.pipe.Stats() }

// Target exposes the wrapped sketch. Callers must Drain first and must not
// write to it while the pipeline lives.
func (a *AsyncIngester) Target() sketch.Sketch {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.target
}

// MemoryBytes reports the target's accounted memory.
func (a *AsyncIngester) MemoryBytes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.target.MemoryBytes()
}

// Name identifies the wrapped algorithm.
func (a *AsyncIngester) Name() string { return a.name }
