// Package ingest defines the one typed write-side contract every ingesting
// surface of this repository feeds: a Batch names what is being written
// (items, their producer, their epoch) and an Ack reports what happened to
// it, mirroring what internal/query did for the read side.
//
// The centerpiece is Pipeline, the async sharded writer plane: N workers
// drain bounded queues of batches and land each one straight in the shared
// target under the target's own lock (Options.Apply, typically
// sketch.InsertBatch under a mutex). Producers never touch the target's
// lock and a slow sketch never stalls the wire: the queue absorbs bursts,
// and the explicit backpressure policy (Block vs Drop) decides what happens
// when it cannot. Because the target only ever changes by insertion, it
// stays insertion-built — the state ReliableSketch's all-keys error bound
// is proven for — instead of the sum of merged parts.
//
// The same Batch/Ack pair flows end to end — sketch-level AsyncIngester,
// epoch.Ring landing (ForRing), the netsum collector's shared pipeline, and
// queryd's /v1/insert and /v2/ingest HTTP endpoints — so write-side
// machinery (routing, backpressure, the read-your-writes barrier) is built
// once instead of per layer.
package ingest

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Batch is one unit of write-side work: the items to ingest, who produced
// them, and (optionally) which epoch they belong to.
type Batch struct {
	// Items are the key-value increments, in producer order.
	Items []stream.Item
	// Source attributes the batch to its producer (a netsum agent ID, an
	// HTTP client's shard hint, ...). Batches from the same non-zero Source
	// are processed in submission order by a single worker, which is what
	// preserves per-agent attribution; Source 0 spreads round-robin.
	Source uint64
	// Epoch optionally tags the batch with the epoch it was accepted in (an
	// epoch.Ring.Epoch sequence number), so a ring target can land it in
	// that epoch's window even when a worker applies it after the boundary
	// (epoch.Ring.InsertBatchAt). 0 means untagged.
	Epoch uint64
}

// Ack reports a Submit's outcome. Under the Block policy every item is
// accepted (the submit waited for queue space); under Drop a full queue
// rejects the whole batch and Dropped says so — the caller knows exactly
// how many items were refused instead of silently losing them.
type Ack struct {
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
	// Generation is the target's sealed-set generation at acknowledgement
	// time, stamped by the serving edge (queryd, collector); 0 when the
	// target has no generations (cumulative sketches).
	Generation uint64 `json:"generation"`
}

// Policy is the explicit backpressure decision for a full worker queue.
type Policy uint8

const (
	// Block makes Submit wait for queue space: no item is ever dropped, and
	// a saturated pipeline pushes back on producers (the TCP-friendly
	// default — backpressure propagates to the wire).
	Block Policy = iota
	// Drop makes Submit reject the whole batch when its worker's queue is
	// full, counting the loss in the Ack and pipeline stats. For telemetry
	// that prefers freshness over completeness.
	Drop
)

// String renders the policy's flag spelling.
func (p Policy) String() string {
	if p == Drop {
		return "drop"
	}
	return "block"
}

// ParsePolicy reads a -ingest-policy flag value.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "block", "":
		return Block, nil
	case "drop":
		return Drop, nil
	}
	return Block, fmt.Errorf("ingest: unknown backpressure policy %q (want block or drop)", s)
}

// Defaults for Tuning's zero fields.
const (
	// DefaultWorkers is deliberately modest: two workers already take
	// decode-to-insert latency off the producer, and every worker lands its
	// batches under the target's own lock, so more workers only pay off on
	// self-synchronizing (sharded) targets with cores to spare.
	DefaultWorkers = 2
	// DefaultQueue bounds each worker's queue in batches, not items: a
	// batch is the unit producers block or drop on.
	DefaultQueue = 64
)

// Tuning is the operator-visible pipeline shape, the struct the daemons'
// -ingest-workers/-ingest-queue/-ingest-policy flags fill. Zero fields take
// the defaults above.
type Tuning struct {
	// Workers is the number of writer goroutines.
	Workers int
	// Queue is each worker's bounded queue capacity in batches.
	Queue int
	// Policy picks what a full queue does to Submit: Block or Drop.
	Policy Policy
}

// withDefaults resolves zero fields.
func (t Tuning) withDefaults() Tuning {
	if t.Workers <= 0 {
		t.Workers = DefaultWorkers
	}
	if t.Queue <= 0 {
		t.Queue = DefaultQueue
	}
	return t
}

// Options configures a Pipeline: the tuning knobs plus the hook binding it
// to a concrete target.
type Options struct {
	Tuning

	// Apply lands one dequeued batch in the target under the target's own
	// lock (sketch.InsertBatch under a mutex, epoch.Ring.InsertBatchAt, the
	// collector's per-agent and global inserts). Batches from one Source
	// are applied in order by one worker. Required.
	Apply func(Batch) error
	// Logf receives worker-side errors (failed applies indicate bugs, not
	// operational conditions); nil silences them. Errors are also retained
	// for Err and Stats.
	Logf func(format string, args ...any)
}

// Stats is a pipeline's observability snapshot. All counters are items, not
// batches, except Folds.
type Stats struct {
	Workers   int    `json:"workers"`
	Policy    string `json:"policy"`
	Submitted uint64 `json:"submitted"`
	Accepted  uint64 `json:"accepted"`
	Dropped   uint64 `json:"dropped"`
	// Applied counts items a worker has fully processed, landed or failed;
	// Accepted − Applied is the queued backlog.
	Applied uint64 `json:"applied"`
	// Folds counts batches landed in the target; FoldedItems the items
	// they carried.
	Folds       uint64 `json:"folds"`
	FoldedItems uint64 `json:"folded_items"`
	// LastError is the most recent worker-side failure, if any.
	LastError string `json:"last_error,omitempty"`
}

// qitem is one queue entry: a data batch, or a drain barrier (signal once
// every earlier batch on this queue has landed).
type qitem struct {
	b       Batch
	barrier chan<- struct{}
}

// Pipeline is the async sharded writer plane. Submit routes batches to
// workers (by Source, so per-producer order is preserved); workers land each
// batch in the target through Apply. Safe for concurrent use by any number
// of producers.
type Pipeline struct {
	opts    Options
	workers []*worker
	rr      atomic.Uint64

	// The pipeline's instruments ARE its stats: telemetry.Counter is a
	// single atomic word (same cost as the atomic.Uint64 these replaced),
	// so Stats() and a Prometheus scrape read the same source of truth.
	submitted telemetry.Counter
	accepted  telemetry.Counter
	dropped   telemetry.Counter
	applied   telemetry.Counter
	folds     telemetry.Counter
	folded    telemetry.Counter
	// foldSeconds records how long one batch takes to land (Apply, lock
	// wait included). Observed once per batch, never per item.
	foldSeconds *telemetry.Histogram

	errMu   sync.Mutex
	lastErr error
	// failed mirrors lastErr != nil for lock-free Submit checks: once a
	// worker loses items (a failed apply), the pipeline stops ACCEPTING —
	// acking writes into a plane whose certified state can no longer cover
	// them would be a lie. Reads keep erroring, new writes drop visibly,
	// and the operator restarts.
	failed atomic.Bool

	// lifeMu makes Submit/Drain vs Close safe: Close excludes in-flight
	// submissions before closing the queues. done is closed by Close, for
	// helper goroutines (the ring janitor) to exit promptly.
	lifeMu sync.RWMutex
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// worker is one writer goroutine and its queue.
type worker struct {
	p *Pipeline
	q chan qitem
}

// New starts a pipeline. It panics when Apply is nil: a pipeline with
// nowhere to write is a programming error, like registering a nil sketch
// builder.
func New(opts Options) *Pipeline {
	opts.Tuning = opts.Tuning.withDefaults()
	if opts.Apply == nil {
		panic("ingest: Pipeline needs an Apply target")
	}
	p := &Pipeline{
		opts:        opts,
		done:        make(chan struct{}),
		foldSeconds: telemetry.NewHistogram(telemetry.LatencyBuckets()),
	}
	p.workers = make([]*worker, opts.Workers)
	for i := range p.workers {
		w := &worker{p: p, q: make(chan qitem, opts.Queue)}
		p.workers[i] = w
		p.wg.Add(1)
		go w.run()
	}
	return p
}

// Policy reports the pipeline's backpressure policy, so durability layers
// can refuse wirings whose semantics it would break (a WAL ahead of a Drop
// pipeline could make a batch durable that the queue then refuses).
func (p *Pipeline) Policy() Policy { return p.opts.Policy }

// route picks the worker owning a source. Non-zero sources are sticky (one
// worker, FIFO — attribution order per producer); zero spreads round-robin.
func (p *Pipeline) route(source uint64) *worker {
	n := uint64(len(p.workers))
	if source != 0 {
		return p.workers[source%n]
	}
	return p.workers[p.rr.Add(1)%n]
}

// Submit hands a batch to its worker. Under Block it waits for queue space
// and every item is accepted; under Drop a full queue refuses the whole
// batch. Ack.Generation is 0 — serving edges that track generations stamp
// it themselves. Submitting to a closed or failed pipeline drops: once a
// worker has lost items, an Accepted ack would promise coverage the
// certified state cannot deliver.
func (p *Pipeline) Submit(b Batch) Ack {
	n := len(b.Items)
	p.submitted.Add(uint64(n))
	if n == 0 {
		return Ack{}
	}
	if p.failed.Load() {
		p.dropped.Add(uint64(n))
		return Ack{Dropped: n}
	}
	p.lifeMu.RLock()
	defer p.lifeMu.RUnlock()
	if p.closed {
		p.dropped.Add(uint64(n))
		return Ack{Dropped: n}
	}
	w := p.route(b.Source)
	if p.opts.Policy == Drop {
		select {
		case w.q <- qitem{b: b}:
		default:
			p.dropped.Add(uint64(n))
			return Ack{Dropped: n}
		}
	} else {
		w.q <- qitem{b: b}
	}
	p.accepted.Add(uint64(n))
	return Ack{Accepted: n}
}

// Drain is the read-your-writes barrier: it returns once every batch
// accepted before the call has landed in the target. Query paths call it
// before reading state the pipeline feeds, so certified answers cover
// everything the caller has already been acked for. An idle pipeline
// (everything accepted already applied) returns immediately, so
// query-heavy workloads with trickling ingest don't pay an O(workers)
// barrier round-trip per query. Safe to call concurrently; on a closed
// pipeline it returns the recorded error.
func (p *Pipeline) Drain() error {
	if p.idle() {
		return p.Err()
	}
	p.lifeMu.RLock()
	if p.closed {
		p.lifeMu.RUnlock()
		return p.Err()
	}
	done := make(chan struct{}, len(p.workers))
	for _, w := range p.workers {
		w.q <- qitem{barrier: done}
	}
	p.lifeMu.RUnlock()
	for range p.workers {
		<-done
	}
	return p.Err()
}

// idle reports whether everything accepted has been applied. Counter order
// makes a true answer safe: accepted is incremented before Submit returns
// and applied only after a batch's Apply returned, so if a batch was acked
// to THIS caller before its Drain, a stale read can only make idle return
// false (the slow barrier path), never skip pending work.
func (p *Pipeline) idle() bool {
	return p.applied.Value() == p.accepted.Value()
}

// Close drains and stops the workers. Further Submits drop; further Drains
// return the recorded error. Returns the first worker-side error observed
// over the pipeline's life.
func (p *Pipeline) Close() error {
	p.lifeMu.Lock()
	if p.closed {
		p.lifeMu.Unlock()
		return p.Err()
	}
	p.closed = true
	close(p.done)
	for _, w := range p.workers {
		close(w.q)
	}
	p.lifeMu.Unlock()
	p.wg.Wait()
	return p.Err()
}

// Err returns the first worker-side error observed (nil when healthy).
func (p *Pipeline) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.lastErr
}

// Stats snapshots the pipeline's counters.
func (p *Pipeline) Stats() Stats {
	s := Stats{
		Workers:     len(p.workers),
		Policy:      p.opts.Policy.String(),
		Submitted:   p.submitted.Value(),
		Accepted:    p.accepted.Value(),
		Dropped:     p.dropped.Value(),
		Applied:     p.applied.Value(),
		Folds:       p.folds.Value(),
		FoldedItems: p.folded.Value(),
	}
	if err := p.Err(); err != nil {
		s.LastError = err.Error()
	}
	return s
}

// RegisterMetrics exposes the pipeline's instruments on reg under the
// ingest_* namespace. The registered counters are the SAME atomic words
// Stats reads — one source of truth, two expositions. Queue depth and
// worker count are sampled at scrape time (snapshot-on-read); nothing here
// adds work to Submit or the worker loops.
func (p *Pipeline) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCounter("ingest_submitted_items_total", "Items offered to Submit, accepted or not.", nil, &p.submitted)
	reg.RegisterCounter("ingest_accepted_items_total", "Items accepted onto a worker queue.", nil, &p.accepted)
	reg.RegisterCounter("ingest_dropped_items_total", "Items refused by backpressure, pipeline failure, or shutdown.", nil, &p.dropped)
	reg.RegisterCounter("ingest_applied_items_total", "Items fully processed by a worker.", nil, &p.applied)
	reg.RegisterCounter("ingest_folds_total", "Batches landed in the target.", nil, &p.folds)
	reg.RegisterCounter("ingest_folded_items_total", "Items carried into the target by landed batches.", nil, &p.folded)
	reg.RegisterHistogram("ingest_fold_duration_seconds", "Latency of landing one batch in the target, lock wait included.", nil, p.foldSeconds)
	reg.GaugeFunc("ingest_queue_depth_batches", "Batches waiting on worker queues.", nil, func() float64 {
		depth := 0
		for _, w := range p.workers {
			depth += len(w.q)
		}
		return float64(depth)
	})
	reg.GaugeFunc("ingest_workers", "Writer goroutines.", nil, func() float64 {
		return float64(len(p.workers))
	})
}

func (p *Pipeline) fail(err error) {
	p.errMu.Lock()
	if p.lastErr == nil {
		p.lastErr = err
	}
	p.errMu.Unlock()
	p.failed.Store(true)
	if p.opts.Logf != nil {
		p.opts.Logf("ingest: %v", err)
	}
}

// run is the worker loop: land each batch, answer each barrier once every
// batch queued before it has landed, and exit when Close closes the queue
// (the queue is drained first, so Close never strands accepted items).
func (w *worker) run() {
	defer w.p.wg.Done()
	for it := range w.q {
		if it.barrier != nil {
			it.barrier <- struct{}{}
			continue
		}
		w.apply(it.b)
	}
}

// apply lands one batch through the target's Apply hook. The latency
// observation brackets the Apply call and runs once per batch.
func (w *worker) apply(b Batch) {
	n := uint64(len(b.Items))
	start := time.Now()
	err := w.p.opts.Apply(b)
	w.p.foldSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		w.p.fail(err)
	} else {
		w.p.folds.Inc()
		w.p.folded.Add(n)
	}
	w.p.applied.Add(n)
}
