package netsum

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/epoch"
	"repro/internal/ingest"
	"repro/internal/sketch"
	_ "repro/internal/sketch/all" // make every registered variant dialable by name
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// CollectorConfig selects and sizes the per-agent sketches the collector
// maintains.
type CollectorConfig struct {
	// Algo names the registered sketch variant built per agent. It must
	// carry sketch.CapErrorBounded — the collector composes certified
	// intervals, which needs QueryWithError. Default "Ours".
	Algo string
	// Spec sizes each agent's sketch. For Lambda-consuming variants
	// (ReliableSketch) Spec.Lambda is the per-agent error tolerance, so a
	// key measured at k agents carries a certified global error of at most
	// k·Lambda; variants that ignore Lambda (SS) still compose soundly, but
	// their global bound is the sum of their own per-query MPEs, not
	// k·Lambda. Spec.Emergency is forced on so the composed bounds stay
	// unconditional even under insertion failure.
	Spec sketch.Spec
	// Epoch, when positive, switches the collector to windowed measurement:
	// each agent's state becomes an epoch.Ring rotating every Epoch.
	// Global queries then cover the retained sliding window (all sealed
	// epochs) instead of all time, and agents may issue window queries over
	// the last n epochs.
	Epoch time.Duration
	// WindowEpochs is the ring capacity in epoch mode (sealed windows
	// retained per agent); ≤ 0 means epoch.DefaultCapacity.
	WindowEpochs int
	// Clock overrides time for epoch rotation (tests); nil means wall time.
	Clock epoch.Clock
	// DisableMergedView turns off the all-agents global sketch in
	// cumulative mode, forcing the estimate-sum query path even for
	// Mergeable variants (benchmark/ablation control).
	DisableMergedView bool
	// Ingest tunes the collector's shared write pipeline (workers, queue
	// depth, backpressure policy). Zero fields take the
	// ingest package defaults.
	Ingest ingest.Tuning
	// WAL, when non-nil, makes ingest durable: every decoded wire batch is
	// appended (with its agent attribution) before entering the pipeline,
	// and NewCollector replays records past WALStartLSN — the restored
	// checkpoint's cut — before accepting connections. Cumulative mode only:
	// replaying old records into epoch rings would resurrect expired traffic
	// into the live window.
	WAL *wal.Log
	// WALStartLSN is the WAL position the restored checkpoint covers (0 for
	// a cold start); replay begins strictly after max(WALStartLSN, the
	// log's own watermark).
	WALStartLSN uint64
	// Logf receives connection-level diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// agentState is one agent's measurement state. Each agent has its own lock
// so ingest from different agents never serializes on shared collector
// state (the previous design held one collector-wide mutex across every
// InsertBatch). Exactly one of sk/ring is set, per the collector's mode.
type agentState struct {
	mu   sync.Mutex
	sk   sketch.ErrorBounded // cumulative mode
	ring *epoch.Ring         // epoch mode (locks internally)

	// wire counts updates accepted from this agent's connections (and WAL
	// replay of them) — the per-agent split of the collector-wide updates
	// counter, exposed as netsum_agent_updates_total{agent="..."}.
	wire telemetry.Counter
}

// Collector terminates agent connections, maintains one error-bounded
// sketch (or epoch ring) per agent, and answers global queries with
// certified bounds.
type Collector struct {
	cfg   CollectorConfig
	entry sketch.Entry
	ln    net.Listener

	// mu guards the agents map and the baseline pointer; per-agent sketch
	// access takes the agent's own lock.
	mu     sync.Mutex
	agents map[uint64]*agentState

	// baseline is pre-restart state restored from a checkpoint (cumulative
	// mode only). It is read-only after RestoreBaseline publishes it, so
	// queries read it lock-free; its certified interval is summed into the
	// estimate-sum composition exactly like another agent's.
	baseline sketch.ErrorBounded

	// global is the all-agents sketch (cumulative mode with a Mergeable
	// variant). Pipeline workers insert every batch into it under globalMu,
	// so it stays insertion-built; a restored baseline is the only thing
	// ever merged into it. globalMu is never held for per-agent ingest.
	globalMu sync.Mutex
	global   sketch.ErrorBounded

	// pipe is the collector-wide ingest plane: decoded wire batches are
	// submitted (Source = agent ID) instead of applied under locks in the
	// connection handler. Workers land each batch in its agent's own state
	// (attribution, in per-agent submission order) and in the global view.
	// Query paths Drain it first, so answers cover everything producers
	// were acked for.
	pipe *ingest.Pipeline

	// walMu orders WAL appends against snapshot cuts: connection handlers
	// hold it shared around each (append, submit) pair, SnapshotGlobal holds
	// it exclusive around (drain, serialize, capture LastLSN). walCut is the
	// last cut — the point the log may be truncated through once that
	// checkpoint file is durable (WALCheckpointCommitted).
	walMu  sync.RWMutex
	walCut atomic.Uint64

	// updates/queries double as the collector's Prometheus instruments
	// (RegisterMetrics); a telemetry.Counter is the same single atomic word
	// the atomic.Uint64 each replaced was.
	updates telemetry.Counter
	queries telemetry.Counter

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// NewCollector starts a collector listening on addr (e.g. "127.0.0.1:0").
func NewCollector(addr string, cfg CollectorConfig) (*Collector, error) {
	if cfg.Algo == "" {
		cfg.Algo = "Ours"
	}
	if cfg.Spec.MemoryBytes == 0 {
		cfg.Spec.MemoryBytes = 1 << 20
	}
	cfg.Spec.Emergency = true
	entry, ok := sketch.Lookup(cfg.Algo)
	if !ok {
		return nil, fmt.Errorf("netsum: unknown algorithm %q", cfg.Algo)
	}
	if !entry.Caps.Has(sketch.CapErrorBounded) {
		return nil, fmt.Errorf("netsum: algorithm %q cannot certify errors (need one of: %s)",
			cfg.Algo, errorBoundedNames())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsum: listen: %w", err)
	}
	c := &Collector{
		cfg:    cfg,
		entry:  entry,
		ln:     ln,
		agents: make(map[uint64]*agentState),
		closed: make(chan struct{}),
	}
	opts := ingest.Options{Tuning: cfg.Ingest, Apply: c.applyBatch, Logf: cfg.Logf}
	if cfg.Epoch <= 0 && !cfg.DisableMergedView && entry.Caps.Has(sketch.CapMergeable) {
		built, err := c.buildErrorBounded()
		if err != nil {
			ln.Close()
			return nil, err
		}
		c.global = built
	}
	c.pipe = ingest.New(opts)
	if cfg.WAL != nil {
		if cfg.Epoch > 0 {
			c.pipe.Close()
			ln.Close()
			return nil, errors.New("netsum: WAL-backed ingest is cumulative-mode only (epoch-ring state ages out instead)")
		}
		if cfg.Ingest.Policy == ingest.Drop {
			// Drop would let a momentarily full queue refuse a batch that is
			// already durable on disk — live state says dropped, the log
			// resurrects it on replay, and the same race makes replay itself
			// fail on a healthy log. Block is the only policy whose acks the
			// WAL can honestly extend across a crash.
			c.pipe.Close()
			ln.Close()
			return nil, errors.New("netsum: WAL-backed ingest requires the block policy (drop could refuse a durable batch live, then resurrect it on replay)")
		}
		// Replay the un-checkpointed tail through the same pipeline live
		// traffic takes, before the listener accepts anything — so replayed
		// and live batches never interleave, and per-agent attribution
		// (Source, stored per record) lands exactly as it did pre-crash.
		if err := c.replayWAL(cfg.WAL, cfg.WALStartLSN); err != nil {
			c.pipe.Close()
			ln.Close()
			return nil, err
		}
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// replayWAL feeds every record past the checkpoint cut (and the log's own
// watermark) back through the ingest pipeline and drains it to visibility.
func (c *Collector) replayWAL(l *wal.Log, startLSN uint64) error {
	after := max(startLSN, l.Watermark())
	if _, err := l.Replay(after, func(b ingest.Batch, lsn uint64) error {
		// The pipeline is always Block here (NewCollector refuses WAL+Drop),
		// so Submit never refuses for a full queue — Dropped > 0 means the
		// pipeline itself failed or closed, which recovery must not paper
		// over.
		ack := c.pipe.Submit(b)
		if ack.Dropped > 0 {
			return fmt.Errorf("netsum: replaying wal record %d: %d items refused (pipeline failed)", lsn, ack.Dropped)
		}
		c.updates.Add(uint64(ack.Accepted))
		st, err := c.stateFor(b.Source - 1)
		if err != nil {
			return fmt.Errorf("netsum: replaying wal record %d: %w", lsn, err)
		}
		st.wire.Add(uint64(ack.Accepted))
		return nil
	}); err != nil {
		return fmt.Errorf("netsum: wal replay: %w", err)
	}
	if err := c.drainIngest(); err != nil {
		return fmt.Errorf("netsum: wal replay: %w", err)
	}
	c.walCut.Store(after)
	return nil
}

// applyBatch is the pipeline's landing hook: insert the batch into its
// source agent's own state under that agent's own lock, then into the
// global view under globalMu. The wire handler submits with Source =
// agentID+1, so even agent 0 gets a sticky non-zero source: batches from
// one agent are applied by one worker in submission order, and per-agent
// attribution and ordering are exactly what the synchronous path produced.
// An epoch-mode batch carries the agent ring's epoch at acceptance, so it
// lands in that window even when applied after the boundary.
func (c *Collector) applyBatch(b ingest.Batch) error {
	st, err := c.stateFor(b.Source - 1)
	if err != nil {
		return err
	}
	if st.ring != nil {
		st.ring.InsertBatchAt(b.Epoch, b.Items)
		return nil
	}
	st.mu.Lock()
	sketch.InsertBatch(st.sk, b.Items)
	st.mu.Unlock()
	if c.global != nil {
		c.globalMu.Lock()
		sketch.InsertBatch(c.global, b.Items)
		c.globalMu.Unlock()
	}
	return nil
}

// drainIngest is the read-your-writes barrier query and snapshot paths take
// before touching agent or global state: everything producers were acked
// for has landed when it returns. A pipeline error means acked items were
// lost (a failed apply discards its batch) — callers with an error channel
// must refuse to answer rather than serve a certified interval that
// provably misses traffic.
func (c *Collector) drainIngest() error {
	if err := c.pipe.Drain(); err != nil {
		c.logf("netsum: ingest pipeline: %v", err)
		return fmt.Errorf("netsum: ingest pipeline lost acked items: %w", err)
	}
	return nil
}

// buildErrorBounded constructs one configured sketch, verifying the
// registry's ErrorBounded declaration. The registry conformance tests pin
// capabilities to implemented interfaces (including under Spec.Shards), so
// a failed assertion means a misregistered variant.
func (c *Collector) buildErrorBounded() (sketch.ErrorBounded, error) {
	built := c.entry.Build(c.cfg.Spec)
	eb, ok := built.(sketch.ErrorBounded)
	if !ok {
		return nil, fmt.Errorf("netsum: %q registered ErrorBounded but built %T without QueryWithError",
			c.cfg.Algo, built)
	}
	return eb, nil
}

// capabilityNames lists the registry variants carrying caps, for error
// messages suggesting usable alternatives.
func capabilityNames(caps sketch.Capability) string {
	var names []string
	for _, e := range sketch.ByCapability(caps) {
		names = append(names, e.Name)
	}
	return strings.Join(names, ", ")
}

// errorBoundedNames lists the registry variants usable as collector
// sketches, for error messages.
func errorBoundedNames() string {
	return capabilityNames(sketch.CapErrorBounded)
}

// Addr returns the listener's address, for clients to dial.
func (c *Collector) Addr() string { return c.ln.Addr().String() }

// MergeBased reports whether global queries are served from the global
// view (intersected with the estimate-sum interval) rather than
// estimate-summing alone.
func (c *Collector) MergeBased() bool { return c.global != nil }

// Close stops accepting, waits for connection handlers to drain, then
// closes the ingest pipeline (landing everything accepted). Idempotent:
// later calls return the first call's result.
func (c *Collector) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		err := c.ln.Close()
		c.wg.Wait()
		if perr := c.pipe.Close(); perr != nil && err == nil {
			err = perr
		}
		c.closeErr = err
	})
	return c.closeErr
}

// IngestStats snapshots the shared write pipeline's counters.
func (c *Collector) IngestStats() ingest.Stats { return c.pipe.Stats() }

func (c *Collector) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *Collector) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.closed:
				return
			default:
				c.logf("netsum: accept: %v", err)
				return
			}
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			if err := c.handle(conn); err != nil && !errors.Is(err, io.EOF) {
				c.logf("netsum: connection %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// stateFor returns (creating on first contact) the agent's state. Only the
// map lookup runs under the collector-wide lock.
func (c *Collector) stateFor(agentID uint64) (*agentState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.agents[agentID]
	if ok {
		return st, nil
	}
	st = &agentState{}
	if c.cfg.Epoch > 0 {
		st.ring = epoch.NewRing(c.entry.Factory(c.cfg.Spec), c.cfg.Spec.MemoryBytes,
			c.cfg.Epoch, c.cfg.WindowEpochs, c.cfg.Clock)
	} else {
		eb, err := c.buildErrorBounded()
		if err != nil {
			return nil, err
		}
		st.sk = eb
	}
	c.agents[agentID] = st
	return st, nil
}

// handle runs one agent connection to completion. Batch frames feed the
// shared ingest pipeline directly — the handler decodes and submits, taking
// no collector lock, so a slow sketch never stalls the wire (Block policy
// pushes back through the bounded queue instead; Drop sheds, counted).
func (c *Collector) handle(conn net.Conn) error {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 16<<10)

	var agentID uint64
	var agentSt *agentState // this agent's state, resolved once at hello
	haveHello := false
	reply := func(typ byte, payload []byte) error {
		if err := writeFrame(bw, typ, payload); err != nil {
			return err
		}
		return bw.Flush()
	}
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			return err
		}
		switch typ {
		case msgHello:
			u := &uvarintReader{buf: payload}
			id, err := u.next()
			if err != nil {
				return err
			}
			// Optional trailing protocol version (absent on v1 agents).
			// Purely informational today: the collector answers every
			// version's frames, so nothing branches on it.
			if v, verr := u.next(); verr == nil && v > ProtocolVersion {
				c.logf("netsum: agent %d speaks protocol v%d, newer than ours (v%d)",
					id, v, ProtocolVersion)
			}
			// The pipeline source is agentID+1 (0 is the round-robin
			// sentinel), so the one wrapping ID cannot be attributed.
			if id == math.MaxUint64 {
				return fmt.Errorf("netsum: agent id %d is reserved", id)
			}
			// Pre-create the agent's state so a misconfigured registry fails
			// the connection at hello, not asynchronously in a worker.
			st, err := c.stateFor(id)
			if err != nil {
				return err
			}
			agentID, agentSt, haveHello = id, st, true

		case msgBatch:
			if !haveHello {
				return errors.New("netsum: batch before hello")
			}
			ups, err := decodeBatch(payload)
			if err != nil {
				return err
			}
			// Source is agentID+1: sticky per-agent routing even for agent
			// 0. Counting accepted updates here (not in the worker) keeps
			// the Stats counter exact for every frame already handled on
			// this connection, without Stats needing a pipeline drain.
			//
			// With a WAL, the batch hits disk (per the fsync policy) before
			// the pipeline sees it. The v1 wire has no per-batch refusal
			// frame, so a failed append drops the connection — the agent's
			// resend path handles it — rather than silently accepting a
			// write that would vanish on restart.
			batch := ingest.Batch{Items: ups, Source: agentID + 1}
			if agentSt.ring != nil {
				batch.Epoch = agentSt.ring.Epoch()
			}
			if c.cfg.WAL != nil {
				c.walMu.RLock()
				_, werr := c.cfg.WAL.Append(batch)
				if werr != nil {
					c.walMu.RUnlock()
					return fmt.Errorf("netsum: wal append: %w", werr)
				}
				ack := c.pipe.Submit(batch)
				c.walMu.RUnlock()
				c.updates.Add(uint64(ack.Accepted))
				agentSt.wire.Add(uint64(ack.Accepted))
				continue
			}
			ack := c.pipe.Submit(batch)
			c.updates.Add(uint64(ack.Accepted))
			agentSt.wire.Add(uint64(ack.Accepted))

		case msgQuery:
			u := &uvarintReader{buf: payload}
			key, err := u.next()
			if err != nil {
				return err
			}
			// The v1 frame has no refusal encoding, so a pipeline failure
			// (acked items lost — the bounds cannot cover them) drops the
			// connection instead of serving a false certificate, exactly
			// as the old synchronous path did on ingest errors.
			if err := c.drainIngest(); err != nil {
				return err
			}
			est, mpe := c.QueryWithError(key)
			if err := reply(msgQueryResp, appendUvarints(nil, key, est, mpe)); err != nil {
				return err
			}

		case msgWindowQuery:
			u := &uvarintReader{buf: payload}
			key, err := u.next()
			if err != nil {
				return err
			}
			n, err := u.next()
			if err != nil {
				return err
			}
			if err := c.drainIngest(); err != nil {
				return err // no v1 refusal encoding; see msgQuery
			}
			est, mpe, covered := c.QueryWindowWithError(key, int(n))
			if err := reply(msgWindowResp, appendUvarints(nil, key, uint64(covered), est, mpe)); err != nil {
				return err
			}

		case msgExecQuery:
			req, err := decodeRequest(payload)
			if err != nil {
				return err
			}
			ans, err := c.Execute(req)
			if err != nil {
				// A refused request (validation, missing capability, unknown
				// agent) is an answer, not a broken connection: report it and
				// keep serving.
				if err := reply(msgExecErr, []byte(err.Error())); err != nil {
					return err
				}
				continue
			}
			if err := reply(msgExecResp, encodeAnswer(ans)); err != nil {
				return err
			}

		case msgStats:
			agents, updates, queries := c.Stats()
			if err := reply(msgStatsResp, appendUvarints(nil, uint64(agents), updates, queries)); err != nil {
				return err
			}

		default:
			return fmt.Errorf("netsum: unknown message type %d", typ)
		}
	}
}

// snapshotAgents copies the current agent set; per-agent locks are taken
// individually afterwards, never while holding the map lock.
func (c *Collector) snapshotAgents() []*agentState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*agentState, 0, len(c.agents))
	for _, st := range c.agents {
		out = append(out, st)
	}
	return out
}

// baselineSketch reads the published warm-restart baseline, if any.
func (c *Collector) baselineSketch() sketch.ErrorBounded {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.baseline
}

// CanSnapshotGlobal reports whether SnapshotGlobal can succeed: the
// collector must maintain the merged global view (a Mergeable variant,
// cumulative measurement, merging enabled) and the variant must support
// snapshots; "Ours" satisfies both.
func (c *Collector) CanSnapshotGlobal() error {
	if c.global == nil {
		return errors.New("netsum: no merged global view to snapshot (epoch mode, or merging disabled, or variant not Mergeable)")
	}
	if _, ok := c.global.(sketch.Snapshotter); !ok {
		return fmt.Errorf("netsum: %q does not support Snapshot (need one of: %s)",
			c.cfg.Algo, capabilityNames(sketch.CapErrorBounded|sketch.CapSnapshottable))
	}
	return nil
}

// SnapshotGlobal checkpoints the merged global view — the collector's full
// ingested history, including any restored baseline — so a restarted
// collector can warm-start from it via RestoreBaseline. The view is
// serialized into memory under globalMu and written to w after releasing
// it, so global queries and per-batch global inserts stall for the
// serialization only, never for the destination's I/O. With a WAL, the
// (drain, serialize, capture LastLSN) cut runs under the exclusive side of
// walMu so no (append, submit) pair straddles it: records at or below the
// cut are in the snapshot, records above it replay on restart.
func (c *Collector) SnapshotGlobal(w io.Writer) error {
	if err := c.CanSnapshotGlobal(); err != nil {
		return err
	}
	sn := c.global.(sketch.Snapshotter)
	if c.cfg.WAL != nil {
		c.walMu.Lock()
	}
	buf, err := c.snapshotCut(sn)
	if c.cfg.WAL != nil {
		if err == nil {
			c.walCut.Store(c.cfg.WAL.LastLSN())
		}
		c.walMu.Unlock()
	}
	if err != nil {
		return err
	}
	_, err = w.Write(buf.Bytes())
	return err
}

// snapshotCut drains pending ingest and serializes the merged view into a
// buffer; the caller handles WAL cut ordering around it.
func (c *Collector) snapshotCut(sn sketch.Snapshotter) (*bytes.Buffer, error) {
	if err := c.drainIngest(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	c.globalMu.Lock()
	err := sn.Snapshot(&buf)
	c.globalMu.Unlock()
	if err != nil {
		return nil, err
	}
	return &buf, nil
}

// WALCutLSN reports the WAL position the most recent SnapshotGlobal cut
// covered (0 with no WAL).
func (c *Collector) WALCutLSN() uint64 { return c.walCut.Load() }

// WALCheckpointCommitted tells the collector its latest SnapshotGlobal is
// durable on disk: the WAL's records through the cut are now redundant, so
// the watermark advances and fully covered segments are deleted.
func (c *Collector) WALCheckpointCommitted() error {
	if c.cfg.WAL == nil {
		return nil
	}
	return c.cfg.WAL.TruncateThrough(c.walCut.Load())
}

// WALStats snapshots the write-ahead log's counters (nil with no WAL).
func (c *Collector) WALStats() *wal.Stats {
	if c.cfg.WAL == nil {
		return nil
	}
	st := c.cfg.WAL.Stats()
	return &st
}

// RestoreBaseline warm-starts the collector from a SnapshotGlobal
// checkpoint: the restored sketch becomes a read-only baseline whose
// certified interval is added to every global answer, and is folded into
// the merged view so merge-based queries cover pre-restart traffic too.
// Both compositions stay certified: the baseline certifies pre-restart
// truth, the per-agent sketches certify post-restart truth, and global
// truth is their sum. Call it once, before agents reconnect; cumulative
// mode only (epoch rings are not checkpointed — their windows age out).
func (c *Collector) RestoreBaseline(r io.Reader) error {
	if c.cfg.Epoch > 0 {
		return errors.New("netsum: warm restart is cumulative-mode only (epoch-ring state ages out instead)")
	}
	built, err := c.buildErrorBounded()
	if err != nil {
		return err
	}
	sn, ok := built.(sketch.Snapshotter)
	if !ok {
		return fmt.Errorf("netsum: %q does not support Restore (need one of: %s)",
			c.cfg.Algo, capabilityNames(sketch.CapErrorBounded|sketch.CapSnapshottable))
	}
	if err := sn.Restore(r); err != nil {
		return fmt.Errorf("netsum: restoring checkpoint: %w", err)
	}
	// Claim the baseline slot before touching the merged view, so a second
	// restore cannot double-fold the checkpoint into it.
	c.mu.Lock()
	if c.baseline != nil {
		c.mu.Unlock()
		return errors.New("netsum: baseline already restored")
	}
	c.baseline = built
	c.mu.Unlock()
	if c.global != nil {
		c.globalMu.Lock()
		err := sketch.Merge(c.global, built)
		c.globalMu.Unlock()
		if err != nil {
			c.mu.Lock()
			c.baseline = nil
			c.mu.Unlock()
			return fmt.Errorf("netsum: folding checkpoint into merged view: %w", err)
		}
	}
	return nil
}

// QueryWithError answers a global query with a certified interval:
// truth ∈ [est − mpe, est]. With the merged view enabled the answer is the
// intersection of the merged sketch's interval and the estimate-sum
// interval — both are certified for the same truth, so the intersection is
// too, and it is by construction never looser than estimate-summing alone.
// In epoch mode "global" means the union of every agent's retained
// sliding window. A thin shim over the batch core (queryGlobalBatch), so
// single-key and batch answers cannot diverge.
func (c *Collector) QueryWithError(key uint64) (est, mpe uint64) {
	// No error channel on this v1 shim: a pipeline failure is logged by
	// drainIngest and keeps surfacing on every Execute/snapshot path.
	_ = c.drainIngest()
	c.queries.Add(1)
	keys := [1]uint64{key}
	var e, m [1]uint64
	c.queryGlobalBatch(keys[:], 0, e[:], m[:])
	return e[0], m[0]
}

// QueryWindowWithError answers a global sliding-window query over the last
// n sealed epochs, summing per-agent certified window answers. covered is
// the widest epoch span any agent actually answered for (0 when the
// collector is not in epoch mode or nothing is sealed yet; in cumulative
// mode the answer degenerates to the all-time global interval). A thin
// shim over the batch core.
func (c *Collector) QueryWindowWithError(key uint64, n int) (est, mpe uint64, covered int) {
	_ = c.drainIngest() // v1 shim, no error channel; see QueryWithError
	c.queries.Add(1)
	keys := [1]uint64{key}
	var e, m [1]uint64
	if c.cfg.Epoch <= 0 {
		c.queryGlobalBatch(keys[:], 0, e[:], m[:])
		return e[0], m[0], 0
	}
	covered = c.estimateSumBatch(keys[:], n, e[:], m[:])
	return e[0], m[0], covered
}

// intersectIntervals combines two certified intervals for the same truth:
// the result's upper end is the smaller estimate, its lower end the larger
// certified floor. If the inputs are inconsistent (possible only if one
// bound is unsound), the estimate-sum interval a is returned unchanged.
func intersectIntervals(aEst, aMpe, bEst, bMpe uint64) (est, mpe uint64) {
	lo := sketch.CertifiedLowerBound(aEst, aMpe)
	if blo := sketch.CertifiedLowerBound(bEst, bMpe); blo > lo {
		lo = blo
	}
	hi := aEst
	if bEst < hi {
		hi = bEst
	}
	if lo > hi {
		return aEst, aMpe
	}
	return hi, hi - lo
}

// Stats reports the number of connected-or-seen agents and the totals of
// updates accepted and queries served. Updates are counted at wire
// acceptance (submission order per connection makes the count exact for
// every frame already handled), so a stats poll never forces the pipeline
// to drain — observability stays off the write path.
func (c *Collector) Stats() (agents int, updates, queries uint64) {
	c.mu.Lock()
	agents = len(c.agents)
	c.mu.Unlock()
	return agents, c.updates.Value(), c.queries.Value()
}

// RegisterMetrics exposes the collector's instruments on reg under the
// netsum_* namespace, plus its ingest pipeline's (and, when configured,
// its WAL's). Per-agent wire counters are emitted by a scrape-time
// collector — the agent set is dynamic, so the label set cannot be
// registered up front. The generation gauge reads each ring's published
// generation WITHOUT poking (epoch.PeekGeneration semantics): a scrape
// never drives rotation or drains the pipeline.
func (c *Collector) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCounter("netsum_updates_total", "Updates accepted at wire or replay.", nil, &c.updates)
	reg.RegisterCounter("netsum_queries_total", "Global queries served.", nil, &c.queries)
	reg.GaugeFunc("netsum_agents", "Agents with measurement state.", nil, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.agents))
	})
	reg.GaugeFunc("netsum_generation", "Sum of per-agent published seal counts (no-poke read); 0 in cumulative mode.", nil, func() float64 {
		if c.cfg.Epoch <= 0 {
			return 0
		}
		var gen uint64
		for _, st := range c.snapshotAgents() {
			gen += st.ring.PeekGeneration()
		}
		return float64(gen)
	})
	reg.CollectFunc("netsum_agent_updates_total", "Updates accepted per agent.", telemetry.TypeCounter, func(emit telemetry.Emit) {
		c.mu.Lock()
		ids := make([]uint64, 0, len(c.agents))
		for id := range c.agents {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		states := make([]*agentState, len(ids))
		for i, id := range ids {
			states[i] = c.agents[id]
		}
		c.mu.Unlock()
		for i, id := range ids {
			emit(telemetry.Labels{"agent": strconv.FormatUint(id, 10)}, float64(states[i].wire.Value()))
		}
	})
	c.pipe.RegisterMetrics(reg)
	if c.cfg.WAL != nil {
		c.cfg.WAL.RegisterMetrics(reg)
	}
}

// Epochal reports whether the collector measures in sealed epoch windows —
// when true, every global answer derives only from sealed (immutable)
// windows, so answers are stable for a fixed Generation.
func (c *Collector) Epochal() bool { return c.cfg.Epoch > 0 }

// Generation returns the collector-wide sealed-set generation: the sum of
// every agent ring's seal count. It increments exactly when some agent's
// window seals, so epoch-mode answers are immutable for a fixed generation
// — the invalidation signal result caches key on. Always 0 in cumulative
// mode, where answers change with every ingested batch.
//
// Reading a ring's generation seals its overdue epoch, so the pipeline is
// drained first: a batch accepted before the boundary must land in its
// window before the read seals it. A pipeline error is logged by
// drainIngest and keeps surfacing on every Execute path.
func (c *Collector) Generation() uint64 {
	if c.cfg.Epoch <= 0 {
		return 0
	}
	_ = c.drainIngest()
	var gen uint64
	for _, st := range c.snapshotAgents() {
		gen += st.ring.Rotations()
	}
	return gen
}

// TrackedGlobal enumerates the heavy-hitter keys of the merged global view
// with their certified intervals. It requires merge-based mode: per-agent
// tracked sets cannot be combined soundly without merging (the same key may
// be tracked at several agents with incomparable adoption errors).
func (c *Collector) TrackedGlobal() ([]sketch.KV, error) {
	if c.global == nil {
		return nil, errors.New("netsum: heavy-hitter enumeration needs the merged global view (cumulative mode, Mergeable variant, merging enabled)")
	}
	hh, ok := c.global.(sketch.HeavyHitterReporter)
	if !ok {
		return nil, fmt.Errorf("netsum: %q does not report tracked keys (need one of: %s)",
			c.cfg.Algo, capabilityNames(sketch.CapErrorBounded|sketch.CapHeavyHitter))
	}
	if err := c.drainIngest(); err != nil {
		return nil, err
	}
	c.globalMu.Lock()
	defer c.globalMu.Unlock()
	return hh.Tracked(), nil
}

// ErrUnknownAgent marks a window query scoped to an agent the collector
// has never seen; callers distinguish it (a client mistake) from
// collector-side refusals with errors.Is.
var ErrUnknownAgent = errors.New("netsum: unknown agent")

// QueryAgentWindow answers a sliding-window query against one agent's
// epoch ring: key's certified interval over the agent's last n sealed
// epochs. covered is the epoch span actually answered for (0 when nothing
// is sealed yet); n beyond the ring's retention is clamped, mirroring the
// global window query. Errors name the misuse: the collector not in epoch
// mode, a window that cannot cover a single epoch, or an agent the
// collector has never seen.
func (c *Collector) QueryAgentWindow(agentID, key uint64, n int) (est, mpe uint64, covered int, err error) {
	if c.cfg.Epoch <= 0 {
		return 0, 0, 0, errors.New("netsum: agent window queries need epoch mode (CollectorConfig.Epoch > 0)")
	}
	if n < 1 {
		return 0, 0, 0, fmt.Errorf("netsum: window of %d epochs cannot cover anything", n)
	}
	if err := c.drainIngest(); err != nil {
		return 0, 0, 0, err
	}
	c.mu.Lock()
	st, ok := c.agents[agentID]
	c.mu.Unlock()
	if !ok {
		return 0, 0, 0, fmt.Errorf("%w %d", ErrUnknownAgent, agentID)
	}
	c.queries.Add(1)
	e, m, answered := st.ring.QueryWindowWithError(key, n)
	if !answered {
		return 0, 0, 0, nil
	}
	covered = st.ring.Sealed()
	if covered > n {
		covered = n
	}
	return e, m, covered, nil
}
