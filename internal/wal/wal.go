// Package wal is the durability subsystem at the ingest-plane boundary: a
// write-ahead log of typed ingest.Batch frames, so an Ack can be a promise
// the system keeps across a crash. Without it, everything since the last
// checkpoint dies with the process.
//
// The log is a directory of append-only segment files (length-framed,
// CRC32-checked records; rotation by size) plus a MANIFEST tracking segment
// order and the checkpoint watermark. Appends are made durable under a
// configurable fsync policy before the caller acks:
//
//   - per-batch: every Append fsyncs before returning — an ack is durable.
//   - group-commit: appends join a cohort; a background syncer fsyncs every
//     interval and releases the whole cohort — acks are durable, at ~interval
//     latency, with one fsync amortized over every batch in the cohort.
//   - off: no per-append fsync — acks survive process crashes (the page
//     cache persists) but not power loss. Segments still sync on rotation
//     and close.
//
// Recovery is restore-newest-checkpoint + Replay of every record past the
// checkpoint's watermark through the same ingest pipeline live traffic
// takes, so recovered state passes the exact certified-bounds contract live
// state does. A successful checkpoint advances the watermark
// (TruncateThrough) and deletes dead segments. Torn tails — a crash mid
// append — are detected by CRC at Open, truncated to the last whole record,
// and counted; a partial batch is never replayed.
//
// Journal runs that protocol for every ingester — replay, append before
// land, the checkpoint cut, truncation after commit and the two refused
// configurations — and each ingester supplies only its landing path.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/telemetry"
)

// SyncMode selects when an appended record is fsync'd.
type SyncMode uint8

const (
	// SyncEachBatch fsyncs inside every Append: the strongest promise, one
	// fsync per batch.
	SyncEachBatch SyncMode = iota
	// SyncGroup batches fsyncs: Append waits for the next group commit, so
	// the ack is still durable, at up to Interval extra latency.
	SyncGroup
	// SyncOff never fsyncs on the append path. Acks survive a process
	// crash (the kernel holds the pages) but not power loss.
	SyncOff
)

// DefaultGroupInterval is the group-commit cadence when none is given.
const DefaultGroupInterval = 2 * time.Millisecond

// FsyncPolicy is the operator-visible durability knob (-wal-fsync).
type FsyncPolicy struct {
	Mode SyncMode
	// Interval is the group-commit cadence (SyncGroup only); ≤ 0 means
	// DefaultGroupInterval.
	Interval time.Duration
}

// String renders the policy in its flag spelling.
func (p FsyncPolicy) String() string {
	switch p.Mode {
	case SyncGroup:
		iv := p.Interval
		if iv <= 0 {
			iv = DefaultGroupInterval
		}
		return iv.String()
	case SyncOff:
		return "off"
	}
	return "batch"
}

// ParseFsync reads a -wal-fsync flag value: "batch" (per-batch, the
// default), "off", or a duration ("2ms", "10ms") selecting group commit at
// that interval.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch s {
	case "", "batch", "per-batch":
		return FsyncPolicy{Mode: SyncEachBatch}, nil
	case "off", "none":
		return FsyncPolicy{Mode: SyncOff}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return FsyncPolicy{}, fmt.Errorf("wal: fsync policy %q (want batch, off, or a group-commit interval like 5ms)", s)
	}
	return FsyncPolicy{Mode: SyncGroup, Interval: d}, nil
}

// DefaultSegmentBytes is the rotation threshold when Options leaves it 0.
const DefaultSegmentBytes = 64 << 20

// Options configures a Log.
type Options struct {
	// Dir is the log directory, created if absent. One Log owns it.
	Dir string
	// SegmentBytes rotates to a fresh segment once the active one reaches
	// this size; ≤ 0 means DefaultSegmentBytes. A single record larger than
	// the threshold still lands whole (segments are a soft bound).
	SegmentBytes int64
	// Fsync picks the durability of an Append's return.
	Fsync FsyncPolicy
	// Logf receives operational diagnostics (torn-tail truncations, stale
	// segment cleanup); nil silences them.
	Logf func(format string, args ...any)
}

// Stats is the log's observability snapshot, served under /v1/status.
type Stats struct {
	Policy    string `json:"policy"`
	Segments  int    `json:"segments"`
	Bytes     int64  `json:"bytes"`
	LastLSN   uint64 `json:"last_lsn"`
	Watermark uint64 `json:"watermark"`
	// Appended counts records appended by this process; Fsyncs the syncs
	// that made them durable.
	Appended  uint64 `json:"appended_records"`
	Fsyncs    uint64 `json:"fsyncs"`
	LastFsync string `json:"last_fsync,omitempty"`
	// Replayed counts records recovered through Replay at startup.
	// TornTruncations counts torn-tail truncation events at Open: each event
	// drops every byte past the last whole record. It is an event count, not
	// a record count — record boundaries past the first bad frame are
	// unknowable, so the records lost per event cannot be counted.
	Replayed        uint64 `json:"replayed_records"`
	TornTruncations uint64 `json:"torn_tail_truncations"`
	LastError       string `json:"last_error,omitempty"`
}

// segment is one log file's identity: its name, the LSN of its first
// record, and (sealed segments) its size on disk.
type segment struct {
	name  string
	first uint64
	size  int64
}

// cohort is one group commit: every Append since the last sync waits on
// done and reads err after the syncer (or a rotation/close sync) releases
// it. n counts the appends amortized over the cohort's one fsync.
type cohort struct {
	done chan struct{}
	err  error
	n    int
}

// Log is the write-ahead log. Append is safe for concurrent use; Replay and
// TruncateThrough serialize against appends internally. LSNs are 1-based
// record ordinals across the log's whole life — segment file names carry
// their first record's LSN, so a record's position is implicit and never
// stored per record.
type Log struct {
	opts Options

	mu        sync.Mutex
	f         *os.File // active segment, positioned at its end
	segs      []segment
	curSize   int64
	nextLSN   uint64
	watermark uint64
	scratch   []byte
	pending   *cohort
	failed    error
	closed    bool

	// Counters double as the log's Prometheus instruments
	// (RegisterMetrics): a telemetry.Counter is one atomic word, the same
	// cost as the atomic.Uint64 each replaced. Every write to them happens
	// while holding l.mu, which is what lets Stats read a fully consistent
	// snapshot under one lock hold.
	appended    telemetry.Counter
	fsyncs      telemetry.Counter
	lastFsync   atomic.Int64 // unix nanos; 0 = never
	replayed    telemetry.Counter
	torn        telemetry.Counter
	truncations telemetry.Counter

	// Latency and cohort-shape distributions. Observations happen outside
	// any per-item loop: once per Append, once per fsync, once per cohort.
	// The histograms stay nil (observing into nil is a no-op) until
	// RegisterMetrics allocates them, keeping Open allocation-free — the
	// replay benchmark opens a log per iteration and the perf gate pins its
	// allocs/op. Atomic pointers, because registration may race an append
	// (a collector accepts connections before its CLI wires metrics up).
	appendSeconds atomic.Pointer[telemetry.Histogram]
	fsyncSeconds  atomic.Pointer[telemetry.Histogram]
	cohortSizes   atomic.Pointer[telemetry.Histogram]

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open opens (creating if needed) the log in opts.Dir: loads the manifest,
// reconciles it with the directory, scans the tail segment for torn
// records (truncating to the last whole one, counted in Stats), and
// positions the log for appending. The caller should Replay before the
// first Append.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	l := &Log{
		opts: opts,
		stop: make(chan struct{}),
	}
	if err := l.load(); err != nil {
		return nil, err
	}
	if opts.Fsync.Mode == SyncGroup {
		iv := opts.Fsync.Interval
		if iv <= 0 {
			iv = DefaultGroupInterval
		}
		l.wg.Add(1)
		go l.syncLoop(iv)
	}
	return l, nil
}

// load reads the manifest, reconciles the segment set with the directory,
// opens the tail segment (truncating a torn tail), and derives nextLSN.
func (l *Log) load() error {
	m, err := readManifest(l.opts.Dir)
	if err != nil {
		return err
	}
	l.watermark = m.Watermark
	segs, err := reconcileSegments(l.opts.Dir, m, l.logf)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		// Fresh log: create the first segment and persist the manifest
		// before any record exists, so a crash here leaves a valid empty
		// log.
		if err := l.openSegment(1); err != nil {
			return err
		}
		return l.writeManifest()
	}
	// Sealed segments keep their on-disk sizes for Stats; the tail segment
	// is scanned record by record, truncated past the last whole record.
	for i := range segs[:len(segs)-1] {
		fi, err := os.Stat(filepath.Join(l.opts.Dir, segs[i].name))
		if err != nil {
			return fmt.Errorf("wal: sealed segment vanished: %w", err)
		}
		segs[i].size = fi.Size()
	}
	tail := &segs[len(segs)-1]
	records, validBytes, tornBytes, err := scanSegment(filepath.Join(l.opts.Dir, tail.name), tail.first)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, tail.name), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if tornBytes > 0 {
		// A crash tore the tail mid-record (or corruption flipped a CRC):
		// drop everything from the first bad frame on — a partial batch is
		// never replayed — and continue appending at the clean boundary. A
		// file shorter than its header is an interrupted segment creation,
		// not a lost record, so it is repaired without counting as torn.
		if validBytes >= segmentHeaderLen {
			l.torn.Add(1)
		}
		l.logf("wal: %s: dropping %d torn/corrupt tail bytes after record %d (last whole LSN %d)",
			tail.name, tornBytes, records, tail.first+uint64(records)-1)
		if err := f.Truncate(validBytes); err != nil {
			f.Close()
			return fmt.Errorf("wal: truncating torn tail of %s: %w", tail.name, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if validBytes < segmentHeaderLen {
		// The crash interrupted segment creation itself: rewrite the header.
		if err := writeSegmentHeader(f, tail.first); err != nil {
			f.Close()
			return err
		}
		validBytes = segmentHeaderLen
	} else if _, err := f.Seek(validBytes, 0); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segs = segs
	l.curSize = validBytes
	l.nextLSN = tail.first + uint64(records)
	return nil
}

// Append writes one batch to the log and returns once the record is
// durable under the configured fsync policy. The returned LSN names the
// record for watermark bookkeeping. Concurrency-safe; an I/O failure is
// sticky — the log refuses further appends rather than acking batches it
// can no longer promise to keep.
func (l *Log) Append(b ingest.Batch) (uint64, error) {
	// Append latency is measured to the durable return — for SyncGroup that
	// includes the cohort wait, which is the latency an acked producer saw.
	start := time.Now()
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	l.scratch = appendRecord(l.scratch[:0], b)
	rec := l.scratch
	if l.curSize > segmentHeaderLen && l.curSize+int64(len(rec)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.failLocked(err)
			l.mu.Unlock()
			return 0, err
		}
	}
	if _, err := l.f.Write(rec); err != nil {
		err = fmt.Errorf("wal: appending record: %w", err)
		l.failLocked(err)
		l.mu.Unlock()
		return 0, err
	}
	l.curSize += int64(len(rec))
	lsn := l.nextLSN
	l.nextLSN++
	l.appended.Add(1)

	switch l.opts.Fsync.Mode {
	case SyncEachBatch:
		err := l.syncLocked()
		if err != nil {
			l.failLocked(err)
		}
		l.mu.Unlock()
		l.appendSeconds.Load().ObserveDuration(time.Since(start))
		return lsn, err
	case SyncGroup:
		if l.pending == nil {
			l.pending = &cohort{done: make(chan struct{})}
		}
		c := l.pending
		c.n++
		l.mu.Unlock()
		<-c.done // released by the syncer, a rotation, or Close
		l.appendSeconds.Load().ObserveDuration(time.Since(start))
		return lsn, c.err
	default: // SyncOff
		l.mu.Unlock()
		l.appendSeconds.Load().ObserveDuration(time.Since(start))
		return lsn, nil
	}
}

// usableLocked rejects appends on closed or failed logs.
func (l *Log) usableLocked() error {
	if l.closed {
		return errors.New("wal: log is closed")
	}
	return l.failed
}

// syncLocked fsyncs the active segment and stamps the counters.
func (l *Log) syncLocked() error {
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.fsyncSeconds.Load().ObserveDuration(time.Since(start))
	l.fsyncs.Inc()
	l.lastFsync.Store(time.Now().UnixNano())
	return nil
}

// releaseCohortLocked completes the pending group commit with err.
func (l *Log) releaseCohortLocked(err error) {
	if l.pending != nil {
		l.cohortSizes.Load().Observe(float64(l.pending.n))
		l.pending.err = err
		close(l.pending.done)
		l.pending = nil
	}
}

// syncLoop is the group-commit syncer: every interval, if any appends are
// waiting, one fsync makes the whole cohort durable.
func (l *Log) syncLoop(interval time.Duration) {
	defer l.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if l.pending != nil && !l.closed {
				err := l.syncLocked()
				if err != nil {
					l.failLocked(err)
				}
				l.releaseCohortLocked(err)
			}
			l.mu.Unlock()
		case <-l.stop:
			return
		}
	}
}

// rotateLocked seals the active segment (fsync — sealed segments are always
// complete on disk) and opens a fresh one at the current LSN, recording the
// new order in the manifest. A pending group cohort's records all live in
// the sealed file, so the rotation sync releases it.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		l.releaseCohortLocked(err)
		return err
	}
	l.releaseCohortLocked(nil)
	if err := l.f.Close(); err != nil {
		return err
	}
	l.segs[len(l.segs)-1].size = l.curSize
	if err := l.openSegment(l.nextLSN); err != nil {
		return err
	}
	return l.writeManifest()
}

// openSegment creates the segment whose first record will be lsn and makes
// it the active file.
func (l *Log) openSegment(lsn uint64) error {
	name := segmentName(lsn)
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", name, err)
	}
	if err := writeSegmentHeader(f, lsn); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.curSize = segmentHeaderLen
	l.segs = append(l.segs, segment{name: name, first: lsn})
	if l.nextLSN < lsn {
		l.nextLSN = lsn
	}
	return nil
}

// writeManifest persists the current segment order and watermark.
func (l *Log) writeManifest() error {
	names := make([]string, len(l.segs))
	for i, s := range l.segs {
		names[i] = s.name
	}
	return writeManifest(l.opts.Dir, manifest{Version: manifestVersion, Watermark: l.watermark, Segments: names})
}

// LastLSN returns the LSN of the most recently appended record (0 when the
// log has never held one). Under a Journal cut — appends excluded — this
// is the exact watermark a snapshot covers.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Watermark returns the manifest's checkpoint watermark: every record at or
// below it is covered by a durable checkpoint and will never be replayed.
func (l *Log) Watermark() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.watermark
}

// TruncateThrough advances the watermark to lsn (monotonic; lower values
// no-op) and deletes segments whose every record is covered. The manifest
// is made durable before any file is removed, so a crash mid-truncation
// leaves only unreferenced files, which the next Open cleans up.
func (l *Log) TruncateThrough(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn <= l.watermark {
		return nil
	}
	l.watermark = lsn
	l.truncations.Inc()
	// Segment i's records end where segment i+1 begins; the active (last)
	// segment always stays — appends continue into it.
	keepFrom := 0
	for i := 0; i+1 < len(l.segs); i++ {
		if l.segs[i+1].first <= lsn+1 {
			keepFrom = i + 1
		}
	}
	dead := append([]segment(nil), l.segs[:keepFrom]...)
	l.segs = l.segs[keepFrom:]
	if err := l.writeManifest(); err != nil {
		l.failLocked(err)
		return err
	}
	for _, s := range dead {
		if err := os.Remove(filepath.Join(l.opts.Dir, s.name)); err != nil {
			l.logf("wal: removing dead segment %s: %v", s.name, err)
		}
	}
	return nil
}

// Sync forces an fsync of the active segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	return l.syncLocked()
}

// Close syncs and closes the active segment. Further Appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncLocked()
	l.releaseCohortLocked(err)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// failLocked records the first I/O failure; the log stops accepting.
func (l *Log) failLocked(err error) {
	if l.failed == nil {
		l.failed = err
	}
}

// Stats snapshots the log's counters under ONE l.mu hold. Every counter
// write happens while holding l.mu (Append, syncLocked's callers, Replay,
// and load all do), so the snapshot is fully consistent: appended never
// lags behind the LSN it produced, fsyncs never lag the appends they made
// durable. Prometheus scrapes (RegisterMetrics) deliberately keep the
// lock-free independent atomic loads instead — there, appended/fsyncs/
// replayed/torn/truncations may each be exact for slightly different
// instants within one scrape, the standard exposition contract.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		Policy:          l.opts.Fsync.String(),
		Segments:        len(l.segs),
		LastLSN:         l.nextLSN - 1,
		Watermark:       l.watermark,
		Bytes:           l.curSize,
		Appended:        l.appended.Value(),
		Fsyncs:          l.fsyncs.Value(),
		Replayed:        l.replayed.Value(),
		TornTruncations: l.torn.Value(),
	}
	for _, seg := range l.segs[:max(len(l.segs)-1, 0)] {
		s.Bytes += seg.size
	}
	if l.failed != nil {
		s.LastError = l.failed.Error()
	}
	if ns := l.lastFsync.Load(); ns != 0 {
		s.LastFsync = time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
	}
	return s
}

// RegisterMetrics exposes the log's instruments on reg under the wal_*
// namespace. Counters are the same atomic words Stats reads; sizes,
// positions, and the watermark are sampled at scrape time under a brief
// l.mu hold (they are plain fields), never on the append path.
func (l *Log) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCounter("wal_appended_records_total", "Records appended by this process.", nil, &l.appended)
	reg.RegisterCounter("wal_fsyncs_total", "Fsyncs of the active segment.", nil, &l.fsyncs)
	reg.RegisterCounter("wal_replayed_records_total", "Records recovered through Replay at startup.", nil, &l.replayed)
	reg.RegisterCounter("wal_torn_tail_truncations_total", "Torn-tail truncation events at Open.", nil, &l.torn)
	reg.RegisterCounter("wal_truncations_total", "Watermark advances via TruncateThrough.", nil, &l.truncations)
	// The histograms come to life here, not at Open: observations into the
	// nil pre-registration pointers are no-ops, so the series cover
	// everything from registration on (in every server wiring, that is
	// before the first live append).
	l.appendSeconds.CompareAndSwap(nil, telemetry.NewHistogram(telemetry.LatencyBuckets()))
	l.fsyncSeconds.CompareAndSwap(nil, telemetry.NewHistogram(telemetry.LatencyBuckets()))
	l.cohortSizes.CompareAndSwap(nil, telemetry.NewHistogram(telemetry.SizeBuckets()))
	reg.RegisterHistogram("wal_append_duration_seconds", "Append latency to the durable return (includes group-commit wait).", nil, l.appendSeconds.Load())
	reg.RegisterHistogram("wal_fsync_duration_seconds", "Latency of one fsync of the active segment.", nil, l.fsyncSeconds.Load())
	reg.RegisterHistogram("wal_cohort_size", "Appends amortized over one group-commit fsync.", nil, l.cohortSizes.Load())
	reg.GaugeFunc("wal_segments", "Live segment files.", nil, func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return float64(len(l.segs))
	})
	reg.GaugeFunc("wal_bytes", "Bytes across live segments.", nil, func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		b := l.curSize
		for _, seg := range l.segs[:max(len(l.segs)-1, 0)] {
			b += seg.size
		}
		return float64(b)
	})
	reg.GaugeFunc("wal_last_lsn", "LSN of the most recently appended record.", nil, func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return float64(l.nextLSN - 1)
	})
	reg.GaugeFunc("wal_watermark", "Checkpoint watermark; records at or below it never replay.", nil, func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return float64(l.watermark)
	})
}

func (l *Log) logf(format string, args ...any) {
	if l.opts.Logf != nil {
		l.opts.Logf(format, args...)
	}
}
