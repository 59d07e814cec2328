package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ingest"
	"repro/internal/telemetry"
)

// The two ingester configurations a log cannot make durable. A drop-policy
// queue could refuse a batch already on disk: live state says dropped,
// replay resurrects it, and replay itself could fail on a healthy log.
var (
	ErrEpochMode  = errors.New("wal: durable ingest is cumulative-mode only (replaying a log into an epoch ring would resurrect expired traffic)")
	ErrDropPolicy = errors.New("wal: durable ingest requires the block ingest policy (drop could refuse a durable batch live, then resurrect it on replay)")
)

// Refuse reports why an ingester in the given mode cannot be journaled, or
// nil. Synchronous ingesters never drop and pass ingest.Block.
func Refuse(epochal bool, policy ingest.Policy) error {
	if epochal {
		return ErrEpochMode
	}
	if policy == ingest.Drop {
		return ErrDropPolicy
	}
	return nil
}

// Ingester is the in-memory side a Journal recovers into: its mode, for
// Refuse; the landing path live batches take, where a replayed batch with
// Dropped > 0 fails recovery; and the barrier that makes landed batches
// visible to readers.
type Ingester struct {
	Epochal bool
	Policy  ingest.Policy
	Land    func(ingest.Batch) ingest.Ack
	Drain   func() error
}

// Journal is the durability protocol in front of an ingester. Every record
// at or below CutLSN is in the state the last Cut captured and every record
// above it is not, so restoring that capture and replaying past CutLSN
// applies each acked batch exactly once. Ingest holds the cut lock shared
// around each (append, land) pair; Cut holds it exclusive around capture.
// land and capture therefore must not call back into the Journal.
//
// The zero Journal has no log: Ingest lands directly, Cut only captures,
// and Commit, Stats and RegisterMetrics do nothing. It must not be copied.
type Journal struct {
	mu  sync.RWMutex
	log *Log
	cut atomic.Uint64
}

// Recover attaches l. It refuses what Refuse refuses, replays every record
// past max(after, l.Watermark()) through in.Land, drains, and only then
// journals Ingest into l. after is the cut a restored checkpoint recorded
// (0 on a cold start). A nil l leaves the journal without a log.
func (j *Journal) Recover(l *Log, after uint64, in Ingester) error {
	if l == nil {
		return nil
	}
	if j.log != nil {
		return errors.New("wal: journal already has a log")
	}
	if err := Refuse(in.Epochal, in.Policy); err != nil {
		return err
	}
	after = max(after, l.Watermark())
	if _, err := l.Replay(after, func(b ingest.Batch, lsn uint64) error {
		if ack := in.Land(b); ack.Dropped > 0 {
			return fmt.Errorf("wal: replaying record %d: %d items refused", lsn, ack.Dropped)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := in.Drain(); err != nil {
		return fmt.Errorf("wal: draining replayed records: %w", err)
	}
	j.cut.Store(after)
	j.log = l
	return nil
}

// Ingest appends b — durable under the fsync policy — and then lands it. A
// failed append is returned without landing: the caller must refuse the
// batch, not ack a write that would vanish on restart.
func (j *Journal) Ingest(b ingest.Batch, land func(ingest.Batch) ingest.Ack) (ingest.Ack, error) {
	if j.log == nil {
		return land(b), nil
	}
	j.mu.RLock()
	defer j.mu.RUnlock()
	if _, err := j.log.Append(b); err != nil {
		return ingest.Ack{}, err
	}
	return land(b), nil
}

// Cut runs capture — the ingester's drain and serialize — with Ingest
// excluded, and on success makes the log's last LSN the cut.
func (j *Journal) Cut(capture func() error) error {
	if j.log == nil {
		return capture()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := capture(); err != nil {
		return err
	}
	j.cut.Store(j.log.LastLSN())
	return nil
}

// CutLSN is the log position the last Cut (or Recover) covered.
func (j *Journal) CutLSN() uint64 { return j.cut.Load() }

// Commit reports that the checkpoint holding the last cut is durable, so
// the log truncates through it.
func (j *Journal) Commit() error {
	if j.log == nil {
		return nil
	}
	return j.log.TruncateThrough(j.cut.Load())
}

// Stats snapshots the log's counters; nil without a log.
func (j *Journal) Stats() *Stats {
	if j.log == nil {
		return nil
	}
	st := j.log.Stats()
	return &st
}

// RegisterMetrics exposes the log's wal_* instruments on reg.
func (j *Journal) RegisterMetrics(reg *telemetry.Registry) {
	if j.log != nil {
		j.log.RegisterMetrics(reg)
	}
}
