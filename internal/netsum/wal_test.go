package netsum

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/sketch"
	"repro/internal/wal"
)

func openTestWAL(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncPolicy{Mode: wal.SyncEachBatch}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func newWALCollector(t *testing.T, l *wal.Log, startLSN uint64) *Collector {
	t.Helper()
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec:        sketch.Spec{Lambda: 25, MemoryBytes: 256 << 10, Seed: 1},
		WAL:         l,
		WALStartLSN: startLSN,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCollectorRefusesWALWithDropPolicy(t *testing.T) {
	// Drop could refuse a batch the log already made durable — live state
	// would say dropped while replay resurrects it — so the combination is
	// rejected at construction, like WAL + epoch mode.
	l := openTestWAL(t, t.TempDir())
	_, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec:   sketch.Spec{Lambda: 25, MemoryBytes: 256 << 10, Seed: 1},
		WAL:    l,
		Ingest: ingest.Tuning{Policy: ingest.Drop},
		Logf:   t.Logf,
	})
	if err == nil {
		t.Fatal("NewCollector accepted WAL + drop policy")
	}
}

// record streams n updates of key from one agent and forces them through a
// query round-trip, so they are both WAL-appended and applied when it
// returns.
func record(t *testing.T, c *Collector, agentID, key uint64, n int) {
	t.Helper()
	a, err := Dial(c.Addr(), agentID)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < n; i++ {
		if err := a.Record(key, 1); err != nil {
			t.Fatal(err)
		}
	}
	agentPoint(t, a, key)
}

func TestCollectorWALReplayRestoresCounts(t *testing.T) {
	// Wire batches survive a collector restart: the log stored each decoded
	// batch with its agent attribution, and replay routes them through the
	// same pipeline live traffic takes.
	dir := t.TempDir()
	l1 := openTestWAL(t, dir)
	c1 := newWALCollector(t, l1, 0)
	record(t, c1, 0, 42, 700) // agent 0 exercises the Source=id+1 mapping
	record(t, c1, 1, 42, 300)
	c1.Close()
	l1.Close()

	l2 := openTestWAL(t, dir)
	c2 := newWALCollector(t, l2, 0)
	if got := l2.Stats().Replayed; got == 0 {
		t.Fatal("restarted collector replayed nothing")
	}
	// Attribution survived: the global answer sums agent state rebuilt
	// purely by replay.
	if e := collectorPoint(t, c2, 42); e.Upper < 1000 || e.Lower > 1000 {
		t.Errorf("recovered truth 1000 outside certified [%d, %d]", e.Lower, e.Upper)
	}
	agents, updates, _ := c2.Stats()
	if agents != 2 || updates != 1000 {
		t.Errorf("recovered %d agents / %d updates, want 2 / 1000", agents, updates)
	}
}

func TestCollectorSnapshotCutTruncatesWAL(t *testing.T) {
	// SnapshotGlobal defines the cut; committing it advances the watermark
	// so only post-cut records replay on the next start, on top of the
	// restored baseline.
	dir := t.TempDir()
	l1 := openTestWAL(t, dir)
	c1 := newWALCollector(t, l1, 0)
	record(t, c1, 7, 42, 600)
	var ckpt bytes.Buffer
	if err := c1.SnapshotGlobal(&ckpt); err != nil {
		t.Fatal(err)
	}
	cut := c1.WALCutLSN()
	if cut == 0 {
		t.Fatal("snapshot did not record a WAL cut")
	}
	if err := c1.WALCheckpointCommitted(); err != nil {
		t.Fatal(err)
	}
	if got := l1.Watermark(); got != cut {
		t.Fatalf("watermark = %d after commit, want the cut %d", got, cut)
	}
	if ws := c1.WALStats(); ws == nil || ws.Watermark != cut {
		t.Fatalf("WALStats = %+v, want watermark %d", ws, cut)
	}
	record(t, c1, 7, 42, 400) // tail traffic past the cut
	c1.Close()
	l1.Close()

	l2 := openTestWAL(t, dir)
	c2 := newWALCollector(t, l2, cut)
	if err := c2.RestoreBaseline(&ckpt); err != nil {
		t.Fatal(err)
	}
	replayed := l2.Stats().Replayed
	if replayed == 0 || replayed > 400/512+1 {
		// 400 updates fit one agent flush; the point is that the 600
		// checkpointed ones did NOT replay again.
		t.Fatalf("replayed %d records, want only the post-cut tail", replayed)
	}
	if e := collectorPoint(t, c2, 42); e.Upper < 1000 || e.Lower > 1000 {
		t.Errorf("recovered truth 1000 outside certified [%d, %d] (double-replay or lost tail)", e.Lower, e.Upper)
	}
}

func TestCollectorWALRefusesEpochMode(t *testing.T) {
	l := openTestWAL(t, t.TempDir())
	_, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec:  sketch.Spec{Lambda: 25, MemoryBytes: 256 << 10, Seed: 1},
		Epoch: 50 * time.Millisecond,
		WAL:   l,
	})
	if err == nil {
		t.Fatal("epoch-mode collector accepted a WAL")
	}
}
