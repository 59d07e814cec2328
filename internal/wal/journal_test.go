package wal

import (
	"errors"
	"maps"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ingest"
	"repro/internal/stream"
)

// counter is an exact in-memory ingester: the sum of every landed value
// per key.
type counter struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

func (c *counter) land(b ingest.Batch) ingest.Ack {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, it := range b.Items {
		c.m[it.Key] += it.Value
	}
	return ingest.Ack{Accepted: len(b.Items)}
}

func (c *counter) snapshot() map[uint64]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.m)
}

func (c *counter) ingester() Ingester {
	return Ingester{Policy: ingest.Block, Land: c.land, Drain: func() error { return nil }}
}

// TestJournalCutInvariant checks the promise recovery rests on: the state a
// Cut captured plus a replay of every record past CutLSN holds each acked
// batch exactly once, however ingest and cuts interleave.
func TestJournalCutInvariant(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), SegmentBytes: 4096, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	live := &counter{m: map[uint64]uint64{}}
	var j Journal
	if err := j.Recover(l, 0, live.ingester()); err != nil {
		t.Fatal(err)
	}

	// The cutter stops once half the batches are acked, so the last cut
	// falls mid-stream and the replay past it has work to do.
	const writers, perWriter = 4, 400
	var (
		captured map[uint64]uint64 // the state at the last cut
		cuts     int
		nAcked   atomic.Int64
		cutDone  = make(chan struct{})
	)
	go func() {
		defer close(cutDone)
		for {
			if err := j.Cut(func() error { captured = live.snapshot(); return nil }); err != nil {
				t.Error(err)
				return
			}
			if cuts++; nAcked.Load() >= writers*perWriter/2 {
				return
			}
		}
	}()
	acked := make([]map[uint64]uint64, writers)
	var wg sync.WaitGroup
	for w := range writers {
		acked[w] = map[uint64]uint64{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				b := ingest.Batch{Source: uint64(w + 1), Items: []stream.Item{
					{Key: uint64(i % 17), Value: uint64(w + 1)},
					{Key: uint64(100*w + i%5), Value: uint64(i + 1)},
				}}
				ack, err := j.Ingest(b, live.land)
				if err != nil || ack.Accepted != len(b.Items) {
					t.Errorf("writer %d batch %d: ack %+v, err %v", w, i, ack, err)
					return
				}
				for _, it := range b.Items {
					acked[w][it.Key] += it.Value
				}
				nAcked.Add(1)
			}
		}()
	}
	wg.Wait()
	<-cutDone

	want := map[uint64]uint64{}
	for _, m := range acked {
		for k, v := range m {
			want[k] += v
		}
	}
	cut := j.CutLSN()
	recovered := &counter{m: captured}
	n, err := l.Replay(cut, func(b ingest.Batch, _ uint64) error {
		recovered.land(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cuts; the last at LSN %d of %d, %d records replayed", cuts, cut, l.LastLSN(), n)
	if cut+n != l.LastLSN() {
		t.Errorf("cut %d + %d replayed records != last LSN %d", cut, n, l.LastLSN())
	}
	if !maps.Equal(recovered.m, want) {
		for k, v := range want {
			if got := recovered.m[k]; got != v {
				t.Errorf("key %d: recovered %d, acked %d", k, got, v)
			}
		}
		t.Fatalf("recovered state is not the acked items exactly once")
	}
}

// TestJournalWithoutLog checks the zero Journal: ingest lands directly, a
// cut only captures, and there is nothing to commit or report.
func TestJournalWithoutLog(t *testing.T) {
	c := &counter{m: map[uint64]uint64{}}
	var j Journal
	if err := j.Recover(nil, 7, c.ingester()); err != nil {
		t.Fatal(err)
	}
	ack, err := j.Ingest(ingest.Batch{Items: []stream.Item{{Key: 1, Value: 5}}}, c.land)
	if err != nil || ack.Accepted != 1 || c.m[1] != 5 {
		t.Fatalf("ingest without a log: ack %+v, err %v, state %v", ack, err, c.m)
	}
	captured := false
	if err := j.Cut(func() error { captured = true; return nil }); err != nil || !captured {
		t.Fatalf("cut without a log: captured %v, err %v", captured, err)
	}
	if j.CutLSN() != 0 || j.Commit() != nil || j.Stats() != nil {
		t.Fatalf("log-less journal reports cut %d, stats %v", j.CutLSN(), j.Stats())
	}
}

// TestJournalRefuses pins the two refused configurations to their
// sentinels, checked before a single record replays.
func TestJournalRefuses(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 3)
	c := &counter{m: map[uint64]uint64{}}
	for _, tc := range []struct {
		name string
		in   Ingester
		want error
	}{
		{"epoch mode", Ingester{Epochal: true, Policy: ingest.Block, Land: c.land}, ErrEpochMode},
		{"drop policy", Ingester{Policy: ingest.Drop, Land: c.land}, ErrDropPolicy},
	} {
		var j Journal
		if err := j.Recover(l, 0, tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if len(c.m) != 0 {
		t.Errorf("a refused recovery replayed records: %v", c.m)
	}
	var j Journal
	if err := j.Recover(l, 0, c.ingester()); err != nil {
		t.Fatal(err)
	}
	if err := j.Recover(l, 0, c.ingester()); err == nil {
		t.Error("a journal accepted a second log")
	}
}
