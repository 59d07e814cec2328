package epoch

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sketch"
	_ "repro/internal/sketch/all"
	"repro/internal/stream"
)

// fakeClock is a manually advanced clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

func oursFactory() sketch.Factory {
	return sketch.Factory{Name: "Ours", New: func(mem int) sketch.Sketch {
		return core.NewFromMemory(mem, 25, 7)
	}}
}

func registryFactory(name string) sketch.Factory {
	e, ok := sketch.Lookup(name)
	if !ok {
		panic("unknown variant " + name)
	}
	return e.Factory(sketch.Spec{Lambda: 25, Seed: 7})
}

func newRing(t *testing.T, capacity int) (*Ring, *fakeClock) {
	t.Helper()
	clk := &fakeClock{now: time.Unix(1000, 0)}
	r := NewRing(oursFactory(), 64<<10, 10*time.Second, capacity, clk.Now)
	return r, clk
}

func TestSealedEmptyBeforeFirstRotation(t *testing.T) {
	r, _ := newRing(t, 4)
	r.Insert(1, 100)
	if got := r.Query(1); got != 0 {
		t.Errorf("sealed query before rotation = %d, want 0", got)
	}
	if got := r.QueryLive(1); got == 0 {
		t.Error("live query should see the active window")
	}
	if _, _, ok := r.QuerySealedWithError(1); ok {
		t.Error("certified sealed query should fail before first rotation")
	}
	if _, _, ok := r.QueryWindowWithError(1, 4); ok {
		t.Error("certified window query should fail before first rotation")
	}
	if got := r.Sealed(); got != 0 {
		t.Errorf("Sealed()=%d before first rotation", got)
	}
}

func TestRotationSealsWindow(t *testing.T) {
	r, clk := newRing(t, 4)
	r.Insert(1, 100)
	clk.Advance(11 * time.Second)
	// First touch after the epoch boundary rotates.
	r.Insert(2, 5)
	if got := r.Query(1); got < 100 {
		t.Errorf("sealed window lost key 1: %d", got)
	}
	if got := r.Query(2); got != 0 {
		t.Errorf("key 2 belongs to the live window, sealed reports %d", got)
	}
	if got := r.QueryLive(2); got < 5 {
		t.Errorf("live window lost key 2: %d", got)
	}
	if r.Rotations() != 1 {
		t.Errorf("rotations=%d want 1", r.Rotations())
	}
}

func TestCertifiedSealedQuery(t *testing.T) {
	r, clk := newRing(t, 4)
	for i := 0; i < 500; i++ {
		r.Insert(9, 1)
	}
	clk.Advance(10 * time.Second)
	r.Insert(1, 1) // trigger rotation
	est, mpe, ok := r.QuerySealedWithError(9)
	if !ok {
		t.Fatal("certified query unavailable after rotation")
	}
	if est < 500 || est-mpe > 500 {
		t.Errorf("truth 500 outside certified [%d, %d]", est-mpe, est)
	}
}

// TestWindowQueryEqualsSingleSketch is the acceptance property: a sliding
// window over n sealed epochs must answer exactly like one sketch fed the
// same n epochs' traffic. CM is linear, so its merged view is bit-exact.
func TestWindowQueryEqualsSingleSketch(t *testing.T) {
	const epochs, perEpoch = 5, 8_000
	clk := &fakeClock{now: time.Unix(0, 0)}
	f := registryFactory("CM_fast")
	r := NewRing(f, 64<<10, time.Second, epochs+1, clk.Now)

	s := stream.IPTrace(epochs*perEpoch, 3)
	var slices [][]stream.Item
	for e := 0; e < epochs; e++ {
		slices = append(slices, s.Items[e*perEpoch:(e+1)*perEpoch])
	}
	for _, slice := range slices {
		r.InsertBatch(slice)
		clk.Advance(time.Second)
	}
	r.Insert(0xfeed, 1) // seal the last data epoch

	for _, n := range []int{1, 2, 3, epochs} {
		// One sketch fed exactly the traffic of the n newest sealed epochs.
		direct := f.New(64 << 10)
		for _, slice := range slices[epochs-n:] {
			sketch.InsertBatch(direct, slice)
		}
		mismatches := 0
		for key := range s.Truth() {
			if r.QueryWindow(key, n) != direct.Query(key) {
				mismatches++
			}
		}
		if mismatches > 0 {
			t.Errorf("window n=%d: %d keys differ from the single-sketch answer", n, mismatches)
		}
	}
}

// TestWindowQueryCertified checks the merged certified interval over a
// multi-epoch window contains the window's true sums for ReliableSketch.
func TestWindowQueryCertified(t *testing.T) {
	const epochs, perEpoch = 4, 10_000
	clk := &fakeClock{now: time.Unix(0, 0)}
	r := NewRing(oursFactory(), 128<<10, time.Second, epochs+1, clk.Now)

	s := stream.IPTrace(epochs*perEpoch, 5)
	for e := 0; e < epochs; e++ {
		r.InsertBatch(s.Items[e*perEpoch : (e+1)*perEpoch])
		clk.Advance(time.Second)
	}
	r.Insert(0xfeed, 1)

	truth := map[uint64]uint64{}
	for _, it := range s.Items[perEpoch:] { // the 3 newest sealed epochs
		truth[it.Key] += it.Value
	}
	violations, checked := 0, 0
	for key, f := range truth {
		est, mpe, ok := r.QueryWindowWithError(key, epochs-1)
		if !ok {
			t.Fatal("certified window query unavailable")
		}
		if f > est || sketch.CertifiedLowerBound(est, mpe) > f {
			violations++
		}
		if checked++; checked >= 3_000 {
			break
		}
	}
	if violations > 0 {
		t.Errorf("%d/%d keys outside merged window certified intervals", violations, checked)
	}
}

func TestQueryRangeExcludesNewerEpochs(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	r := NewRing(registryFactory("CM_fast"), 64<<10, time.Second, 4, clk.Now)
	// Epoch A: key 1 ×10; epoch B: key 1 ×3.
	for i := 0; i < 10; i++ {
		r.Insert(1, 1)
	}
	clk.Advance(time.Second)
	for i := 0; i < 3; i++ {
		r.Insert(1, 1)
	}
	clk.Advance(time.Second)
	r.Insert(2, 1) // seal epoch B
	if got := r.QueryRange(1, 0, 0); got != 3 {
		t.Errorf("newest sealed epoch reports %d, want 3", got)
	}
	if got := r.QueryRange(1, 1, 1); got != 10 {
		t.Errorf("older epoch reports %d, want 10", got)
	}
	if got := r.QueryWindow(1, 2); got != 13 {
		t.Errorf("two-epoch window reports %d, want 13", got)
	}
	if got := r.QueryWindow(1, 50); got != 13 {
		t.Errorf("over-long window should clamp: got %d, want 13", got)
	}
}

func TestRingEvictsOldestBeyondCapacity(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	r := NewRing(registryFactory("CM_fast"), 64<<10, time.Second, 3, clk.Now)
	for e := 0; e < 5; e++ {
		r.Insert(uint64(e+1), 7) // epoch e holds key e+1
		clk.Advance(time.Second)
	}
	r.Insert(99, 1) // seal epoch 4
	if got := r.Sealed(); got != 3 {
		t.Fatalf("Sealed()=%d want capacity 3", got)
	}
	// Keys from evicted epochs 0 and 1 are gone from the widest window.
	if got := r.QueryWindow(1, 3); got != 0 {
		t.Errorf("evicted epoch's key still visible: %d", got)
	}
	if got := r.QueryWindow(5, 3); got != 7 {
		t.Errorf("retained epoch's key lost: %d", got)
	}
	if r.Rotations() != 5 {
		t.Errorf("rotations=%d want 5", r.Rotations())
	}
}

func TestIdleGapSlidesWindowOut(t *testing.T) {
	r, clk := newRing(t, 4)
	r.Insert(1, 1)
	// Sleep through many epochs with no traffic.
	clk.Advance(37 * time.Minute)
	r.Insert(2, 1)
	// Must not have materialized hundreds of windows: at most capacity+1
	// seals per gap, and the pre-gap traffic has slid out entirely.
	if r.Rotations() > uint64(r.Capacity())+2 {
		t.Errorf("rotations=%d after idle gap; bounded fast-forward broken", r.Rotations())
	}
	if got := r.QueryWindow(1, 4); got != 0 {
		t.Errorf("idle gap did not slide old traffic out of the window: %d", got)
	}
	if got := r.QueryLive(2); got != 1 {
		t.Errorf("live key lost after idle gap: %d", got)
	}
}

// TestConcurrentIngestAndLockFreeReads exercises the satellite contract
// under the race detector: sealed-window queries run lock-free against
// concurrent ingest and rotation.
func TestConcurrentIngestAndLockFreeReads(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	r := NewRing(oursFactory(), 64<<10, time.Second, 4, clk.Now)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Writers: ingest and advance the clock.
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 4000; i++ {
				r.Insert(uint64(i%100), 1)
				if i%500 == 0 {
					clk.Advance(300 * time.Millisecond)
				}
			}
		}()
	}
	// Readers: hammer the sealed windows and sliding views concurrently.
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := uint64(0); k < 100; k += 7 {
					r.Query(k)
					r.QueryWindow(k, 3)
					r.QuerySealedWithError(k)
					r.QueryWindowWithError(k, 2)
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if r.Rotations() == 0 {
		t.Error("expected at least one rotation")
	}
}

func TestMemoryAndName(t *testing.T) {
	r, clk := newRing(t, 4)
	before := r.MemoryBytes()
	clk.Advance(10 * time.Second)
	r.Insert(1, 1)
	after := r.MemoryBytes()
	if after <= before {
		t.Errorf("two windows should account more than one: %d vs %d", after, before)
	}
	if r.Name() != "Ours_ring" {
		t.Errorf("Name=%q", r.Name())
	}
}

func TestGenerationAdvancesOnlyOnSeal(t *testing.T) {
	r, clk := newRing(t, 4)
	if g := r.Generation(); g != 0 {
		t.Fatalf("fresh ring generation = %d", g)
	}
	r.Insert(1, 1)
	if g := r.Generation(); g != 0 {
		t.Errorf("ingest without a seal bumped generation to %d", g)
	}
	clk.Advance(10 * time.Second)
	if g := r.Generation(); g != 1 {
		t.Errorf("generation after one seal = %d, want 1", g)
	}
	// Reads alone never advance it.
	r.Query(1)
	r.QueryWindow(1, 4)
	if g := r.Generation(); g != 1 {
		t.Errorf("queries bumped generation to %d", g)
	}
}

func TestTrackedWindowMergesSealedEpochs(t *testing.T) {
	r, clk := newRing(t, 4)
	// Key 5 is heavy in two different epochs; the merged tracked view must
	// report it once with the combined weight visible via QueryWindow.
	for i := 0; i < 500; i++ {
		r.Insert(5, 1)
	}
	clk.Advance(10 * time.Second)
	for i := 0; i < 300; i++ {
		r.Insert(5, 1)
	}
	clk.Advance(10 * time.Second)
	r.Query(0) // poke
	kvs, ok := r.TrackedWindow(2)
	if !ok {
		t.Fatal("TrackedWindow not answered for a Mergeable heavy-hitter sketch")
	}
	found := false
	for _, kv := range kvs {
		if kv.Key == 5 {
			found = true
			if kv.Est < 800 {
				t.Errorf("merged tracked estimate %d < exact 800", kv.Est)
			}
		}
	}
	if !found {
		t.Error("key 5 missing from merged tracked window")
	}
	if _, ok := r.TrackedWindow(0); ok {
		t.Error("empty window range answered")
	}
}

func TestTrackedWindowUnsupportedSketch(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	r := NewRing(registryFactory("CM_fast"), 64<<10, time.Second, 4, clk.Now)
	r.Insert(1, 1)
	clk.Advance(time.Second)
	r.Query(0)
	if _, ok := r.TrackedWindow(1); ok {
		t.Error("CM (no Tracked) answered TrackedWindow")
	}
}

// TestInsertBatchAtKeepsAcceptedEpoch pins the late-apply contract: a batch
// tagged with the epoch it was accepted in lands in that epoch's window
// even when applied after the boundary, a later tag rotates exactly up to
// its own epoch (not to wherever the clock is), and tag 0 never rotates.
func TestInsertBatchAtKeepsAcceptedEpoch(t *testing.T) {
	r, clk := newRing(t, 4)
	e1 := r.Epoch()
	clk.Advance(10 * time.Second)
	e2 := r.Epoch()
	clk.Advance(10 * time.Second)
	if e1 != 1 || e2 != 2 || r.Epoch() != 3 {
		t.Fatalf("epochs %d, %d, %d; want 1, 2, 3", e1, e2, r.Epoch())
	}

	r.InsertBatchAt(e1, []stream.Item{{Key: 1, Value: 100}}) // late, still active
	if gen := r.PeekGeneration(); gen != 0 {
		t.Fatalf("an active-epoch tag rotated the ring (generation %d)", gen)
	}
	r.InsertBatchAt(e2, []stream.Item{{Key: 1, Value: 40}}) // seals epoch 1 only
	r.InsertBatchAt(0, []stream.Item{{Key: 1, Value: 5}})   // lands in epoch 2
	if gen := r.PeekGeneration(); gen != 1 {
		t.Fatalf("generation %d after one tagged boundary, want 1", gen)
	}
	if gen := r.Generation(); gen != 2 { // the read path seals epoch 2
		t.Fatalf("generation %d after the read-path seal, want 2", gen)
	}
	if got := r.QueryRange(1, 1, 1); got != 100 {
		t.Errorf("epoch 1 window holds %d, want 100", got)
	}
	if got := r.QueryRange(1, 0, 0); got != 45 {
		t.Errorf("epoch 2 window holds %d, want 45", got)
	}
}
