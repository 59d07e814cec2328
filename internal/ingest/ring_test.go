package ingest_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/sketch"
	_ "repro/internal/sketch/all"
	"repro/internal/stream"
)

// fakeClock is a test clock the ring reads; advance it to cross epochs.
// Reads and advances are atomic: ring read paths may consult the clock from
// any goroutine.
type fakeClock struct{ nanos atomic.Int64 }

func (c *fakeClock) clock() time.Time        { return time.Unix(0, c.nanos.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.nanos.Add(int64(d)) }

// TestForRingSealedWindowsExact pins the epoch-exactness contract: every
// batch submitted during an epoch lands in that epoch's window before the
// read path seals it, so sealed sliding-window answers equal sequential
// per-epoch ingestion exactly (CM: linear, bit-exact).
func TestForRingSealedWindowsExact(t *testing.T) {
	spec := sketch.Spec{MemoryBytes: 1 << 18, Seed: 5}
	entry, _ := sketch.Lookup("CM_fast")
	clk := &fakeClock{}
	interval := 10 * time.Second
	ring := epoch.NewRing(entry.Factory(spec), spec.MemoryBytes, interval, 4, clk.clock)
	p := ingest.ForRing(ring, ingest.Tuning{Workers: 3})
	defer p.Close()

	// Reference: a plain ring fed synchronously with the same per-epoch
	// traffic (same clock schedule).
	refClk := &fakeClock{}
	ref := epoch.NewRing(entry.Factory(spec), spec.MemoryBytes, interval, 4, refClk.clock)

	perEpoch := [][]stream.Item{
		stream.Zipf(9_000, 700, 1.1, 1).Items,
		stream.Zipf(9_000, 700, 1.1, 2).Items,
		stream.Zipf(9_000, 700, 1.1, 3).Items,
	}
	for _, items := range perEpoch {
		for _, c := range chunks(items, 600) {
			p.Submit(ingest.Batch{Items: c})
		}
		ref.InsertBatch(items)
		clk.advance(interval)
		refClk.advance(interval)
		// A read path observes the overdue epoch: it must drain the
		// pipeline first, then seal — landing every submitted batch in the
		// window that was active when it was submitted.
		ring.Rotations()
		ref.Rotations()
	}
	if got, want := ring.Sealed(), ref.Sealed(); got != want {
		t.Fatalf("pipelined ring sealed %d windows, reference %d", got, want)
	}

	keys := make(map[uint64]struct{})
	for _, items := range perEpoch {
		for _, it := range items {
			keys[it.Key] = struct{}{}
		}
	}
	for n := 1; n <= 3; n++ {
		for key := range keys {
			if got, want := ring.QueryWindow(key, n), ref.QueryWindow(key, n); got != want {
				t.Fatalf("window %d key %d: pipelined ring %d, sequential ring %d", n, key, got, want)
			}
		}
	}
}

// TestForRingCertifiedUnderConcurrency runs pipelined ingest, clock
// advances, and sliding-window Execute queries concurrently (the -race
// interleaving case for ring-backed sketches), then asserts the drained
// ring's certified window bounds contain the exact per-key sums.
func TestForRingCertifiedUnderConcurrency(t *testing.T) {
	spec := sketch.Spec{MemoryBytes: 1 << 19, Lambda: 25, Seed: 9}
	entry, _ := sketch.Lookup("Ours")
	clk := &fakeClock{}
	interval := time.Hour // epochs advance only when we say so
	ring := epoch.NewRing(entry.Factory(spec), spec.MemoryBytes, interval, 8, clk.clock)
	p := ingest.ForRing(ring, ingest.Tuning{Workers: 4})
	defer p.Close()

	s := testStream(t, 40_000)
	half := len(s.Items) / 2
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, c := range chunks(s.Items[:half], 512) {
			p.Submit(ingest.Batch{Items: c})
		}
	}()
	// Readers race the writers: answers must stay well-formed even while
	// batches land (their content covers whatever had landed by then).
	for i := 0; i < 50; i++ {
		ans, err := ring.Execute(query.Request{Kind: query.Window, Keys: []uint64{s.Items[i].Key}, Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ans.PerKey {
			if e.Lower > e.Est || e.Est > e.Upper {
				t.Fatalf("malformed interval mid-ingest: %+v", e)
			}
		}
	}
	<-done

	// Seal epoch 1, ingest the rest into epoch 2, seal it too.
	clk.advance(interval)
	for _, c := range chunks(s.Items[half:], 512) {
		p.Submit(ingest.Batch{Items: c})
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	clk.advance(interval)
	if gen := ring.Generation(); gen != 2 {
		t.Fatalf("generation %d after two seals", gen)
	}

	for key, exact := range s.Truth() {
		est, mpe, ok := ring.QueryWindowWithError(key, 2)
		if !ok {
			t.Fatalf("key %d: window query not certified", key)
		}
		lo := sketch.CertifiedLowerBound(est, mpe)
		if exact < lo || exact > est {
			t.Fatalf("key %d: certified window interval [%d, %d] misses exact %d", key, lo, est, exact)
		}
	}
}
