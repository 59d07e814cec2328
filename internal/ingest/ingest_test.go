package ingest_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ingest"
	"repro/internal/sketch"
	_ "repro/internal/sketch/all"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// testStream is a small skewed stream with known ground truth.
func testStream(t testing.TB, n int) *stream.Stream {
	t.Helper()
	return stream.Zipf(n, n/10, 1.1, 7)
}

// chunks slices a stream into submission-sized batches.
func chunks(items []stream.Item, size int) [][]stream.Item {
	var out [][]stream.Item
	for lo := 0; lo < len(items); lo += size {
		hi := min(lo+size, len(items))
		out = append(out, items[lo:hi])
	}
	return out
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]ingest.Policy{"block": ingest.Block, " DROP ": ingest.Drop, "": ingest.Block} {
		got, err := ingest.ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ingest.ParsePolicy("spill"); err == nil {
		t.Error("ParsePolicy(spill) accepted")
	}
}

// TestPipelineEquivalenceLinear pins the strongest claim the plane can
// make: for a linear sketch (CM) the pipeline-ingested state is BIT-EXACT
// against sequential InsertBatch, regardless of how batches were routed or
// partitioned across workers — counter sums commute.
func TestPipelineEquivalenceLinear(t *testing.T) {
	s := testStream(t, 60_000)
	spec := sketch.Spec{MemoryBytes: 1 << 18, Seed: 3}
	seq := sketch.MustBuild("CM_fast", spec)
	sketch.InsertBatch(seq, s.Items)

	a, err := ingest.NewAsyncIngester("CM_fast", spec, ingest.Tuning{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i, c := range chunks(s.Items, 777) {
		a.Submit(ingest.Batch{Items: c, Source: uint64(i%5) + 1})
	}
	if err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	for key := range s.Truth() {
		if got, want := a.Query(key), seq.Query(key); got != want {
			t.Fatalf("key %d: pipeline CM answers %d, sequential %d", key, got, want)
		}
	}
	st := a.Stats()
	if st.Accepted != uint64(s.Len()) || st.FoldedItems != uint64(s.Len()) || st.Dropped != 0 {
		t.Fatalf("stats %+v: want %d accepted and folded, 0 dropped", st, s.Len())
	}
}

// TestPipelineEquivalenceCertified checks the acceptance-criteria contract
// on the certified sketch, flat and sharded: pipeline-ingested state
// answers every key with a certified interval that contains the exact
// count, exactly as sequential InsertBatch state does.
func TestPipelineEquivalenceCertified(t *testing.T) {
	s := testStream(t, 60_000)
	for name, spec := range map[string]sketch.Spec{
		"flat":     {MemoryBytes: 1 << 19, Lambda: 25, Seed: 3},
		"sharded8": {MemoryBytes: 1 << 19, Lambda: 25, Seed: 3, Shards: 8},
	} {
		t.Run(name, func(t *testing.T) {
			seq := sketch.MustBuild("Ours", spec).(sketch.ErrorBounded)
			sketch.InsertBatch(seq, s.Items)

			a, err := ingest.NewAsyncIngester("Ours", spec, ingest.Tuning{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			for i, c := range chunks(s.Items, 1024) {
				a.Submit(ingest.Batch{Items: c, Source: uint64(i % 3)})
			}
			if err := a.Drain(); err != nil {
				t.Fatal(err)
			}
			for key, exact := range s.Truth() {
				est, mpe, ok := a.QueryWithError(key)
				if !ok {
					t.Fatal("Ours lost ErrorBounded through the wrapper")
				}
				lo := sketch.CertifiedLowerBound(est, mpe)
				if exact < lo || exact > est {
					t.Fatalf("key %d: pipeline interval [%d, %d] misses exact %d", key, lo, est, exact)
				}
				sEst, sMpe := seq.QueryWithError(key)
				sLo := sketch.CertifiedLowerBound(sEst, sMpe)
				if exact < sLo || exact > sEst {
					t.Fatalf("key %d: sequential interval [%d, %d] misses exact %d", key, sLo, sEst, exact)
				}
			}
		})
	}
}

// TestPipelineDropPolicy forces queue overflow with a gated Apply hook and
// checks the Ack and stats account every refused item — the "explicit
// backpressure" half of the contract.
func TestPipelineDropPolicy(t *testing.T) {
	gate := make(chan struct{})
	applied := 0
	p := ingest.New(ingest.Options{
		Tuning: ingest.Tuning{Workers: 1, Queue: 1, Policy: ingest.Drop},
		Apply: func(b ingest.Batch) error {
			<-gate
			applied += len(b.Items)
			return nil
		},
	})
	defer p.Close()
	items := []stream.Item{{Key: 1, Value: 1}, {Key: 2, Value: 1}}
	accepted, dropped := 0, 0
	// First batch is consumed by the worker (then parks on the gate), the
	// next fills the 1-slot queue, and everything after that must drop.
	for i := 0; i < 10; i++ {
		ack := p.Submit(ingest.Batch{Items: items})
		accepted += ack.Accepted
		dropped += ack.Dropped
	}
	if dropped == 0 {
		t.Fatal("no batch dropped with a full 1-slot queue")
	}
	if accepted+dropped != 20 {
		t.Fatalf("accepted %d + dropped %d != 20 submitted", accepted, dropped)
	}
	close(gate)
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if applied != accepted {
		t.Fatalf("applied %d items, acked %d", applied, accepted)
	}
	st := p.Stats()
	if st.Dropped != uint64(dropped) || st.Applied != uint64(accepted) {
		t.Fatalf("stats %+v disagree with acks (accepted %d, dropped %d)", st, accepted, dropped)
	}
}

// TestPipelineBlockPolicyAcceptsEverything is the other half: Block never
// drops, even through a 1-slot queue.
func TestPipelineBlockPolicyAcceptsEverything(t *testing.T) {
	var mu sync.Mutex
	total := 0
	p := ingest.New(ingest.Options{
		Tuning: ingest.Tuning{Workers: 2, Queue: 1},
		Apply: func(b ingest.Batch) error {
			mu.Lock()
			total += len(b.Items)
			mu.Unlock()
			return nil
		},
	})
	defer p.Close()
	items := []stream.Item{{Key: 9, Value: 2}}
	for i := 0; i < 500; i++ {
		if ack := p.Submit(ingest.Batch{Items: items, Source: uint64(i)}); ack.Dropped != 0 {
			t.Fatalf("block policy dropped at submit %d", i)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if total != 500 {
		t.Fatalf("applied %d items, want 500", total)
	}
}

// TestPipelineFoldErrorSurfaces checks that a batch failing to land is
// retained and reported by Drain, Err, and Stats rather than swallowed.
func TestPipelineFoldErrorSurfaces(t *testing.T) {
	boom := errors.New("boom")
	p := ingest.New(ingest.Options{
		Tuning: ingest.Tuning{Workers: 1},
		Apply:  func(ingest.Batch) error { return boom },
	})
	p.Submit(ingest.Batch{Items: []stream.Item{{Key: 1, Value: 1}}})
	if err := p.Drain(); !errors.Is(err, boom) {
		t.Fatalf("Drain error = %v, want boom", err)
	}
	if st := p.Stats(); st.LastError == "" {
		t.Fatal("Stats().LastError empty after failed apply")
	}
	// A failed pipeline has lost items its certified state cannot cover:
	// it must stop ACCEPTING, not keep acking writes it may discard.
	if ack := p.Submit(ingest.Batch{Items: []stream.Item{{Key: 2, Value: 1}}}); ack.Accepted != 0 || ack.Dropped != 1 {
		t.Fatalf("submit after failure acked %+v, want 1 dropped", ack)
	}
	if err := p.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close error = %v, want boom", err)
	}
}

// TestPipelineClosedSubmitDrops pins the lifecycle contract: submitting
// after Close drops (counted), instead of panicking on a closed queue.
func TestPipelineClosedSubmitDrops(t *testing.T) {
	p := ingest.New(ingest.Options{Apply: func(ingest.Batch) error { return nil }})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	ack := p.Submit(ingest.Batch{Items: []stream.Item{{Key: 1, Value: 1}}})
	if ack.Dropped != 1 || ack.Accepted != 0 {
		t.Fatalf("submit after close acked %+v, want 1 dropped", ack)
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("drain after close: %v", err)
	}
}

// TestAsyncIngesterAlgoCheck: workers land batches by insertion, so any
// registry variant works — non-Mergeable ones included — and only an
// unknown name is refused at construction.
func TestAsyncIngesterAlgoCheck(t *testing.T) {
	if _, err := ingest.NewAsyncIngester("nope", sketch.Spec{MemoryBytes: 1 << 16}, ingest.Tuning{}); err == nil {
		t.Error("NewAsyncIngester(nope) accepted")
	}
	a, err := ingest.NewAsyncIngester("Elastic", sketch.Spec{MemoryBytes: 1 << 16, Seed: 1}, ingest.Tuning{})
	if err != nil {
		t.Fatalf("non-Mergeable Elastic refused: %v", err)
	}
	defer a.Close()
	a.Submit(ingest.Batch{Items: []stream.Item{{Key: 3, Value: 7}}})
	if err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := a.Query(3); got < 7 {
		t.Fatalf("Elastic through the pipeline answers %d, want >= 7", got)
	}
}

// TestPipelineRegisterMetrics checks the pipeline's Prometheus surface:
// the registered counters are the same instruments Stats reads, every
// landed batch counts as one fold, and landing latency is recorded once
// per fold.
func TestPipelineRegisterMetrics(t *testing.T) {
	target := sketch.MustBuild("CM_fast", sketch.Spec{MemoryBytes: 1 << 16, Seed: 1})
	p := ingest.New(ingest.Options{
		Tuning: ingest.Tuning{Workers: 1},
		Apply: func(b ingest.Batch) error {
			sketch.InsertBatch(target, b.Items)
			return nil
		},
	})
	reg := telemetry.NewRegistry()
	p.RegisterMetrics(reg)

	s := testStream(t, 1000)
	for _, c := range chunks(s.Items, 250) {
		p.Submit(ingest.Batch{Items: c, Source: 1})
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	st := p.Stats()
	for _, want := range []string{
		fmt.Sprintf("ingest_submitted_items_total %d", st.Submitted),
		fmt.Sprintf("ingest_accepted_items_total %d", st.Accepted),
		fmt.Sprintf("ingest_folded_items_total %d", st.FoldedItems),
		"ingest_folds_total 4",
		fmt.Sprintf("ingest_fold_duration_seconds_count %d", st.Folds),
		"ingest_workers 1",
		"ingest_queue_depth_batches 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ingest_flushes_total") {
		t.Error("exposition still carries ingest_flushes_total")
	}
}
