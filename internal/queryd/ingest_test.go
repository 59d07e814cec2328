package queryd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// testClock is an atomically advanced clock for ring backends, so epochs
// seal when the test says so instead of whenever the race detector makes
// wall time crawl.
type testClock struct{ nanos atomic.Int64 }

func (c *testClock) clock() time.Time        { return time.Unix(0, c.nanos.Load()) }
func (c *testClock) advance(d time.Duration) { c.nanos.Add(int64(d)) }

// pipelinedBackends builds the three write-surface shapes the ingest plane
// serves — flat, sharded, and ring-backed — all through the async pipeline.
// The returned seal func makes every ring epoch boundary pass (no-op for
// cumulative backends).
func pipelinedBackends(t *testing.T) map[string]struct {
	b    *SketchBackend
	seal func()
} {
	t.Helper()
	tuning := ingest.Tuning{Workers: 4}
	clk := &testClock{}
	interval := time.Minute
	out := make(map[string]struct {
		b    *SketchBackend
		seal func()
	})
	for name, cfg := range map[string]SketchBackendConfig{
		"flat":    {Algo: "Ours", Spec: sketch.Spec{MemoryBytes: 1 << 19, Lambda: 25, Seed: 2}, Ingest: &tuning},
		"sharded": {Algo: "Ours", Spec: sketch.Spec{MemoryBytes: 1 << 19, Lambda: 25, Seed: 2, Shards: 8}, Ingest: &tuning},
		"ring": {Algo: "Ours", Spec: sketch.Spec{MemoryBytes: 1 << 19, Lambda: 25, Seed: 2},
			Epoch: interval, Windows: 64, Clock: clk.clock, Ingest: &tuning},
	} {
		b, err := NewSketchBackendFrom(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Cleanup(func() { b.Close() })
		seal := func() {}
		if cfg.Epoch > 0 {
			seal = func() { clk.advance(interval) }
		}
		out[name] = struct {
			b    *SketchBackend
			seal func()
		}{b, seal}
	}
	return out
}

// TestIngestQueryInterleaving is the ingest/query race matrix: concurrent
// pipeline lands vs. typed query.Request execution on flat, sharded, and
// ring-backed sketches. Mid-flight answers must stay well-formed; after a
// full drain the certified bounds must contain the exact counts. Run under
// -race in CI.
func TestIngestQueryInterleaving(t *testing.T) {
	s := stream.Zipf(30_000, 2_000, 1.1, 11)
	for name, pb := range pipelinedBackends(t) {
		b, seal := pb.b, pb.seal
		t.Run(name, func(t *testing.T) {
			const writers = 4
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for lo := w * 512; lo < s.Len(); lo += writers * 512 {
						hi := min(lo+512, s.Len())
						b.Ingest(ingest.Batch{Items: s.Items[lo:hi], Source: uint64(w + 1)})
					}
				}(w)
			}
			req := query.Request{Kind: query.Point, Keys: []uint64{s.Items[0].Key, s.Items[1].Key, 424242}}
			if b.Epochal() {
				req = query.Request{Kind: query.Window, Keys: req.Keys, Window: 16}
			}
			for i := 0; i < 40; i++ {
				ans, err := b.Execute(req)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range ans.PerKey {
					if e.Lower > e.Est || e.Est > e.Upper {
						t.Fatalf("malformed interval mid-ingest: %+v", e)
					}
				}
			}
			wg.Wait()

			if b.Epochal() {
				// Cross the epoch boundary so the traffic seals; the read
				// path drains the pipeline before sealing, and Execute
				// drains again before answering.
				seal()
			}
			truth := s.Truth()
			keys := make([]uint64, 0, len(truth))
			for k := range truth {
				keys = append(keys, k)
				if len(keys) == query.MaxBatchKeys {
					break
				}
			}
			final := query.Request{Kind: query.Point, Keys: keys}
			if b.Epochal() {
				final = query.Request{Kind: query.Window, Keys: keys, Window: 64}
			}
			ans, err := b.Execute(final)
			if err != nil {
				t.Fatal(err)
			}
			if !ans.Certified {
				t.Fatal("final answer not certified")
			}
			for _, e := range ans.PerKey {
				if exact := truth[e.Key]; exact < e.Lower || exact > e.Upper {
					t.Fatalf("key %d: certified interval [%d, %d] misses exact %d",
						e.Key, e.Lower, e.Upper, exact)
				}
			}
		})
	}
}

// TestPipelinedBackendEquivalence proves pipeline-ingested backend state
// answers queries identically (within certified bounds) to sequential
// synchronous ingest, across the flat and sharded shapes.
func TestPipelinedBackendEquivalence(t *testing.T) {
	s := stream.Zipf(30_000, 2_000, 1.1, 13)
	spec := sketch.Spec{MemoryBytes: 1 << 19, Lambda: 25, Seed: 4, Shards: 8}
	sync1, err := NewSketchBackend("Ours", spec, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sync1.Ingest(ingest.Batch{Items: s.Items})

	tuning := ingest.Tuning{Workers: 4}
	piped, err := NewSketchBackendFrom(SketchBackendConfig{Algo: "Ours", Spec: spec, Ingest: &tuning})
	if err != nil {
		t.Fatal(err)
	}
	defer piped.Close()
	for lo := 0; lo < s.Len(); lo += 900 {
		piped.Ingest(ingest.Batch{Items: s.Items[lo:min(lo+900, s.Len())]})
	}

	truth := s.Truth()
	keys := make([]uint64, 0, len(truth))
	for k := range truth {
		keys = append(keys, k)
		if len(keys) == query.MaxBatchKeys {
			break
		}
	}
	req := query.Request{Kind: query.Point, Keys: keys}
	a1, err := sync1.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := piped.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.PerKey {
		exact := truth[a1.PerKey[i].Key]
		for which, e := range map[string]query.Estimate{"sequential": a1.PerKey[i], "pipelined": a2.PerKey[i]} {
			if exact < e.Lower || exact > e.Upper {
				t.Fatalf("%s key %d: interval [%d, %d] misses exact %d", which, e.Key, e.Lower, e.Upper, exact)
			}
		}
	}
}

// TestInsertReportsApplied pins the ingest ack: the response body says
// how many items were accepted and dropped, so with a drop-policy pipeline
// a refused batch is reported instead of silently 200-ed away, and an item
// without a value counts 1.
func TestInsertReportsApplied(t *testing.T) {
	tuning := ingest.Tuning{Workers: 1}
	b, err := NewSketchBackendFrom(SketchBackendConfig{
		Algo: "Ours", Spec: sketch.Spec{MemoryBytes: 1 << 18, Lambda: 25, Seed: 1}, Ingest: &tuning,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	srv, err := New(b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v2/ingest", "application/json",
		strings.NewReader(`{"items":[{"key":7,"value":3},{"key":8}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack ingest.Ack
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ack.Accepted != 2 || ack.Dropped != 0 {
		t.Fatalf("ingest answered %d %+v, want 200 with 2 accepted", resp.StatusCode, ack)
	}
	ans, err := b.Execute(query.Request{Kind: query.Point, Keys: []uint64{8}})
	if err != nil {
		t.Fatal(err)
	}
	if e := ans.PerKey[0]; e.Lower > 1 || e.Upper < 1 {
		t.Fatalf("valueless item: interval [%d, %d] misses 1", e.Lower, e.Upper)
	}
}

// TestIngestV2Endpoint drives POST /v2/ingest end to end: typed batches
// (source + epoch tag) in, Ack JSON out, state queryable after.
func TestIngestV2Endpoint(t *testing.T) {
	tuning := ingest.Tuning{Workers: 2}
	b, err := NewSketchBackendFrom(SketchBackendConfig{
		Algo: "Ours", Spec: sketch.Spec{MemoryBytes: 1 << 18, Lambda: 25, Seed: 1}, Ingest: &tuning,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	srv, err := New(b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v2/ingest", "application/json",
		strings.NewReader(`{"items":[{"key":42,"value":10},{"key":42,"value":5}],"source":3,"epoch":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack ingest.Ack
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ack.Accepted != 2 || ack.Dropped != 0 {
		t.Fatalf("/v2/ingest answered %d %+v, want 200 with 2 accepted", resp.StatusCode, ack)
	}

	q, err := http.Post(ts.URL+"/v2/query", "application/json",
		strings.NewReader(`{"kind":"point","keys":[42]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Body.Close()
	var qr ExecResponse
	if err := json.NewDecoder(q.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if e := qr.PerKey[0]; e.Lower > 15 || e.Upper < 15 {
		t.Fatalf("point after /v2/ingest: interval [%d, %d] misses 15", e.Lower, e.Upper)
	}

	// Method and capability errors keep the JSON envelope.
	g, err := http.Get(ts.URL + "/v2/ingest")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Body.Close()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v2/ingest = %d, want 405", g.StatusCode)
	}
	var envelope ErrorBody
	if err := json.NewDecoder(g.Body).Decode(&envelope); err != nil || envelope.Error.Code == "" {
		t.Fatalf("GET /v2/ingest error envelope: %+v, %v", envelope, err)
	}
}

// TestIngestStatsInStatus checks /v1/status surfaces the pipeline counters.
func TestIngestStatsInStatus(t *testing.T) {
	tuning := ingest.Tuning{Workers: 2}
	b, err := NewSketchBackendFrom(SketchBackendConfig{
		Algo: "Ours", Spec: sketch.Spec{MemoryBytes: 1 << 18, Lambda: 25, Seed: 1}, Ingest: &tuning,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Ingest(ingest.Batch{Items: []stream.Item{{Key: 1, Value: 1}}})
	if err := b.pipe.Drain(); err != nil {
		t.Fatal(err)
	}
	st := b.Status()
	if st.Ingest == nil {
		t.Fatal("pipelined backend status has no ingest stats")
	}
	if st.Ingest.Accepted != 1 || st.Ingest.Workers != 2 {
		t.Fatalf("ingest stats %+v, want 1 accepted across 2 workers", st.Ingest)
	}
	if got, err := json.Marshal(st); err != nil || !strings.Contains(string(got), `"ingest"`) {
		t.Fatalf("status JSON %s (%v) lacks ingest section", got, err)
	}
	if fmt.Sprint(st.Ingest.Policy) != "block" {
		t.Fatalf("default policy %q, want block", st.Ingest.Policy)
	}
}
