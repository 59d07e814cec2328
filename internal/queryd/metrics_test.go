package queryd_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/queryd"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// scrape fetches GET /metrics and returns the exposition body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("GET /metrics: Content-Type %q, want %q", ct, telemetry.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// sampleValue extracts the value of an exact series line from a scrape.
func sampleValue(t *testing.T, out, series string) uint64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v uint64
			if _, err := fmt.Sscanf(rest, "%d", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("scrape has no series %q:\n%s", series, out)
	return 0
}

// TestMetricsCoverageEpochalPipelined checks GET /metrics on an epoch-mode
// pipelined server covers every plane: queryd request histograms, cache
// counters, the ingest pipeline's families, and the ring's seal series —
// and that /v1/status reports the same numbers, since both read the same
// registered instruments.
func TestMetricsCoverageEpochalPipelined(t *testing.T) {
	clk := &manualTestClock{now: time.Unix(1000, 0)}
	b, err := queryd.NewSketchBackendFrom(queryd.SketchBackendConfig{
		Algo: "Ours", Spec: sketch.Spec{MemoryBytes: 256 << 10, Lambda: 25, Seed: 1},
		Epoch: time.Second, Windows: 4, Clock: clk.Now,
		Ingest: &ingest.Tuning{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	s, err := queryd.New(b, queryd.Config{Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	insertItems(t, ts.URL, map[uint64]uint64{1: 5, 2: 7})
	clk.Advance(2 * time.Second) // make the epoch overdue
	// Reading through the server seals the overdue window (Generation pokes).
	getJSON[queryd.QueryResponse](t, ts.URL+"/v1/point?key=1")
	getJSON[queryd.QueryResponse](t, ts.URL+"/v1/point?key=1") // cache hit
	resp := postJSON(t, ts.URL+"/v2/query", map[string]any{"kind": 1, "keys": []uint64{1, 2, 3}})
	resp.Body.Close()

	out := scrape(t, ts.URL)
	for _, series := range []string{
		`queryd_request_duration_seconds_bucket{endpoint="/v1/point",le="+Inf"}`,
		`queryd_request_duration_seconds_bucket{endpoint="/v2/query",le="+Inf"}`,
		"queryd_batch_keys_count 1",
		"queryd_cache_hits_total",
		"queryd_cache_misses_total",
		"queryd_backend_updates_total 2",
		"ingest_accepted_items_total 2",
		"ingest_folds_total 1",
		"ingest_folded_items_total 2",
		"ingest_fold_duration_seconds_count 1",
		"ingest_queue_depth_batches 0",
		"ring_seals_total",
		"ring_generation",
		"ring_sealed_windows",
		"ring_capacity 4",
		"ring_epoch_interval_seconds 1",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("scrape missing %q", series)
		}
	}

	// Satellite contract: /v1/status derives from the same instruments the
	// scrape exposes — the numbers must agree (server quiesced).
	st := getJSON[queryd.StatusResponse](t, ts.URL+"/v1/status")
	out = scrape(t, ts.URL)
	if got := sampleValue(t, out, "queryd_backend_updates_total"); got != st.Backend.Updates {
		t.Errorf("scrape updates %d != status updates %d", got, st.Backend.Updates)
	}
	if got := sampleValue(t, out, "queryd_cache_misses_total"); got != st.Cache.Misses {
		t.Errorf("scrape misses %d != status misses %d", got, st.Cache.Misses)
	}
	if got := sampleValue(t, out, "ingest_accepted_items_total"); got != st.Backend.Ingest.Accepted {
		t.Errorf("scrape accepted %d != status accepted %d", got, st.Backend.Ingest.Accepted)
	}
	if got := sampleValue(t, out, "ring_generation"); got != st.Backend.Generation {
		t.Errorf("scrape generation %d != status generation %d", got, st.Backend.Generation)
	}
}

// TestMetricsCoverageWALBacked checks the wal_* families ride the scrape on
// a durable cumulative server, and agree with /v1/status.
func TestMetricsCoverageWALBacked(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b, err := queryd.NewSketchBackendFrom(queryd.SketchBackendConfig{
		Algo: "Ours", Spec: sketch.Spec{MemoryBytes: 256 << 10, Lambda: 25, Seed: 1},
		Ingest: &ingest.Tuning{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.AttachWAL(l, 0); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := queryd.New(b, queryd.Config{CheckpointPath: filepath.Join(dir, "ckpt"), Algo: "Ours"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	insertItems(t, ts.URL, map[uint64]uint64{1: 5})
	resp := postJSON(t, ts.URL+"/v1/checkpoint", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: status %d", resp.StatusCode)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-serve after close so the scrape sees settled counters.
	ts2 := httptest.NewServer(s.Handler())
	defer ts2.Close()

	out := scrape(t, ts2.URL)
	for _, series := range []string{
		"wal_appended_records_total 1",
		"wal_fsyncs_total",
		"wal_fsync_duration_seconds_count",
		"wal_append_duration_seconds_count 1",
		"wal_segments 1",
		"wal_truncations_total 1",
		`queryd_checkpoints_total{result="ok"} 2`, // explicit + final on Close
		`queryd_checkpoints_total{result="error"} 0`,
		"queryd_checkpoint_duration_seconds_count 2",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("scrape missing %q:\n%s", series, out)
		}
	}
	st := getJSON[queryd.StatusResponse](t, ts2.URL+"/v1/status")
	if st.Backend.WAL == nil {
		t.Fatal("status has no wal block")
	}
	out = scrape(t, ts2.URL)
	if got := sampleValue(t, out, "wal_appended_records_total"); got != st.Backend.WAL.Appended {
		t.Errorf("scrape appended %d != status appended %d", got, st.Backend.WAL.Appended)
	}
	if got := sampleValue(t, out, "wal_fsyncs_total"); got != st.Backend.WAL.Fsyncs {
		t.Errorf("scrape fsyncs %d != status fsyncs %d", got, st.Backend.WAL.Fsyncs)
	}
}

// TestStatusJSONGolden pins the /v1/status wire shape byte-for-byte: the
// telemetry refactor rebuilt these counters on the metrics registry, and
// this golden string is the proof no legacy JSON key moved, renamed, or
// changed type.
func TestStatusJSONGolden(t *testing.T) {
	fixture := queryd.StatusResponse{
		Backend: queryd.Status{
			Mode: "standalone", Algo: "CM", Epochal: true, Generation: 7,
			Agents: 2, Updates: 10, Queries: 3,
			Ingest: &ingest.Stats{
				Workers: 2, Policy: "block", Submitted: 10, Accepted: 10,
				Dropped: 0, Applied: 10, Folds: 1, FoldedItems: 10,
			},
			WAL: &wal.Stats{
				Policy: "batch", Segments: 1, Bytes: 64, LastLSN: 5, Watermark: 2,
				Appended: 5, Fsyncs: 5, LastFsync: "2026-01-02T03:04:05Z",
				Replayed: 4, TornTruncations: 1, LastError: "boom",
			},
		},
		Cache: queryd.CacheStats{
			Entries: 1, Hits: 2, Misses: 3, Coalesced: 4, Evictions: 5,
			Invalidations: 6, Generation: 7, HitRate: 0.4,
		},
		Checkpoint: &queryd.CheckpointStatus{
			Path: "/tmp/ckpt", LastTime: "2026-01-02T03:04:05Z", Error: "disk full",
		},
	}
	got, err := json.Marshal(fixture)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"backend":{"mode":"standalone","algo":"CM","epochal":true,"generation":7,"agents":2,"updates":10,"queries":3,` +
		`"ingest":{"workers":2,"policy":"block","submitted":10,"accepted":10,"dropped":0,"applied":10,"folds":1,"folded_items":10},` +
		`"wal":{"policy":"batch","segments":1,"bytes":64,"last_lsn":5,"watermark":2,"appended_records":5,"fsyncs":5,` +
		`"last_fsync":"2026-01-02T03:04:05Z","replayed_records":4,"torn_tail_truncations":1,"last_error":"boom"}},` +
		`"cache":{"entries":1,"hits":2,"misses":3,"coalesced":4,"evictions":5,"invalidations":6,"generation":7,"hit_rate":0.4},` +
		`"checkpoint":{"path":"/tmp/ckpt","last_time":"2026-01-02T03:04:05Z","error":"disk full"}}`
	if string(got) != golden {
		t.Errorf("status JSON drifted from the legacy shape:\ngot:  %s\nwant: %s", got, golden)
	}
}

// TestMetricsEndpointMethodGuard pins that /metrics follows the same
// method discipline (and JSON envelope) as every other endpoint.
func TestMetricsEndpointMethodGuard(t *testing.T) {
	_, ts, _ := newStandaloneServer(t, queryd.Config{})
	resp := postJSON(t, ts.URL+"/metrics", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: status %d, want 405", resp.StatusCode)
	}
}

// TestDisableMetrics pins the rsserve -metrics=false contract: the route
// disappears but the instruments behind /v1/status keep working.
func TestDisableMetrics(t *testing.T) {
	_, ts, _ := newStandaloneServer(t, queryd.Config{DisableMetrics: true})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics with DisableMetrics: status %d, want 404", resp.StatusCode)
	}
	getJSON[queryd.StatusResponse](t, ts.URL+"/v1/status")
}
