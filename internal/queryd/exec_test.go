package queryd_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/queryd"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// execFixture is a standalone Ours server's handler plus the body of one
// 256-key /v2/query point batch over keys the backend holds.
func execFixture(tb testing.TB) (http.Handler, []byte) {
	tb.Helper()
	spec := sketch.Spec{MemoryBytes: 256 << 10, Lambda: 25, Seed: 1}
	b, err := queryd.NewSketchBackend("Ours", spec, 0, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := queryd.New(b, queryd.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	st := stream.IPTrace(50_000, 3)
	b.Ingest(ingest.Batch{Items: st.Items})
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = st.Items[i].Key
	}
	body, err := json.Marshal(query.Request{Kind: query.Point, Keys: keys})
	if err != nil {
		tb.Fatal(err)
	}
	return s.Handler(), body
}

// serveExec runs one /v2/query request through h.
func serveExec(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(body)))
	return rec
}

// TestExecAllocs pins the cost of one 256-key point batch through the
// handler, request and recorder included. Per-key work must stay
// allocation-free: a cache round trip per key costs several allocations
// per key, which this bound rules out.
//
// Judged on the best of a few attempts: AllocsPerRun counts process-wide
// mallocs and interference only ever adds.
func TestExecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h, body := execFixture(t)
	if rec := serveExec(h, body); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	best := 1e18
	for attempt := 0; attempt < 3; attempt++ {
		best = min(best, testing.AllocsPerRun(50, func() { serveExec(h, body) }))
	}
	if best > 64 {
		t.Errorf("a 256-key /v2/query batch allocates %.0f times, want ≤ 64", best)
	}
}

// BenchmarkServeExec serves the 256-key point batch through the handler.
func BenchmarkServeExec(b *testing.B) {
	h, body := execFixture(b)
	b.ReportAllocs()
	for b.Loop() {
		if rec := serveExec(h, body); rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
