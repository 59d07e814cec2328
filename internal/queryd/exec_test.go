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

// execAnswer is the fixture's answer to its body, as the handler encodes
// it.
func execAnswer(tb testing.TB, h http.Handler, body []byte) queryd.ExecResponse {
	tb.Helper()
	rec := serveExec(h, body)
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp queryd.ExecResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		tb.Fatal(err)
	}
	return resp
}

// fewestAllocs is f's allocation count, judged on the best of a few
// attempts: AllocsPerRun counts process-wide mallocs and interference
// only ever adds.
func fewestAllocs(t *testing.T, f func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	best := 1e18
	for attempt := 0; attempt < 3; attempt++ {
		best = min(best, testing.AllocsPerRun(50, f))
	}
	return best
}

// TestExecAllocs pins the cost of one 256-key point batch through the
// handler, request and recorder included. Per-key work must stay
// allocation-free: a cache round trip per key costs several allocations
// per key, which this bound rules out.
func TestExecAllocs(t *testing.T) {
	h, body := execFixture(t)
	execAnswer(t, h, body)
	if n := fewestAllocs(t, func() { serveExec(h, body) }); n > 32 {
		t.Errorf("a 256-key /v2/query batch allocates %.0f times, want ≤ 32", n)
	}
}

// TestDecodeQueryAllocs pins the request decoder's cost: the keys slice
// is its only allocation.
func TestDecodeQueryAllocs(t *testing.T) {
	_, body := execFixture(t)
	n := fewestAllocs(t, func() {
		if _, err := queryd.DecodeQueryBody(body); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Errorf("decoding a 256-key body allocates %.0f times, want ≤ 1 (the keys)", n)
	}
}

// TestEncodeExecAllocs pins the answer encoder's cost: none, into a
// buffer with room for the answer.
func TestEncodeExecAllocs(t *testing.T) {
	h, body := execFixture(t)
	resp := execAnswer(t, h, body)
	dst := make([]byte, 0, 64<<10)
	if n := fewestAllocs(t, func() { dst = queryd.AppendExecResponse(dst[:0], resp) }); n != 0 {
		t.Errorf("encoding a 256-key answer allocates %.0f times, want 0", n)
	}
}

// BenchmarkDecodeQuery decodes the fixture's 256-key body.
func BenchmarkDecodeQuery(b *testing.B) {
	_, body := execFixture(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := queryd.DecodeQueryBody(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeExec encodes the fixture's 256-key answer into a reused
// buffer.
func BenchmarkEncodeExec(b *testing.B) {
	h, body := execFixture(b)
	resp := execAnswer(b, h, body)
	var dst []byte
	b.ReportAllocs()
	for b.Loop() {
		dst = queryd.AppendExecResponse(dst[:0], resp)
	}
	b.SetBytes(int64(len(dst)))
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
