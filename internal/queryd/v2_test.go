package queryd_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/netsum"
	"repro/internal/query"
	"repro/internal/queryd"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// newV2Server spins up a standalone Ours server with the stream ingested.
func newV2Server(t *testing.T, cfg queryd.Config) (*httptest.Server, *queryd.SketchBackend, func()) {
	t.Helper()
	spec := sketch.Spec{MemoryBytes: 256 << 10, Lambda: 25, Seed: 1}
	b, err := queryd.NewSketchBackend("Ours", spec, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := queryd.New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return ts, b, func() { ts.Close(); s.Close() }
}

// postExec sends one /v2/query batch and decodes the response.
func postExec(t *testing.T, url string, req query.Request) (queryd.ExecResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v2/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out queryd.ExecResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding exec response: %v", err)
		}
	}
	return out, resp.StatusCode
}

// execOK sends one /v2/query batch that must succeed.
func execOK(t *testing.T, url string, req query.Request) queryd.ExecResponse {
	t.Helper()
	out, status := postExec(t, url, req)
	if status != http.StatusOK {
		t.Fatalf("/v2/query %+v: status %d", req, status)
	}
	return out
}

// TestV2BatchAnswers256Keys is the acceptance pin: one request, 256 keys,
// per-key certified bounds containing the exact counts.
func TestV2BatchAnswers256Keys(t *testing.T) {
	ts, b, done := newV2Server(t, queryd.Config{})
	defer done()
	s := stream.IPTrace(50_000, 3)
	b.Ingest(ingest.Batch{Items: s.Items})
	truth := s.Truth()

	keys := make([]uint64, 0, 256)
	for _, it := range s.Items {
		keys = append(keys, it.Key)
		if len(keys) == 256 {
			break
		}
	}
	resp, status := postExec(t, ts.URL, query.Request{Kind: query.Point, Keys: keys})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(resp.PerKey) != 256 {
		t.Fatalf("answered %d keys, want 256", len(resp.PerKey))
	}
	if !resp.Certified {
		t.Fatal("Ours batch answer not certified")
	}
	for i, e := range resp.PerKey {
		if e.Key != keys[i] {
			t.Fatalf("PerKey[%d] answers key %d, want %d (alignment broken)", i, e.Key, keys[i])
		}
		if f := truth[e.Key]; f > e.Upper || e.Lower > f {
			t.Errorf("key %d: truth %d outside [%d,%d]", e.Key, f, e.Lower, e.Upper)
		}
	}
}

// TestV2QuerySeesPrecedingWrite: /v2/query batches are never served from
// the result cache, so a batch asked right after an acked /v2/ingest
// certifies intervals around the new counts — even with an hour-long cache
// TTL that would otherwise keep serving the first answers.
func TestV2QuerySeesPrecedingWrite(t *testing.T) {
	ts, b, done := newV2Server(t, queryd.Config{CacheTTL: time.Hour})
	defer done()
	truth := map[uint64]uint64{}
	keys := make([]uint64, 32)
	items := make([]stream.Item, len(keys))
	for i := range keys {
		keys[i] = uint64(i + 1)
		items[i] = stream.Item{Key: keys[i], Value: 10}
		truth[keys[i]] = 10
	}
	b.Ingest(ingest.Batch{Items: items})
	req := query.Request{Kind: query.Point, Keys: keys}
	if _, status := postExec(t, ts.URL, req); status != http.StatusOK {
		t.Fatalf("first batch status %d", status)
	}

	var write []map[string]uint64
	for _, k := range keys[:len(keys)/2] {
		write = append(write, map[string]uint64{"key": k, "value": 1000})
		truth[k] += 1000
	}
	resp := postJSON(t, ts.URL+"/v2/ingest", map[string]any{"items": write})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	ans, status := postExec(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("second batch status %d", status)
	}
	if !ans.Certified {
		t.Fatal("Ours batch answer not certified")
	}
	for _, e := range ans.PerKey {
		if f := truth[e.Key]; f < e.Lower || f > e.Upper {
			t.Errorf("key %d: exact count %d after the write, certified [%d,%d]", e.Key, f, e.Lower, e.Upper)
		}
	}
}

// TestV2WindowAndPointCacheSeparately: the same key under different kinds
// or spans answers over its own scope.
func TestV2WindowAndPointCacheSeparately(t *testing.T) {
	clk := &manualTestClock{now: time.Unix(0, 0)}
	spec := sketch.Spec{MemoryBytes: 128 << 10, Lambda: 25, Seed: 1}
	b, err := queryd.NewSketchBackend("Ours", spec, time.Second, 4, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	s, err := queryd.New(b, queryd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	b.Ingest(ingest.Batch{Items: []stream.Item{{Key: 7, Value: 10}}})
	clk.Advance(time.Second)
	b.Ingest(ingest.Batch{Items: []stream.Item{{Key: 7, Value: 5}}})
	clk.Advance(time.Second)
	b.Ingest(ingest.Batch{Items: []stream.Item{{Key: 0, Value: 0}}}) // seal

	w1, _ := postExec(t, ts.URL, query.Request{Kind: query.Window, Keys: []uint64{7}, Window: 1})
	all, _ := postExec(t, ts.URL, query.Request{Kind: query.Point, Keys: []uint64{7}})
	if w1.PerKey[0].Est >= all.PerKey[0].Est {
		t.Errorf("1-epoch window %d should be below full retention %d",
			w1.PerKey[0].Est, all.PerKey[0].Est)
	}
	if w1.Coverage != 1 || all.Coverage != 2 {
		t.Errorf("coverage window=%d point=%d, want 1 and 2", w1.Coverage, all.Coverage)
	}
}

// TestV2TopK: the topk kind serves through the whole-answer cache.
func TestV2TopK(t *testing.T) {
	ts, b, done := newV2Server(t, queryd.Config{})
	defer done()
	for i := 0; i < 100; i++ {
		b.Ingest(ingest.Batch{Items: []stream.Item{{Key: 1, Value: 3}, {Key: 2, Value: 1}}})
	}
	r, status := postExec(t, ts.URL, query.Request{Kind: query.TopK, K: 1})
	if status != http.StatusOK || len(r.PerKey) != 1 || r.PerKey[0].Key != 1 {
		t.Fatalf("topk status %d answer %+v, want key 1", status, r.PerKey)
	}
	r2, _ := postExec(t, ts.URL, query.Request{Kind: query.TopK, K: 1})
	if !r2.Cached {
		t.Error("repeated topk not served from cache")
	}
}

// errorEnvelope fetches a URL and decodes the JSON error body, also
// checking the Content-Type satellite contract.
func errorEnvelope(t *testing.T, method, url string, body io.Reader) (int, queryd.ErrorBody) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s %s: Content-Type %q, want application/json", method, url, ct)
	}
	var eb queryd.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("%s %s: error body is not the JSON envelope: %v", method, url, err)
	}
	return resp.StatusCode, eb
}

// overLimitIngestBody is a well-formed ingest body one byte over the 32 MiB
// limit: the server reads all of it before refusing it.
func overLimitIngestBody() string {
	const limit = 32 << 20
	var sb strings.Builder
	sb.WriteString(`{"items":[{"key":1}`)
	for sb.Len() < limit-16 {
		sb.WriteString(`,{"key":1}`)
	}
	sb.WriteString(strings.Repeat(" ", limit+1-sb.Len()-2))
	sb.WriteString("]}")
	return sb.String()
}

// overLimitQueryBody is a valid /v2/query body padded with trailing space
// to one byte over the limit: its first value ends long before the limit,
// yet the body is refused.
func overLimitQueryBody() string {
	const req = `{"kind":"point","keys":[1]}`
	return req + strings.Repeat(" ", queryd.MaxQueryBody+1-len(req))
}

// TestJSONErrorEnvelopeEverywhere pins the error contract: every failure —
// bad parameters, unknown or retired endpoints, wrong methods, refused
// capabilities, oversized batches, refused ingest bodies — answers
// {"error":{code,message}} with the JSON Content-Type and lands nothing.
// The one accepted ingest body lands its item with the default value 1.
func TestJSONErrorEnvelopeEverywhere(t *testing.T) {
	ts, b, done := newV2Server(t, queryd.Config{MaxBatch: 8})
	defer done()
	b.Ingest(ingest.Batch{Items: []stream.Item{{Key: 1, Value: 1}}})

	bigBatch, _ := json.Marshal(query.Request{Kind: query.Point, Keys: make([]uint64, 9)})
	cases := []struct {
		method, url string
		body        string
		status      int
		code        string
	}{
		{"GET", "/v1/point?key=1", "", http.StatusNotFound, "not_found"},
		{"GET", "/v1/window?key=1&n=1", "", http.StatusNotFound, "not_found"},
		{"GET", "/v1/topk?k=1", "", http.StatusNotFound, "not_found"},
		{"POST", "/v1/insert", `{"items":[{"key":1}]}`, http.StatusNotFound, "not_found"},
		{"POST", "/v2/query", `{"kind":"window","keys":[1],"window":0}`, http.StatusBadRequest, "bad_request"},
		{"POST", "/v2/query", `{"kind":"window","keys":[1],"window":1,"agent":7}`, http.StatusNotImplemented, "unsupported"},
		{"POST", "/v2/query", `{"kind":"topk","k":0}`, http.StatusBadRequest, "bad_request"},
		{"POST", "/v1/checkpoint", "", http.StatusNotImplemented, "unsupported"},
		{"GET", "/v1/nope", "", http.StatusNotFound, "not_found"},
		{"POST", "/v1/status", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"GET", "/v2/query", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"POST", "/v2/query", "{\"kind\":\"nope\"}", http.StatusBadRequest, "bad_request"},
		{"POST", "/v2/query", "{\"kind\":\"point\"}", http.StatusBadRequest, "bad_request"},
		{"POST", "/v2/query", string(bigBatch), http.StatusBadRequest, "bad_request"},
		{"POST", "/v2/query", overLimitQueryBody(), http.StatusBadRequest, "bad_request"},
		{"POST", "/v2/query", `{"kind":"point","keys":[1.5]}`, http.StatusBadRequest, "bad_request"},
		{"POST", "/v2/ingest", overLimitIngestBody(), http.StatusBadRequest, "bad_request"},
		{"POST", "/v2/ingest", "", http.StatusBadRequest, "bad_request"},
		{"POST", "/v2/ingest", `{"items":[{"key":1}`, http.StatusBadRequest, "bad_request"},
		{"POST", "/v2/ingest", `{"items":[{"key":"1"}]}`, http.StatusBadRequest, "bad_request"},
		{"POST", "/v2/ingest", `{"items":[{"key":777}]}`, http.StatusOK, ""},
	}
	for _, c := range cases {
		var body io.Reader
		if c.body != "" {
			body = strings.NewReader(c.body)
		}
		before := b.Status().Updates
		if c.status == http.StatusOK {
			resp, err := http.Post(ts.URL+c.url, "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Errorf("%s %s: status=%d, want %d", c.method, c.url, resp.StatusCode, c.status)
			}
			if landed := b.Status().Updates - before; landed != 1 {
				t.Errorf("%s %s: landed %d items, want 1", c.method, c.url, landed)
			}
			ans, err := b.Execute(query.Request{Kind: query.Point, Keys: []uint64{777}})
			if err != nil {
				t.Fatal(err)
			}
			if e := ans.PerKey[0]; e.Lower > 1 || e.Upper < 1 || e.Est != 1 {
				t.Errorf("%s %s: key 777 answers %+v, want the default value 1", c.method, c.url, e)
			}
			continue
		}
		status, eb := errorEnvelope(t, c.method, ts.URL+c.url, body)
		if status != c.status || eb.Error.Code != c.code {
			t.Errorf("%s %s: status=%d code=%q, want %d %q (message: %s)",
				c.method, c.url, status, eb.Error.Code, c.status, c.code, eb.Error.Message)
		}
		if eb.Error.Message == "" {
			t.Errorf("%s %s: empty error message", c.method, c.url)
		}
		if landed := b.Status().Updates - before; landed != 0 {
			t.Errorf("%s %s: refused, yet landed %d items", c.method, c.url, landed)
		}
	}
}

// TestV2AgentScopeOnCollector: Request.Agent routes to one agent's ring
// over HTTP, and unknown agents answer 404 through the envelope.
func TestV2AgentScopeOnCollector(t *testing.T) {
	clk := &manualTestClock{now: time.Unix(0, 0)}
	c, err := netsum.NewCollector("127.0.0.1:0", netsum.CollectorConfig{
		Spec:         sketch.Spec{Lambda: 25, MemoryBytes: 128 << 10, Seed: 1},
		Epoch:        time.Second,
		WindowEpochs: 4,
		Clock:        clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	a, err := netsum.Dial(c.Addr(), 42)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 80; i++ {
		a.Record(5, 1)
	}
	for i := 0; i < 40; i++ {
		a.Record(6, 1)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := a.Stats(); err != nil { // sync the batch
		t.Fatal(err)
	}
	clk.Advance(time.Second) // seal epoch 0
	s, err := queryd.New(queryd.CollectorBackend{C: c, Algo: "Ours"}, queryd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	resp, status := postExec(t, ts.URL,
		query.Request{Kind: query.Window, Keys: []uint64{5, 6}, Window: 2, Agent: 42})
	if status != http.StatusOK {
		t.Fatalf("agent batch status %d", status)
	}
	if resp.Coverage != 1 || resp.PerKey[0].Est < 80 || resp.PerKey[0].Lower > 80 {
		t.Errorf("agent answer %+v, want coverage 1 and interval around 80", resp)
	}
	status, eb := errorEnvelope(t, "POST", ts.URL+"/v2/query",
		strings.NewReader(`{"kind":"window","keys":[5],"window":2,"agent":999}`))
	if status != http.StatusNotFound || eb.Error.Code != "not_found" {
		t.Errorf("unknown agent: status=%d code=%q, want 404 not_found", status, eb.Error.Code)
	}
}
