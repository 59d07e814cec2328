package queryd_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/netsum"
	"repro/internal/query"
	"repro/internal/queryd"
	"repro/internal/sketch"
	_ "repro/internal/sketch/all"
	"repro/internal/stream"
)

// execPoint answers one key through the unified query plane, the surface
// the per-key backend methods were folded into.
func execPoint(t *testing.T, b queryd.Backend, key uint64) (est uint64, certified bool) {
	t.Helper()
	ans, err := b.Execute(query.Request{Kind: query.Point, Keys: []uint64{key}})
	if err != nil {
		t.Fatalf("point query for %d: %v", key, err)
	}
	return ans.PerKey[0].Est, ans.Certified
}

type manualTestClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *manualTestClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualTestClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func getJSON[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("GET %s: %d (%s)", url, resp.StatusCode, e["error"])
	}
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return v
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func insertItems(t *testing.T, base string, items map[uint64]uint64) {
	t.Helper()
	type item struct {
		Key   uint64 `json:"key"`
		Value uint64 `json:"value"`
	}
	var req struct {
		Items []item `json:"items"`
	}
	for k, v := range items {
		req.Items = append(req.Items, item{Key: k, Value: v})
	}
	resp := postJSON(t, base+"/v2/ingest", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
}

func newStandaloneServer(t *testing.T, cfg queryd.Config) (*queryd.Server, *httptest.Server, *queryd.SketchBackend) {
	t.Helper()
	if cfg.Algo == "" {
		cfg.Algo = "Ours"
	}
	if cfg.Spec.MemoryBytes == 0 {
		cfg.Spec = sketch.Spec{MemoryBytes: 256 << 10, Lambda: 25, Seed: 1, Emergency: true}
	}
	b, err := queryd.NewSketchBackend(cfg.Algo, cfg.Spec, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := queryd.New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts, b
}

func TestStandalonePointQueryCertified(t *testing.T) {
	_, ts, _ := newStandaloneServer(t, queryd.Config{})
	truth := map[uint64]uint64{}
	for i := uint64(1); i <= 300; i++ {
		truth[i] = i * 3
	}
	insertItems(t, ts.URL, truth)
	// 999999 was never inserted and still answers with a sound interval.
	r := execOK(t, ts.URL, query.Request{Kind: query.Point, Keys: []uint64{1, 100, 300, 999999}})
	if !r.Certified {
		t.Fatal("uncertified answer from an ErrorBounded sketch")
	}
	for _, e := range r.PerKey {
		if truth[e.Key] > e.Upper || e.Lower > truth[e.Key] {
			t.Errorf("key %d: interval [%d,%d] misses exact %d", e.Key, e.Lower, e.Upper, truth[e.Key])
		}
	}
}

// TestRepeatedQueriesHitCache: top-k answers are cached whole, so repeats
// inside the TTL are hits that return the first answer.
func TestRepeatedQueriesHitCache(t *testing.T) {
	_, ts, _ := newStandaloneServer(t, queryd.Config{CacheTTL: time.Hour})
	insertItems(t, ts.URL, map[uint64]uint64{7: 100, 8: 50})
	req := query.Request{Kind: query.TopK, K: 2}
	first := execOK(t, ts.URL, req)
	if first.Cached {
		t.Error("first query claims cached")
	}
	const repeats = 99
	for i := 0; i < repeats; i++ {
		r := execOK(t, ts.URL, req)
		if !r.Cached || !reflect.DeepEqual(r.Answer, first.Answer) {
			t.Fatalf("repeat %d: cached=%v answer %+v, want cached %+v", i, r.Cached, r.Answer, first.Answer)
		}
	}
	st := getJSON[queryd.StatusResponse](t, ts.URL+"/v1/status")
	if st.Cache.HitRate <= 0.9 {
		t.Errorf("hit rate %.3f over %d repeated queries, want > 0.9", st.Cache.HitRate, repeats+1)
	}
}

// TestTopKCacheTTLExpiry: a live top-k answer is served from the cache
// until CacheTTL lapses, even after a write that changes it, and is
// recomputed after.
func TestTopKCacheTTLExpiry(t *testing.T) {
	clk := &manualTestClock{now: time.Unix(0, 0)}
	_, ts, _ := newStandaloneServer(t, queryd.Config{CacheTTL: time.Second, Clock: clk.Now})
	insertItems(t, ts.URL, map[uint64]uint64{7: 100, 8: 50})
	req := query.Request{Kind: query.TopK, K: 2}
	first := execOK(t, ts.URL, req)
	if first.Cached || len(first.PerKey) != 2 || first.PerKey[0].Key != 7 {
		t.Fatalf("first top-k: cached=%v %+v, want uncached [7 8]", first.Cached, first.PerKey)
	}
	insertItems(t, ts.URL, map[uint64]uint64{9: 1000})

	clk.Advance(500 * time.Millisecond)
	r := execOK(t, ts.URL, req)
	if !r.Cached || !reflect.DeepEqual(r.Answer, first.Answer) {
		t.Fatalf("inside the TTL: cached=%v %+v, want the cached first answer %+v", r.Cached, r.Answer, first.Answer)
	}

	clk.Advance(600 * time.Millisecond)
	r = execOK(t, ts.URL, req)
	if r.Cached || len(r.PerKey) != 2 || r.PerKey[0].Key != 9 || r.PerKey[1].Key != 7 {
		t.Fatalf("past the TTL: cached=%v %+v, want a fresh [9 7]", r.Cached, r.PerKey)
	}
}

// TestNewRefusesUnknownCachePolicy: LRU is the one cache policy, so New
// accepts only "" and "lru".
func TestNewRefusesUnknownCachePolicy(t *testing.T) {
	b, err := queryd.NewSketchBackend("Ours", sketch.Spec{MemoryBytes: 64 << 10, Lambda: 25, Seed: 1}, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"", "lru"} {
		s, err := queryd.New(b, queryd.Config{CachePolicy: policy})
		if err != nil {
			t.Fatalf("CachePolicy %q refused: %v", policy, err)
		}
		s.Close()
	}
	if _, err := queryd.New(b, queryd.Config{CachePolicy: "s3fifo"}); !errors.Is(err, queryd.ErrCachePolicy) {
		t.Fatalf("CachePolicy s3fifo: err = %v, want ErrCachePolicy", err)
	}
}

func TestTopKEndpoint(t *testing.T) {
	_, ts, _ := newStandaloneServer(t, queryd.Config{})
	items := map[uint64]uint64{}
	for i := uint64(1); i <= 50; i++ {
		items[i] = 10
	}
	items[777] = 10_000
	items[888] = 5_000
	insertItems(t, ts.URL, items)
	r := execOK(t, ts.URL, query.Request{Kind: query.TopK, K: 2})
	if len(r.PerKey) != 2 {
		t.Fatalf("topk returned %d items", len(r.PerKey))
	}
	if r.PerKey[0].Key != 777 || r.PerKey[1].Key != 888 {
		t.Errorf("topk order = [%d, %d], want [777, 888]", r.PerKey[0].Key, r.PerKey[1].Key)
	}
	if r.PerKey[0].Est < 10_000 || !r.Certified {
		t.Errorf("heaviest item est=%d certified=%v", r.PerKey[0].Est, r.Certified)
	}
}

// TestEpochWindowCacheInvalidationOnSeal: a sealed-window top-k answer is
// cached per generation with no TTL, and a seal invalidates it.
func TestEpochWindowCacheInvalidationOnSeal(t *testing.T) {
	clk := &manualTestClock{now: time.Unix(0, 0)}
	spec := sketch.Spec{MemoryBytes: 128 << 10, Lambda: 25, Seed: 1}
	b, err := queryd.NewSketchBackend("Ours", spec, time.Second, 4, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	s, err := queryd.New(b, queryd.Config{Algo: "Ours", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	b.Ingest(ingest.Batch{Items: []stream.Item{{Key: 5, Value: 100}}})
	clk.Advance(time.Second) // seal epoch 0
	req := query.Request{Kind: query.TopK, K: 3, Window: 4}
	first := execOK(t, ts.URL, req)
	if first.Cached || len(first.PerKey) != 1 || first.PerKey[0].Est != 100 {
		t.Fatalf("first sealed answer = %+v", first)
	}
	// Sealed answers are immutable: repeats are cache hits at the same
	// generation, regardless of TTL.
	second := execOK(t, ts.URL, req)
	if !second.Cached || second.Generation != first.Generation {
		t.Fatalf("second sealed answer = %+v", second)
	}

	// New epoch seals -> generation advances -> the whole cached
	// generation is invalidated and the answer now covers both epochs.
	b.Ingest(ingest.Batch{Items: []stream.Item{{Key: 5, Value: 40}}})
	clk.Advance(time.Second)
	third := execOK(t, ts.URL, req)
	if third.Cached {
		t.Error("stale-generation answer served from cache after a seal")
	}
	if third.Generation <= first.Generation {
		t.Errorf("generation %d did not advance past %d", third.Generation, first.Generation)
	}
	if len(third.PerKey) != 1 || third.PerKey[0].Est != 140 {
		t.Errorf("two-epoch top-k answer = %+v, want key 5 at est=140", third)
	}
}

func TestCollectorBackendEndpoints(t *testing.T) {
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
	s, err := queryd.New(queryd.CollectorBackend{C: c, Algo: "Ours"}, queryd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	a, err := netsum.Dial(c.Addr(), 42)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 80; i++ {
		if err := a.Record(9, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := a.Stats(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)

	for _, req := range []query.Request{
		{Kind: query.Point, Keys: []uint64{9}},
		{Kind: query.Window, Keys: []uint64{9}, Window: 4},
		{Kind: query.Window, Keys: []uint64{9}, Window: 4, Agent: 42},
	} {
		r := execOK(t, ts.URL, req)
		if e := r.PerKey[0]; !r.Certified || r.Coverage != 1 || 80 > e.Upper || e.Lower > 80 {
			t.Errorf("collector answer to %+v = %+v, want coverage 1 around exact 80", req, r)
		}
	}
	if _, status := postExec(t, ts.URL, query.Request{Kind: query.Window, Keys: []uint64{9}, Window: 4, Agent: 777}); status != http.StatusNotFound {
		t.Errorf("unknown agent: status %d, want 404", status)
	}
	st := getJSON[queryd.StatusResponse](t, ts.URL+"/v1/status")
	if st.Backend.Mode != "collector" || st.Backend.Agents != 1 || !st.Backend.Epochal {
		t.Errorf("status backend = %+v", st.Backend)
	}
	// A collector backend does not ingest over HTTP.
	resp := postJSON(t, ts.URL+"/v2/ingest", map[string]any{"items": []any{}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("collector ingest: status %d, want 501", resp.StatusCode)
	}
}

func TestCheckpointWarmRestart(t *testing.T) {
	// The acceptance path: a server restarted from its checkpoint answers
	// queries whose certified intervals contain the pre-restart exact
	// counts.
	path := filepath.Join(t.TempDir(), "state.ckpt")
	spec := sketch.Spec{MemoryBytes: 256 << 10, Lambda: 25, Seed: 1, Emergency: true}
	_, ts, _ := newStandaloneServer(t, queryd.Config{
		Algo: "Ours", Spec: spec, CheckpointPath: path,
	})
	truth := map[uint64]uint64{}
	for i := uint64(1); i <= 500; i++ {
		truth[i] = i
	}
	insertItems(t, ts.URL, truth)
	resp := postJSON(t, ts.URL+"/v1/checkpoint", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: status %d", resp.StatusCode)
	}

	// "Restart": rebuild the backend purely from the checkpoint file.
	algo, loadedSpec, walLSN, payload, err := queryd.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if algo != "Ours" || loadedSpec != spec {
		t.Fatalf("checkpoint header (%s, %+v), want (Ours, %+v)", algo, loadedSpec, spec)
	}
	if walLSN != 0 {
		t.Fatalf("checkpoint without a WAL records cut LSN %d, want 0", walLSN)
	}
	b2, err := queryd.NewSketchBackend(algo, loadedSpec, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Restore(payload); err != nil {
		t.Fatal(err)
	}
	payload.Close()
	s2, err := queryd.New(b2, queryd.Config{Algo: algo, Spec: loadedSpec})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	r := execOK(t, ts2.URL, query.Request{Kind: query.Point, Keys: []uint64{1, 250, 500}})
	for _, e := range r.PerKey {
		if !r.Certified || truth[e.Key] > e.Upper || e.Lower > truth[e.Key] {
			t.Errorf("restored key %d: interval [%d,%d] misses pre-restart exact %d",
				e.Key, e.Lower, e.Upper, truth[e.Key])
		}
	}
}

func TestConcurrentQueriesAndIngest(t *testing.T) {
	// Race hygiene: queries, ingest, topk, and status from many goroutines
	// at once. Run under -race in CI.
	_, ts, b := newStandaloneServer(t, queryd.Config{CacheTTL: time.Millisecond})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b.Ingest(ingest.Batch{Items: []stream.Item{{Key: uint64(i % 64), Value: 1}}})
		}
	}()
	client := ts.Client()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var resp *http.Response
				var err error
				switch i % 4 {
				case 1:
					resp, err = client.Post(ts.URL+"/v2/query", "application/json",
						strings.NewReader(`{"kind":"topk","k":5}`))
				case 2:
					resp, err = client.Get(ts.URL + "/v1/status")
				default:
					resp, err = client.Post(ts.URL+"/v2/query", "application/json",
						strings.NewReader(fmt.Sprintf(`{"kind":"point","keys":[%d]}`, i%16)))
				}
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestBadRequests(t *testing.T) {
	_, ts, _ := newStandaloneServer(t, queryd.Config{})
	for body, want := range map[string]int{
		`{"kind":"point"}`:                                  http.StatusBadRequest, // no keys
		`{"kind":"point","keys":["abc"]}`:                   http.StatusBadRequest,
		`{"kind":"window","keys":[1],"window":0}`:           http.StatusBadRequest,
		`{"kind":"topk","k":0}`:                             http.StatusBadRequest,
		`{"kind":"window","keys":[1],"window":1,"agent":2}`: http.StatusNotImplemented, // standalone: no agents
	} {
		status, eb := errorEnvelope(t, "POST", ts.URL+"/v2/query", strings.NewReader(body))
		if status != want || eb.Error.Code == "" {
			t.Errorf("POST /v2/query %s: status %d code %q, want %d", body, status, eb.Error.Code, want)
		}
	}
	// The retired single-key routes are gone: they answer the 404 envelope.
	for _, path := range []string{"/v1/point?key=1", "/v1/window?key=1&n=1", "/v1/topk?k=1"} {
		status, eb := errorEnvelope(t, "GET", ts.URL+path, nil)
		if status != http.StatusNotFound || eb.Error.Code != "not_found" {
			t.Errorf("GET %s: status %d code %q, want 404 not_found", path, status, eb.Error.Code)
		}
	}
}

func TestCheckpointImpossibleConfigRefusedAtStartup(t *testing.T) {
	// Epoch-mode backends can never checkpoint: a server configured to
	// persist state must refuse at startup, not log failures forever.
	spec := sketch.Spec{MemoryBytes: 64 << 10, Lambda: 25, Seed: 1}
	ring, err := queryd.NewSketchBackend("Ours", spec, time.Second, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := queryd.New(ring, queryd.Config{CheckpointPath: filepath.Join(t.TempDir(), "x.ckpt")}); err == nil {
		t.Error("epoch-mode backend with a checkpoint path accepted")
	}
	// Non-Snapshottable variants refuse too.
	elastic, err := queryd.NewSketchBackend("Elastic", spec, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := queryd.New(elastic, queryd.Config{CheckpointPath: filepath.Join(t.TempDir(), "x.ckpt")}); err == nil {
		t.Error("non-Snapshottable backend with a checkpoint path accepted")
	}
}

func TestRestoreRejectsCorruptSnapshotAtomically(t *testing.T) {
	// A truncated snapshot must not half-overwrite live state: the backend
	// keeps answering from its pre-restore contents after a failed Restore.
	spec := sketch.Spec{MemoryBytes: 64 << 10, Seed: 1}
	src, err := queryd.NewSketchBackend("CM_fast", spec, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	src.Ingest(ingest.Batch{Items: []stream.Item{{Key: 1, Value: 111}}})
	var snap bytes.Buffer
	if err := src.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	dst, err := queryd.NewSketchBackend("CM_fast", spec, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst.Ingest(ingest.Batch{Items: []stream.Item{{Key: 2, Value: 222}}})
	trunc := snap.Bytes()[:snap.Len()/2]
	if err := dst.Restore(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if got, _ := execPoint(t, dst, 2); got != 222 {
		t.Errorf("failed restore corrupted live state: key 2 = %d, want 222", got)
	}
}

func TestEpochTopKEmptyBeforeFirstSeal(t *testing.T) {
	// Before anything seals, top-k is an empty window — not a missing
	// capability: the endpoint must answer 200 with no items, exactly as
	// a window query answers zeros with coverage 0 in the same state.
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
	t.Cleanup(func() { ts.Close(); s.Close() })

	b.Ingest(ingest.Batch{Items: []stream.Item{{Key: 5, Value: 100}}})
	req := query.Request{Kind: query.TopK, K: 3}
	if r := execOK(t, ts.URL, req); len(r.PerKey) != 0 {
		t.Errorf("pre-seal topk returned %d items", len(r.PerKey))
	}
	clk.Advance(time.Second)
	if r := execOK(t, ts.URL, req); len(r.PerKey) != 1 || r.PerKey[0].Key != 5 {
		t.Errorf("post-seal topk = %+v, want key 5", r.PerKey)
	}
}

func TestShardedBackendConcurrentIngest(t *testing.T) {
	// Spec.Shards promises concurrent ingest; the backend must route it
	// through the sharded sketch's per-shard locks, not one outer mutex.
	// Race-checked in CI; correctness checked here.
	spec := sketch.Spec{MemoryBytes: 256 << 10, Lambda: 25, Seed: 1, Shards: 4}
	b, err := queryd.NewSketchBackend("Ours", spec, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const writers, perWriter = 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				b.Ingest(ingest.Batch{Items: []stream.Item{{Key: uint64(i % 32), Value: 1}}})
				if i%16 == 0 {
					b.Execute(query.Request{Kind: query.Point, Keys: []uint64{uint64(i % 32)}})
					b.Execute(query.Request{Kind: query.TopK, K: 4})
				}
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for key := uint64(0); key < 32; key++ {
		est, certified := execPoint(t, b, key)
		if !certified {
			t.Fatalf("sharded backend lost certification for key %d", key)
		}
		total += est
	}
	if want := uint64(writers * perWriter); total < want {
		t.Errorf("estimates sum to %d, want ≥ %d (sharded never underestimates here)", total, want)
	}
	var snap bytes.Buffer
	if err := b.Checkpoint(&snap); err != nil {
		t.Fatalf("sharded checkpoint: %v", err)
	}
	b2, err := queryd.NewSketchBackend("Ours", spec, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("sharded restore: %v", err)
	}
	got, _ := execPoint(t, b2, 1)
	if want, _ := execPoint(t, b, 1); got != want {
		t.Error("sharded snapshot round trip diverged")
	}
}
