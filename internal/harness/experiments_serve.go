package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/queryd"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// serveClients is the concurrent client count of the serve experiment —
// enough to exercise singleflight collapsing and lock contention without
// asking the host for more parallelism than a laptop has.
const serveClients = 8

// serveQueriesPerClient keeps the experiment's wall time modest while
// still amortizing connection setup; the hot set cycles many times over.
const serveQueriesPerClient = 500

// serveHotKeys is the repeated-query working set: clients cycle through
// the stream's heaviest keys, the read-mostly pattern a dashboard or
// alerting poller produces.
const serveHotKeys = 64

// serveBatchKeys is the /v2/query batch size of the batch rows — the
// acceptance-criteria shape: 256 keys, one request, per-key certified
// bounds.
const serveBatchKeys = 256

// ServeLoad measures the query-serving subsystem end to end: a queryd HTTP
// server over a standalone sketch fed the IP trace, hammered by concurrent
// clients repeating a hot-key query mix. Rows contrast the configured
// cache against a deliberately starved one-entry cache — the difference is
// what epoch-aware caching buys on a read-heavy serving path — and
// single-key /v1 serving against uncached /v2 batches of 256 keys, where
// one HTTP round trip amortizes parsing and locking across the whole batch
// (key-QPS is the comparable unit: keys answered per second). Hit
// rate on the configured cache must exceed 0.9: after one cold pass every
// repeat is served without touching the sketch.
func ServeLoad(o Options) (*Table, error) {
	s := stream.IPTrace(o.Items, o.Seed)
	spec := sketch.Spec{MemoryBytes: o.memFor(1), Lambda: 25, Seed: o.Seed}
	hot := hotKeys(s, serveHotKeys)

	t := &Table{
		ID: "serve",
		Title: fmt.Sprintf("query serving under concurrent load, %d clients × %d queries, %d hot keys",
			serveClients, serveQueriesPerClient, serveHotKeys),
		Header: []string{"Mode", "Keys", "HitRate", "p50(µs)", "p99(µs)", "KeyQPS"},
	}
	for _, cfg := range []struct {
		label    string
		capacity int
	}{
		{"/v1 single-key, 4096 entries", 4096},
		{"/v1 single-key, 1 entry (starved)", 1},
	} {
		row, err := serveOnce(spec, s, hot, cfg.capacity)
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]any{cfg.label}, row...)...)
	}
	batchRow, err := serveBatchOnce(spec, s)
	if err != nil {
		return nil, err
	}
	t.AddRow(append([]any{fmt.Sprintf("/v2 batch×%d, uncached", serveBatchKeys)}, batchRow...)...)
	// Policy comparison: the same zipf-skewed trace against each eviction
	// policy at equal (pressured) capacity — the admission-controlled
	// policies must stop the zipf tail's one-hit wonders from displacing
	// the hot head, which shows up directly as hit rate.
	zipfTrace := stream.NewZipfSampler(servePolicyDistinct, servePolicySkew, o.Seed).
		Stream("zipf", serveClients*servePolicyQueries).Items
	for _, policy := range []string{"lru", "s3fifo", "tinylfu"} {
		row, err := servePolicyOnce(spec, s, policy, zipfTrace)
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]any{fmt.Sprintf("/v1 zipf%.1f, %s, %d entries", servePolicySkew, policy, servePolicyCapacity)}, row...)...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("stream=%s items=%d; standalone Ours backend, cumulative mode, 1s TTL", s.Name, s.Len()),
		"hit rate counts singleflight-collapsed queries as hits (they never touched the sketch)",
		"KeyQPS is keys answered per second: /v1 answers 1 key per request, /v2 a whole batch",
		"/v2 latency percentiles are per batch request (256 keys each), not per key",
		"/v2 point batches never consult the result cache, so their hit rate is 0",
		fmt.Sprintf("policy rows share one zipf trace (skew %.1f, %d distinct keys) at %d-entry capacity",
			servePolicySkew, servePolicyDistinct, servePolicyCapacity))
	return t, nil
}

// Policy-comparison shape: a zipf-skewed key popularity over more distinct
// keys than the cache holds, so eviction quality is what decides the hit
// rate.
const (
	servePolicyDistinct = 4096
	servePolicySkew     = 1.1
	servePolicyCapacity = 512
	servePolicyQueries  = 2000
)

// servePolicyOnce replays a pre-drawn zipf trace of /v1/point queries
// against a fresh server running one eviction policy, each client walking
// its own disjoint slice of the trace. The TTL is long so the hit rate
// reflects eviction quality alone.
func servePolicyOnce(spec sketch.Spec, s *stream.Stream, policy string, trace []stream.Item) ([]any, error) {
	b, err := queryd.NewSketchBackend("Ours", spec, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	b.Ingest(ingest.Batch{Items: s.Items})
	srv, err := queryd.New(b, queryd.Config{
		CacheCapacity: servePolicyCapacity,
		CachePolicy:   policy,
		CacheTTL:      time.Hour,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	perClient := len(trace) / serveClients
	var wg sync.WaitGroup
	latencies := make([][]time.Duration, serveClients)
	errs := make([]error, serveClients)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := ts.Client()
			lats := make([]time.Duration, 0, perClient)
			for _, it := range trace[c*perClient : (c+1)*perClient] {
				t0 := time.Now()
				resp, err := client.Get(fmt.Sprintf("%s/v1/point?key=%d", ts.URL, it.Key))
				if err != nil {
					errs[c] = err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs[c] = fmt.Errorf("serve policy %s: status %d", policy, resp.StatusCode)
					return
				}
				lats = append(lats, time.Since(t0))
			}
			latencies[c] = lats
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var all []time.Duration
	for _, lats := range latencies {
		all = append(all, lats...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	stats := queryd.CacheStats{}
	if raw, err := ts.Client().Get(ts.URL + "/v1/status"); err == nil {
		var st queryd.StatusResponse
		if err := json.NewDecoder(raw.Body).Decode(&st); err == nil {
			stats = st.Cache
		}
		raw.Body.Close()
	}
	return []any{
		len(all),
		stats.HitRate,
		float64(percentile(all, 0.50).Microseconds()),
		float64(percentile(all, 0.99).Microseconds()),
		float64(len(all)) / elapsed.Seconds(),
	}, nil
}

// serveBatchOnce runs the batch load round: the same concurrent clients,
// each issuing /v2/query batches of serveBatchKeys keys drawn from the
// stream's heavy tail, against a fresh server. Reported like serveOnce,
// with keys answered in place of requests.
func serveBatchOnce(spec sketch.Spec, s *stream.Stream) ([]any, error) {
	b, err := queryd.NewSketchBackend("Ours", spec, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	b.Ingest(ingest.Batch{Items: s.Items})
	srv, err := queryd.New(b, queryd.Config{})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	// The batch working set: the 256 heaviest keys — a dashboard refresh
	// covering the /v1 rows' hot set plus its tail, rather than 256 copies
	// of one key.
	batchKeys := hotKeys(s, serveBatchKeys)
	body, err := json.Marshal(query.Request{Kind: query.Point, Keys: batchKeys})
	if err != nil {
		return nil, err
	}

	var wg sync.WaitGroup
	latencies := make([][]time.Duration, serveClients)
	errs := make([]error, serveClients)
	perClient := serveQueriesPerClient / 10 // batches carry 256× the keys; keep wall time modest
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := ts.Client()
			lats := make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				resp, err := client.Post(ts.URL+"/v2/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs[c] = err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs[c] = fmt.Errorf("serve batch: status %d", resp.StatusCode)
					return
				}
				lats = append(lats, time.Since(t0))
			}
			latencies[c] = lats
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var all []time.Duration
	for _, lats := range latencies {
		all = append(all, lats...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	stats := queryd.CacheStats{}
	if raw, err := ts.Client().Get(ts.URL + "/v1/status"); err == nil {
		var st queryd.StatusResponse
		if err := json.NewDecoder(raw.Body).Decode(&st); err == nil {
			stats = st.Cache
		}
		raw.Body.Close()
	}
	keysAnswered := len(all) * serveBatchKeys
	return []any{
		keysAnswered,
		stats.HitRate,
		float64(percentile(all, 0.50).Microseconds()),
		float64(percentile(all, 0.99).Microseconds()),
		float64(keysAnswered) / elapsed.Seconds(),
	}, nil
}

// serveOnce runs one load round against a fresh server and reports
// queries, hit rate, p50/p99 latency, and throughput.
func serveOnce(spec sketch.Spec, s *stream.Stream, hot []uint64, cacheCapacity int) ([]any, error) {
	b, err := queryd.NewSketchBackend("Ours", spec, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	b.Ingest(ingest.Batch{Items: s.Items})
	srv, err := queryd.New(b, queryd.Config{CacheCapacity: cacheCapacity, CacheTTL: time.Second})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	var wg sync.WaitGroup
	latencies := make([][]time.Duration, serveClients)
	errs := make([]error, serveClients)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := ts.Client()
			lats := make([]time.Duration, 0, serveQueriesPerClient)
			for i := 0; i < serveQueriesPerClient; i++ {
				key := hot[(c+i)%len(hot)]
				t0 := time.Now()
				resp, err := client.Get(fmt.Sprintf("%s/v1/point?key=%d", ts.URL, key))
				if err != nil {
					errs[c] = err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs[c] = fmt.Errorf("serve: status %d", resp.StatusCode)
					return
				}
				lats = append(lats, time.Since(t0))
			}
			latencies[c] = lats
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var all []time.Duration
	for _, lats := range latencies {
		all = append(all, lats...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	stats := queryd.CacheStats{}
	if raw, err := ts.Client().Get(ts.URL + "/v1/status"); err == nil {
		var st queryd.StatusResponse
		if err := json.NewDecoder(raw.Body).Decode(&st); err == nil {
			stats = st.Cache
		}
		raw.Body.Close()
	}
	return []any{
		len(all),
		stats.HitRate,
		float64(percentile(all, 0.50).Microseconds()),
		float64(percentile(all, 0.99).Microseconds()),
		float64(len(all)) / elapsed.Seconds(),
	}, nil
}

// hotKeys returns the n heaviest keys of the stream, the working set a
// monitoring poller would keep asking about.
func hotKeys(s *stream.Stream, n int) []uint64 {
	type kf struct {
		key uint64
		f   uint64
	}
	all := make([]kf, 0, s.Distinct())
	for key, f := range s.Truth() {
		all = append(all, kf{key, f})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].f != all[j].f {
			return all[i].f > all[j].f
		}
		return all[i].key < all[j].key
	})
	if len(all) > n {
		all = all[:n]
	}
	keys := make([]uint64, len(all))
	for i, e := range all {
		keys[i] = e.key
	}
	return keys
}

// percentile reads the p-quantile from sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
