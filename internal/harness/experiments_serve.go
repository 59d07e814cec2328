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
// enough to exercise lock contention without asking the host for more
// parallelism than a laptop has.
const serveClients = 8

// serveQueriesPerClient keeps the experiment's wall time modest while
// still amortizing connection setup; the hot set cycles many times over.
const serveQueriesPerClient = 500

// serveHotKeys is the single-key row's working set: clients cycle through
// the stream's heaviest keys, the read-mostly pattern a dashboard or
// alerting poller produces.
const serveHotKeys = 64

// serveBatchKeys is the /v2/query batch size of the batch row: 256 keys,
// one request, per-key certified bounds.
const serveBatchKeys = 256

// ServeLoad measures the query-serving subsystem end to end: a queryd HTTP
// server over a standalone sketch fed the IP trace, hammered by concurrent
// clients posting /v2/query point batches. One row asks one key per
// request, cycling through the hot keys; the other asks the 256 heaviest
// keys at once, where one HTTP round trip amortizes parsing and locking
// across the whole batch. KeyQPS (keys answered per second) is the
// comparable unit.
func ServeLoad(o Options) (*Table, error) {
	s := stream.IPTrace(o.Items, o.Seed)
	spec := sketch.Spec{MemoryBytes: o.memFor(1), Lambda: 25, Seed: o.Seed}
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

	heavy := hotKeys(s, serveBatchKeys)
	var single [][]byte
	for _, key := range heavy[:min(serveHotKeys, len(heavy))] {
		single = append(single, pointBody(key))
	}
	t := &Table{
		ID:     "serve",
		Title:  fmt.Sprintf("/v2/query serving under concurrent load, %d clients", serveClients),
		Header: []string{"Mode", "Keys", "p50(µs)", "p99(µs)", "KeyQPS"},
	}
	for _, r := range []struct {
		label     string
		bodies    [][]byte
		keys      int // keys per request
		perClient int
	}{
		{fmt.Sprintf("batch×1, %d hot keys", len(single)), single, 1, serveQueriesPerClient},
		// Batches carry 256× the keys; fewer requests keep wall time modest.
		{fmt.Sprintf("batch×%d", len(heavy)), [][]byte{pointBody(heavy...)}, len(heavy), serveQueriesPerClient / 10},
	} {
		row, err := serveRow(ts, r.bodies, r.keys, r.perClient)
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]any{r.label}, row...)...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("stream=%s items=%d; standalone Ours backend, cumulative mode", s.Name, s.Len()),
		"latency percentiles are per request, not per key",
		"point batches never consult the result cache: every key reaches the sketch")
	return t, nil
}

// pointBody encodes a /v2/query point batch for keys.
func pointBody(keys ...uint64) []byte {
	body, _ := json.Marshal(query.Request{Kind: query.Point, Keys: keys})
	return body
}

// serveRow runs one load round: serveClients concurrent clients each post
// perClient /v2/query requests, cycling through bodies from a per-client
// offset. It reports keys answered, p50/p99 request latency and keys
// answered per second.
func serveRow(ts *httptest.Server, bodies [][]byte, keysPer, perClient int) ([]any, error) {
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
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				resp, err := client.Post(ts.URL+"/v2/query", "application/json",
					bytes.NewReader(bodies[(c+i)%len(bodies)]))
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
	keys := len(all) * keysPer
	return []any{
		keys,
		float64(percentile(all, 0.50).Microseconds()),
		float64(percentile(all, 0.99).Microseconds()),
		float64(keys) / elapsed.Seconds(),
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
