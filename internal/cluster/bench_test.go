package cluster

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

// BenchmarkRouterExec serves 64-key zipf point batches through a router
// fronted by queryd.Server, as rsserve -cluster-router runs it, over three
// replicas on loopback HTTP: the read path a cluster client pays, fan-out
// included. The batches replay the ingested stream's own key order, so hot
// keys repeat the way they do in traffic.
func BenchmarkRouterExec(b *testing.B) {
	const algo = "Ours"
	spec := sketch.Spec{MemoryBytes: 1 << 20, Lambda: 25, Seed: 5, Emergency: true}
	tc := startCluster(b, 3, algo, spec)
	rt := tc.router(b, algo)
	s := stream.Zipf(64<<10, 10_000, 1.1, 7)
	if ack := rt.Ingest(ingest.Batch{Items: s.Items}); ack.Dropped != 0 {
		b.Fatalf("healthy cluster dropped %d items", ack.Dropped)
	}
	tc.replicate(b, 2)
	srv, err := queryd.New(rt, queryd.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })

	const batch = 64
	bodies := make([][]byte, len(s.Items)/batch)
	for i := range bodies {
		keys := make([]uint64, batch)
		for j := range keys {
			keys[j] = s.Items[i*batch+j].Key
		}
		if bodies[i], err = json.Marshal(query.Request{Kind: query.Point, Keys: keys}); err != nil {
			b.Fatal(err)
		}
	}
	h := srv.Handler()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		i++
	}
}
