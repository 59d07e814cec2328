package cluster

// End-to-end cluster tests over real HTTP: N queryd servers on httptest
// listeners, each fronting a Replica, with a Router scatter-gathering
// through them. The partition-equivalence test is the tentpole acceptance
// criterion: a 3-replica cluster's 256-key batch must be bit-compatible
// with a single node fed the same stream, because CM merges are linear and
// every replica answers from a fully merged view.

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/queryd"
	"repro/internal/sketch"
	_ "repro/internal/sketch/all"
	"repro/internal/stream"
)

type testCluster struct {
	urls     []string
	replicas []*Replica
	servers  []*httptest.Server
	reps     []*Replicator
}

// startCluster boots n replicas of algo/spec on httptest servers. Listeners
// are allocated before any server starts so the membership (which every
// node must agree on) is known up front.
func startCluster(t testing.TB, n int, algo string, spec sketch.Spec) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		srv := httptest.NewUnstartedServer(nil)
		tc.servers = append(tc.servers, srv)
		tc.urls = append(tc.urls, "http://"+srv.Listener.Addr().String())
	}
	for i := 0; i < n; i++ {
		b, err := queryd.NewSketchBackend(algo, spec, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := NewReplica(b, algo, spec, Membership{Peers: tc.urls, Self: i}, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		s, err := queryd.New(rep, queryd.Config{Algo: algo, Spec: spec, CacheTTL: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		tc.reps = append(tc.reps, NewReplicator(rep, 0, nil))
		tc.replicas = append(tc.replicas, rep)
		tc.servers[i].Config.Handler = s.Handler()
		tc.servers[i].Start()
		t.Cleanup(func() { tc.servers[i].Close(); s.Close() })
	}
	return tc
}

// replicate runs one pull sweep on every live replica, asserting each
// pulled wantPeers new deltas.
func (tc *testCluster) replicate(t testing.TB, wantPeers int) {
	t.Helper()
	for i, rp := range tc.reps {
		pulled, err := rp.RunOnce()
		if err != nil {
			t.Fatalf("replica %d: replication sweep: %v", i, err)
		}
		if pulled != wantPeers {
			t.Fatalf("replica %d pulled %d peers, want %d", i, pulled, wantPeers)
		}
	}
}

func (tc *testCluster) router(t testing.TB, algo string) *Router {
	t.Helper()
	rt, err := NewRouter(RouterConfig{Membership: Membership{Peers: tc.urls}, Algo: algo, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestRouterPartitionEquivalence(t *testing.T) {
	const algo = "CM_acc"
	spec := sketch.Spec{MemoryBytes: 64 << 10, Lambda: 25, Seed: 9}
	tc := startCluster(t, 3, algo, spec)
	rt := tc.router(t, algo)

	s := stream.Zipf(20_000, 500, 1.2, 3)
	ack := rt.Ingest(ingest.Batch{Items: s.Items})
	if ack.Accepted != len(s.Items) || ack.Dropped != 0 {
		t.Fatalf("routed ingest acked %+v for %d items", ack, len(s.Items))
	}
	tc.replicate(t, 2)

	single, err := queryd.NewSketchBackend(algo, spec, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	single.Ingest(ingest.Batch{Items: s.Items})

	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	req := query.Request{Kind: query.Point, Keys: keys}
	clustered, err := rt.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := single.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if clustered.KeyCoverage != 1 {
		t.Fatalf("healthy cluster KeyCoverage = %v, want 1", clustered.KeyCoverage)
	}
	if len(clustered.PerKey) != len(direct.PerKey) {
		t.Fatalf("row counts differ: %d vs %d", len(clustered.PerKey), len(direct.PerKey))
	}
	for i := range keys {
		c, d := clustered.PerKey[i], direct.PerKey[i]
		if c != d {
			t.Fatalf("key %d: cluster answered %+v, single node %+v — not bit-compatible", keys[i], c, d)
		}
	}
}

func TestRouterDegradedCoverageOnReplicaDeath(t *testing.T) {
	const algo = "Ours"
	spec := sketch.Spec{MemoryBytes: 1 << 20, Lambda: 25, Seed: 5, Emergency: true}
	tc := startCluster(t, 3, algo, spec)
	rt := tc.router(t, algo)

	truth := make(map[uint64]uint64)
	var items []stream.Item
	for k := uint64(1); k <= 64; k++ {
		n := 10 * k
		truth[k] = n
		for v := uint64(0); v < n; v++ {
			items = append(items, stream.Item{Key: k, Value: 1})
		}
	}
	if ack := rt.Ingest(ingest.Batch{Items: items}); ack.Dropped != 0 {
		t.Fatalf("healthy cluster dropped %d acked items", ack.Dropped)
	}
	tc.replicate(t, 2)

	keys := make([]uint64, 0, len(truth))
	for k := uint64(1); k <= 64; k++ {
		keys = append(keys, k)
	}
	req := query.Request{Kind: query.Point, Keys: keys}

	healthy, err := rt.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if !healthy.Certified || healthy.KeyCoverage != 1 {
		t.Fatalf("healthy cluster: certified=%v coverage=%v, want certified full coverage",
			healthy.Certified, healthy.KeyCoverage)
	}
	for i, k := range keys {
		e := healthy.PerKey[i]
		if e.Lower > truth[k] || truth[k] > e.Upper {
			t.Fatalf("key %d: certified [%d, %d] misses acked truth %d", k, e.Lower, e.Upper, truth[k])
		}
	}

	// Kill replica 0 the hard way: connections refused from here on.
	tc.servers[0].CloseClientConnections()
	tc.servers[0].Close()

	degraded, err := rt.Execute(req)
	if err != nil {
		t.Fatalf("router must answer degraded, not error: %v", err)
	}
	if degraded.Certified {
		t.Fatal("router certified an answer with a replica down")
	}
	if degraded.KeyCoverage >= 1 || degraded.KeyCoverage <= 0 {
		t.Fatalf("KeyCoverage = %v with one of 3 replicas down, want in (0, 1)", degraded.KeyCoverage)
	}
	// Fallback answers come from the survivors' merged views, which saw the
	// dead replica's delta before it died — estimates stay ≥ truth (the
	// never-underestimating family), just uncertified.
	for i, k := range keys {
		if degraded.PerKey[i].Est < truth[k] {
			t.Fatalf("key %d: degraded estimate %d under acked truth %d — fallback lost writes",
				k, degraded.PerKey[i].Est, truth[k])
		}
	}

	// Routed ingest to the dead owner reports drops instead of lying.
	ack := rt.Ingest(ingest.Batch{Items: items})
	if ack.Dropped == 0 || ack.Accepted+ack.Dropped != len(items) {
		t.Fatalf("ingest with a dead owner acked %+v for %d items, want visible drops", ack, len(items))
	}
}

func TestRouterNoFallbackLeavesKeysUnanswered(t *testing.T) {
	const algo = "CM_acc"
	spec := sketch.Spec{MemoryBytes: 32 << 10, Lambda: 25, Seed: 2}
	tc := startCluster(t, 3, algo, spec)
	rt, err := NewRouter(RouterConfig{Membership: Membership{Peers: tc.urls}, Algo: algo, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	tc.servers[1].CloseClientConnections()
	tc.servers[1].Close()

	keys := make([]uint64, 128)
	for i := range keys {
		keys[i] = uint64(i)
	}
	ans, err := rt.Execute(query.Request{Kind: query.Point, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Certified || ans.KeyCoverage >= 1 {
		t.Fatalf("no-fallback with a dead replica: certified=%v coverage=%v", ans.Certified, ans.KeyCoverage)
	}
	if len(ans.PerKey) != len(keys) {
		t.Fatalf("PerKey must stay aligned: %d rows for %d keys", len(ans.PerKey), len(keys))
	}
}

func TestRouterTopKMergesReplicaListings(t *testing.T) {
	const algo = "Ours"
	spec := sketch.Spec{MemoryBytes: 1 << 20, Lambda: 25, Seed: 8, Emergency: true}
	tc := startCluster(t, 3, algo, spec)
	rt := tc.router(t, algo)

	var items []stream.Item
	for k := uint64(1); k <= 40; k++ {
		for v := uint64(0); v < 50*k; v++ {
			items = append(items, stream.Item{Key: k, Value: 1})
		}
	}
	if ack := rt.Ingest(ingest.Batch{Items: items}); ack.Dropped != 0 {
		t.Fatalf("ingest dropped %d", ack.Dropped)
	}
	tc.replicate(t, 2)

	ans, err := rt.Execute(query.Request{Kind: query.TopK, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.PerKey) != 5 {
		t.Fatalf("top-5 returned %d rows", len(ans.PerKey))
	}
	if ans.PerKey[0].Key != 40 {
		t.Fatalf("heaviest key is %d, want 40", ans.PerKey[0].Key)
	}
	if ans.KeyCoverage != 1 {
		t.Fatalf("all replicas answered, KeyCoverage = %v", ans.KeyCoverage)
	}
}

func TestReplicatorRefusesMismatchedPeer(t *testing.T) {
	specA := sketch.Spec{MemoryBytes: 32 << 10, Lambda: 25, Seed: 2}
	specB := sketch.Spec{MemoryBytes: 64 << 10, Lambda: 25, Seed: 2}

	srvA := httptest.NewUnstartedServer(nil)
	srvB := httptest.NewUnstartedServer(nil)
	urls := []string{"http://" + srvA.Listener.Addr().String(), "http://" + srvB.Listener.Addr().String()}

	// Peer B serves a different Spec under the same algorithm.
	bB, err := queryd.NewSketchBackend("CM_acc", specB, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bB.Ingest(ingest.Batch{Items: []stream.Item{{Key: 1, Value: 1}}})
	sB, err := queryd.New(bB, queryd.Config{Algo: "CM_acc", Spec: specB})
	if err != nil {
		t.Fatal(err)
	}
	srvB.Config.Handler = sB.Handler()
	srvB.Start()
	defer func() { srvB.Close(); sB.Close() }()
	srvA.Close()

	bA, err := queryd.NewSketchBackend("CM_acc", specA, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	repA, err := NewReplica(bA, "CM_acc", specA, Membership{Peers: urls, Self: 0}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReplicator(repA, 0, nil)
	pulled, err := rp.RunOnce()
	if pulled != 0 {
		t.Fatalf("mismatched peer yielded a delta (pulled %d)", pulled)
	}
	if !errors.Is(err, sketch.ErrSnapshotMismatch) {
		t.Fatalf("pull from mismatched peer: %v, want sketch.ErrSnapshotMismatch", err)
	}
}

func TestReplicaRefusals(t *testing.T) {
	m := Membership{Peers: []string{"http://a:1", "http://b:2"}, Self: 0}

	// Epoch-mode backends cannot replicate.
	eb, err := queryd.NewSketchBackend("CM_acc", sketch.Spec{MemoryBytes: 1 << 16, Lambda: 25, Seed: 1}, time.Hour, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplica(eb, "CM_acc", sketch.Spec{MemoryBytes: 1 << 16, Lambda: 25, Seed: 1}, m, nil); !errors.Is(err, ErrEpochalReplica) {
		t.Fatalf("epoch backend: %v, want ErrEpochalReplica", err)
	}

	// Single-member clusters have nothing to replicate with.
	cb, err := queryd.NewSketchBackend("CM_acc", sketch.Spec{MemoryBytes: 1 << 16, Lambda: 25, Seed: 1}, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	solo := Membership{Peers: []string{"http://a:1"}, Self: 0}
	if _, err := NewReplica(cb, "CM_acc", sketch.Spec{MemoryBytes: 1 << 16, Lambda: 25, Seed: 1}, solo, nil); !errors.Is(err, ErrReplicaCount) {
		t.Fatalf("solo cluster: %v, want ErrReplicaCount", err)
	}
}
