package netsum

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/stream"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgBatch, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgBatch || !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Fatalf("got (%d, %v)", typ, payload)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgBatch, make([]byte, maxFrame+1)); err == nil {
		t.Error("writeFrame accepted oversized payload")
	}
	// Forged oversized header.
	forged := append([]byte{msgBatch}, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(forged))); err == nil {
		t.Error("readFrame accepted forged oversized frame")
	}
}

func TestBatchCodec(t *testing.T) {
	ups := []Update{{Key: 1, Value: 2}, {Key: 999999, Value: 1}, {Key: 0, Value: 7}}
	got, err := decodeBatch(encodeBatch(ups))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ups) {
		t.Fatalf("len=%d", len(got))
	}
	for i := range ups {
		if got[i] != ups[i] {
			t.Fatalf("update %d: %v vs %v", i, got[i], ups[i])
		}
	}
	// Truncated payloads are rejected.
	enc := encodeBatch(ups)
	if _, err := decodeBatch(enc[:len(enc)-1]); err == nil {
		t.Error("decodeBatch accepted truncation")
	}
}

func newTestCollector(t *testing.T) *Collector {
	t.Helper()
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec: sketch.Spec{Lambda: 25, MemoryBytes: 256 << 10, Seed: 1},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestSingleAgentEndToEnd(t *testing.T) {
	c := newTestCollector(t)
	a, err := Dial(c.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 1000; i++ {
		if err := a.Record(42, 1); err != nil {
			t.Fatal(err)
		}
	}
	if e := agentPoint(t, a, 42); e.Upper < 1000 || e.Lower > 1000 {
		t.Errorf("truth 1000 outside certified [%d, %d]", e.Lower, e.Upper)
	}
}

func TestMultiAgentGlobalSums(t *testing.T) {
	c := newTestCollector(t)
	const agents = 4
	const perAgent = 500
	var wg sync.WaitGroup
	for id := 1; id <= agents; id++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			a, err := Dial(c.Addr(), id)
			if err != nil {
				t.Errorf("agent %d: %v", id, err)
				return
			}
			defer a.Close()
			for i := 0; i < perAgent; i++ {
				if err := a.Record(7, 1); err != nil {
					t.Errorf("agent %d: %v", id, err)
					return
				}
			}
			// A synchronous round-trip guarantees the collector has
			// processed every frame sent on this connection.
			if _, _, _, err := a.Stats(); err != nil {
				t.Errorf("agent %d sync: %v", id, err)
			}
		}(uint64(id))
	}
	wg.Wait()

	const truth = agents * perAgent
	if e := collectorPoint(t, c, 7); e.Upper < truth || e.Lower > truth {
		t.Errorf("global truth %d outside certified [%d, %d]", truth, e.Lower, e.Upper)
	}
	nAgents, updates, _ := c.Stats()
	if nAgents != agents {
		t.Errorf("agents=%d want %d", nAgents, agents)
	}
	if updates != truth {
		t.Errorf("updates=%d want %d", updates, truth)
	}
}

func TestRealisticWorkloadCertifiedGlobally(t *testing.T) {
	c := newTestCollector(t)
	// Three vantage points each see a slice of the same traffic.
	s := stream.IPTrace(60_000, 5)
	const agents = 3
	var wg sync.WaitGroup
	for id := 0; id < agents; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			a, err := Dial(c.Addr(), uint64(id+1))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer a.Close()
			for i := id; i < len(s.Items); i += agents {
				if err := a.Record(s.Items[i].Key, s.Items[i].Value); err != nil {
					t.Errorf("record: %v", err)
					return
				}
			}
			if _, _, _, err := a.Stats(); err != nil {
				t.Errorf("sync: %v", err)
			}
		}(id)
	}
	wg.Wait()

	violations := 0
	checked := 0
	for key, f := range s.Truth() {
		if e := collectorPoint(t, c, key); f > e.Upper || e.Lower > f {
			violations++
		}
		checked++
		if checked >= 2000 {
			break
		}
	}
	if violations > 0 {
		t.Errorf("%d/%d keys outside the composed certified interval", violations, checked)
	}
}

// feedAgents splits a stream across agent connections round-robin and
// syncs each so the collector has ingested everything.
func feedAgents(t *testing.T, c *Collector, s *stream.Stream, agents int) {
	t.Helper()
	var wg sync.WaitGroup
	for id := 0; id < agents; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			a, err := Dial(c.Addr(), uint64(id+1))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer a.Close()
			for i := id; i < len(s.Items); i += agents {
				if err := a.Record(s.Items[i].Key, s.Items[i].Value); err != nil {
					t.Errorf("record: %v", err)
					return
				}
			}
			if _, _, _, err := a.Stats(); err != nil {
				t.Errorf("sync: %v", err)
			}
		}(id)
	}
	wg.Wait()
	// The stats round trips above guarantee every frame was ACCEPTED into
	// the ingest pipeline; drain it so helpers that read collector state
	// directly (estimateSumBatch) see it fully applied. Query paths drain
	// for themselves.
	c.drainIngest()
}

// agentPoint asks the collector for key's global interval over a's own
// connection, so the answer covers every update a was acked for.
func agentPoint(t *testing.T, a *Agent, key uint64) query.Estimate {
	t.Helper()
	ans, err := a.Execute(query.Request{Kind: query.Point, Keys: []uint64{key}})
	if err != nil {
		t.Fatal(err)
	}
	return ans.PerKey[0]
}

// collectorPoint answers key's global interval through Collector.Execute.
func collectorPoint(t *testing.T, c *Collector, key uint64) query.Estimate {
	t.Helper()
	ans, err := c.Execute(query.Request{Kind: query.Point, Keys: []uint64{key}})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Certified {
		t.Fatalf("key %d: collector answer not certified", key)
	}
	return ans.PerKey[0]
}

// estimateSum reads one key's estimate-sum composition through the batch
// core, for comparing against the merged-view intersection.
func estimateSum(c *Collector, key uint64) (est, mpe uint64) {
	keys := [1]uint64{key}
	var e, m [1]uint64
	c.estimateSumBatch(keys[:], 0, e[:], m[:])
	return e[0], m[0]
}

// TestMergedViewNoLooserThanEstimateSum is the tentpole acceptance
// property: with a Mergeable variant the collector's certified interval
// must contain the truth AND be no looser than the estimate-sum
// composition, because it intersects the merged view with it.
func TestMergedViewNoLooserThanEstimateSum(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec: sketch.Spec{Lambda: 25, MemoryBytes: 256 << 10, Seed: 1},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if !c.MergeBased() {
		t.Fatal("Ours is Mergeable; the collector should maintain a merged view")
	}

	s := stream.IPTrace(60_000, 5)
	feedAgents(t, c, s, 3)

	looser, violations, checked := 0, 0, 0
	for key, f := range s.Truth() {
		sumEst, sumMpe := estimateSum(c, key)
		e := collectorPoint(t, c, key)
		if f > e.Upper || e.Lower > f {
			violations++
		}
		if e.Lower < sketch.CertifiedLowerBound(sumEst, sumMpe) || e.Upper > sumEst {
			looser++
		}
		if checked++; checked >= 2_000 {
			break
		}
	}
	if violations > 0 {
		t.Errorf("%d/%d keys outside the merge-based certified interval", violations, checked)
	}
	if looser > 0 {
		t.Errorf("%d/%d merge-based intervals looser than estimate-summing", looser, checked)
	}
}

// TestEstimateSumFallback pins the non-merged path: with the merged view
// disabled the collector must answer exactly like the classic composition.
func TestEstimateSumFallback(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec:              sketch.Spec{Lambda: 25, MemoryBytes: 256 << 10, Seed: 1},
		DisableMergedView: true,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if c.MergeBased() {
		t.Fatal("DisableMergedView was ignored")
	}
	s := stream.IPTrace(30_000, 5)
	feedAgents(t, c, s, 2)
	checked := 0
	for key, f := range s.Truth() {
		sumEst, sumMpe := estimateSum(c, key)
		sumLower := sketch.CertifiedLowerBound(sumEst, sumMpe)
		e := collectorPoint(t, c, key)
		if e.Upper != sumEst || e.Lower != sumLower {
			t.Fatalf("fallback answer [%d,%d] differs from estimate-sum [%d,%d]", e.Lower, e.Upper, sumLower, sumEst)
		}
		if f > e.Upper || e.Lower > f {
			t.Fatalf("truth %d outside fallback interval [%d,%d]", f, e.Lower, e.Upper)
		}
		if checked++; checked >= 500 {
			break
		}
	}
}

// TestWindowQueryOverNetwork drives the epoch-mode collector end to end:
// agents stream distinct epochs under a fake clock, then window queries
// must see exactly the covered epochs.
func TestWindowQueryOverNetwork(t *testing.T) {
	clk := &fakeNetClock{now: time.Unix(0, 0)}
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec:         sketch.Spec{Lambda: 25, MemoryBytes: 128 << 10, Seed: 1},
		Epoch:        time.Second,
		WindowEpochs: 4,
		Clock:        clk.Now,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	a, err := Dial(c.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Epoch 0: key 7 ×100. Epoch 1: key 7 ×40. Then seal both.
	record := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := a.Record(7, 1); err != nil {
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
	}
	record(100)
	record(40)
	if err := a.Record(9, 1); err != nil { // force the final rotation
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ n, truth int }{{1, 40}, {2, 140}} {
		ans, err := a.Execute(query.Request{Kind: query.Window, Keys: []uint64{7}, Window: tc.n})
		if err != nil {
			t.Fatal(err)
		}
		if ans.Coverage != tc.n {
			t.Errorf("%d-epoch window: covered=%d", tc.n, ans.Coverage)
		}
		if e := ans.PerKey[0]; e.Upper < uint64(tc.truth) || e.Lower > uint64(tc.truth) {
			t.Errorf("%d-epoch window: truth %d outside [%d,%d]", tc.n, tc.truth, e.Lower, e.Upper)
		}
	}
	// The plain global query in epoch mode covers the retained window.
	if e := agentPoint(t, a, 7); e.Upper < 140 || e.Lower > 140 {
		t.Errorf("epoch-mode global query: truth 140 outside [%d,%d]", e.Lower, e.Upper)
	}
}

// fakeNetClock is a goroutine-safe manual clock for epoch-mode tests.
type fakeNetClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeNetClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeNetClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

func TestQueryOverNetwork(t *testing.T) {
	c := newTestCollector(t)
	a, err := Dial(c.Addr(), 9)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Record(5, 123)
	if e := agentPoint(t, a, 5); e.Upper < 123 || e.Lower > 123 {
		t.Errorf("certified interval [%d,%d] misses 123", e.Lower, e.Upper)
	}
	nAgents, updates, queries, err := a.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if nAgents != 1 || updates != 1 || queries == 0 {
		t.Errorf("stats = (%d,%d,%d)", nAgents, updates, queries)
	}
}

func TestBatchBeforeHelloRejected(t *testing.T) {
	c := newTestCollector(t)
	conn, err := dialRaw(c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, msgBatch, encodeBatch([]Update{{Key: 1, Value: 1}})); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	// The collector must drop the connection; a subsequent read hits EOF.
	one := make([]byte, 1)
	if _, err := conn.Read(one); err == nil {
		t.Error("collector kept a connection that violated the protocol")
	}
}

func TestUnknownMessageDropsConnection(t *testing.T) {
	c := newTestCollector(t)
	conn, err := dialRaw(c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, 0xEE, nil); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	one := make([]byte, 1)
	if _, err := conn.Read(one); err == nil {
		t.Error("collector accepted unknown message type")
	}
}

func TestUvarintReaderErrors(t *testing.T) {
	u := &uvarintReader{buf: nil}
	if _, err := u.next(); err == nil {
		t.Error("empty buffer should error")
	}
	u = &uvarintReader{buf: []byte{0x80}} // incomplete varint
	if _, err := u.next(); err == nil {
		t.Error("truncated varint should error")
	}
}

// dialRaw opens a bare TCP connection for protocol-violation tests.
func dialRaw(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}
