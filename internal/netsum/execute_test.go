package netsum

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// TestExecuteBatchMatchesSingleKey pins batching itself: a 256-key
// Execute over the network must answer exactly what 256 one-key Executes
// answer against the same collector state.
func TestExecuteBatchMatchesSingleKey(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec: sketch.Spec{Lambda: 25, MemoryBytes: 256 << 10, Seed: 1},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s := stream.IPTrace(40_000, 5)
	feedAgents(t, c, s, 3)

	keys := make([]uint64, 0, 256)
	for _, it := range s.Items {
		keys = append(keys, it.Key)
		if len(keys) == 255 {
			break
		}
	}
	keys = append(keys, 1<<40) // one absent key

	a, err := Dial(c.Addr(), 99)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ans, err := a.Execute(query.Request{Kind: query.Point, Keys: keys})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !ans.Certified {
		t.Error("collector answer not certified")
	}
	if len(ans.PerKey) != len(keys) {
		t.Fatalf("PerKey length %d, want %d", len(ans.PerKey), len(keys))
	}
	truth := s.Truth()
	for i, k := range keys {
		one := agentPoint(t, a, k)
		pk := ans.PerKey[i]
		if pk != one || pk.Key != k {
			t.Fatalf("key %d: batch answer %+v != one-key answer %+v", k, pk, one)
		}
		if f := truth[k]; f > pk.Upper || pk.Lower > f {
			t.Fatalf("key %d: truth %d outside [%d,%d]", k, f, pk.Lower, pk.Upper)
		}
	}
}

// TestExecuteRefusalKeepsConnection: a refused request answers msgExecErr
// and the connection keeps serving — refusals are answers, not faults.
func TestExecuteRefusalKeepsConnection(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec: sketch.Spec{Lambda: 25, MemoryBytes: 64 << 10, Seed: 1},
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
	if err := a.Record(7, 10); err != nil {
		t.Fatal(err)
	}
	// Agent-scoped window query against a cumulative collector: refused
	// server-side (the request validates locally).
	_, err = a.Execute(query.Request{Kind: query.Window, Keys: []uint64{7}, Window: 2, Agent: 1})
	if err == nil || !strings.Contains(err.Error(), "epoch mode") {
		t.Fatalf("agent-scoped query on cumulative collector err = %v, want epoch-mode refusal", err)
	}
	// Same connection still answers.
	ans, err := a.Execute(query.Request{Kind: query.Point, Keys: []uint64{7}})
	if err != nil {
		t.Fatalf("Execute after refusal: %v", err)
	}
	if ans.PerKey[0].Est < 10 {
		t.Errorf("estimate %d < exact 10", ans.PerKey[0].Est)
	}
	// Client-side validation never touches the wire.
	if _, err := a.Execute(query.Request{Kind: query.Point}); !errors.Is(err, query.ErrNoKeys) {
		t.Errorf("empty batch err = %v, want ErrNoKeys", err)
	}
}

// TestExecuteTopKOverWire: the top-k kind travels the wire with certified
// bounds, heaviest first.
func TestExecuteTopKOverWire(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec: sketch.Spec{Lambda: 25, MemoryBytes: 256 << 10, Seed: 1},
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
	for i := 0; i < 500; i++ {
		a.Record(1, 3)
		a.Record(2, 2)
		a.Record(3, 1)
	}
	ans, err := a.Execute(query.Request{Kind: query.TopK, K: 2})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(ans.PerKey) != 2 || ans.PerKey[0].Key != 1 || ans.PerKey[1].Key != 2 {
		t.Fatalf("top-2 = %+v, want keys 1,2", ans.PerKey)
	}
	if ans.PerKey[0].Lower > 1500 || ans.PerKey[0].Upper < 1500 {
		t.Errorf("key 1 interval [%d,%d] misses exact 1500",
			ans.PerKey[0].Lower, ans.PerKey[0].Upper)
	}
}

// TestV1AgentBackCompat simulates an old (protocol v1) agent speaking raw
// frames against a current collector: its hello (no version field) and
// batch still land, while its single-key query frame closes the
// connection with ErrV1Query instead of being answered.
func TestV1AgentBackCompat(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec: sketch.Spec{Lambda: 25, MemoryBytes: 64 << 10, Seed: 1},
		Logf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	// v1 hello: agent ID only, no version field.
	if err := writeFrame(bw, msgHello, appendUvarints(nil, 42)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(bw, msgBatch, encodeBatch([]Update{{Key: 5, Value: 123}})); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(bw, msgQuery, appendUvarints(nil, 5)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(br); err == nil {
		t.Fatalf("v1 query answered with frame type %d, want the connection closed", typ)
	}
	// The frames before the query landed, attributed to agent 42.
	if e := collectorPoint(t, c, 5); e.Upper < 123 || e.Lower > 123 {
		t.Errorf("v1 batch: interval [%d,%d] misses exact 123", e.Lower, e.Upper)
	}
	if agents, updates, _ := c.Stats(); agents != 1 || updates != 1 {
		t.Errorf("after v1 hello+batch: %d agents, %d updates; want 1, 1", agents, updates)
	}
	// Close waits for the connection handler, so its error is logged by now.
	c.Close()
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(strings.Join(logged, "\n"), ErrV1Query.Error()) {
		t.Errorf("collector log %q does not name ErrV1Query", logged)
	}
}

// TestFrameTypeValues pins every message type's wire byte: retired types
// stay reserved so that the types after them keep their numbers.
func TestFrameTypeValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  byte
		want byte
	}{
		{"msgHello", msgHello, 1},
		{"msgBatch", msgBatch, 2},
		{"msgQuery", msgQuery, 3},
		{"msgQueryResp", msgQueryResp, 4},
		{"msgStats", msgStats, 5},
		{"msgStatsResp", msgStatsResp, 6},
		{"msgWindowQuery", msgWindowQuery, 7},
		{"msgWindowResp", msgWindowResp, 8},
		{"msgExecQuery", msgExecQuery, 9},
		{"msgExecResp", msgExecResp, 10},
		{"msgExecErr", msgExecErr, 11},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestDecodeRequestRefusesTruncatingValues: a kind above 255, or a window
// or k above math.MaxInt, would change value in its conversion; the
// decoder refuses them rather than answer a different request.
func TestDecodeRequestRefusesTruncatingValues(t *testing.T) {
	for name, payload := range map[string][]byte{
		// Kind 257 truncates to 1, query.Point.
		"kind 257": appendUvarints(nil, 257, 0, 0, 0, 1, 7),
		"window":   appendUvarints(nil, uint64(query.Window), 0, math.MaxInt+1, 0, 1, 7),
		"k":        appendUvarints(nil, uint64(query.TopK), 0, 0, math.MaxUint64, 0),
	} {
		if req, err := decodeRequest(payload); !errors.Is(err, errMalformedRequest) {
			t.Errorf("%s: decoded %+v, err=%v; want errMalformedRequest", name, req, err)
		}
	}
}

// roundTripRequest and roundTripAnswer are the wire codec's reference
// cases; they also seed FuzzDecodeRequest and FuzzDecodeAnswer.
var (
	roundTripRequest = query.Request{Kind: query.Window, Keys: []uint64{1, 9, 9, 1 << 50}, Window: 7, Agent: 3}
	roundTripAnswer  = query.Answer{
		PerKey:     []query.Estimate{{Key: 9, Est: 100, Lower: 80, Upper: 100}},
		Coverage:   4,
		Generation: 12,
		Source:     "collector+merged",
		Certified:  true,
	}
)

// TestRequestAnswerRoundTrip pins the wire codec itself.
func TestRequestAnswerRoundTrip(t *testing.T) {
	req := roundTripRequest
	got, err := decodeRequest(encodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != req.Kind || got.Window != req.Window || got.Agent != req.Agent ||
		len(got.Keys) != len(req.Keys) || got.Keys[3] != req.Keys[3] {
		t.Errorf("request round trip: got %+v, want %+v", got, req)
	}
	ans := roundTripAnswer
	back, err := decodeAnswer(encodeAnswer(ans))
	if err != nil {
		t.Fatal(err)
	}
	if back.Coverage != 4 || back.Generation != 12 || back.Source != ans.Source ||
		!back.Certified || back.PerKey[0] != ans.PerKey[0] {
		t.Errorf("answer round trip: got %+v, want %+v", back, ans)
	}
}
