package netsum

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/sketch"
)

// Error-path coverage for the window-query surface: each misuse must be
// named by a distinct error, not silently answered with zeros.

func TestAgentWindowCumulativeModeRejected(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec: sketch.Spec{Lambda: 25, MemoryBytes: 64 << 10, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	_, err = c.Execute(agentWindow(1, 7, 2))
	if err == nil || !strings.Contains(err.Error(), "epoch mode") {
		t.Errorf("cumulative-mode agent window query: err=%v, want epoch-mode refusal", err)
	}
}

// agentWindow is a window request for key over n epochs scoped to agent.
func agentWindow(agent, key uint64, n int) query.Request {
	return query.Request{Kind: query.Window, Keys: []uint64{key}, Window: n, Agent: agent}
}

func TestAgentWindowErrorPaths(t *testing.T) {
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

	a, err := Dial(c.Addr(), 9)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 50; i++ {
		if err := a.Record(7, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	// Round-trip a stats request so the batch is known ingested.
	if _, _, _, err := a.Stats(); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Execute(agentWindow(12345, 7, 2)); !errors.Is(err, ErrUnknownAgent) {
		t.Errorf("unknown agent: err=%v", err)
	}
	for _, n := range []int{0, -3} {
		if _, err := c.Execute(agentWindow(9, 7, n)); !errors.Is(err, query.ErrBadWindow) {
			t.Errorf("window n=%d: err=%v, want ErrBadWindow", n, err)
		}
	}

	// Nothing sealed yet: a valid query answers zero coverage, not an error.
	ans, err := c.Execute(agentWindow(9, 7, 2))
	if e := ans.PerKey; err != nil || ans.Coverage != 0 || e[0].Upper != 0 || e[0].Lower != 0 {
		t.Errorf("pre-seal window query = (%+v, err=%v), want zeros", ans, err)
	}

	// Seal one epoch: the 50 updates become queryable, and a window far
	// wider than the retention clamps instead of failing.
	clk.Advance(time.Second)
	ans, err = c.Execute(agentWindow(9, 7, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Coverage != 1 {
		t.Errorf("covered = %d, want 1", ans.Coverage)
	}
	if e := ans.PerKey[0]; e.Upper < 50 || e.Lower > 50 {
		t.Errorf("sealed interval [%d,%d] misses exact count 50", e.Lower, e.Upper)
	}
}

func TestCollectorGenerationAdvancesOnSeal(t *testing.T) {
	clk := &fakeNetClock{now: time.Unix(0, 0)}
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec:         sketch.Spec{Lambda: 25, MemoryBytes: 64 << 10, Seed: 1},
		Epoch:        time.Second,
		WindowEpochs: 4,
		Clock:        clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if !c.Epochal() {
		t.Fatal("epoch-mode collector reports Epochal() == false")
	}
	a, err := Dial(c.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Record(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := a.Stats(); err != nil {
		t.Fatal(err)
	}
	before := c.Generation()
	clk.Advance(time.Second)
	// Rotation is opportunistic: any query pokes the ring.
	if _, err := c.Execute(query.Request{Kind: query.Window, Keys: []uint64{1}, Window: 4}); err != nil {
		t.Fatal(err)
	}
	if after := c.Generation(); after <= before {
		t.Errorf("generation %d did not advance past %d after a seal", after, before)
	}
}

func TestCollectorWarmRestart(t *testing.T) {
	// The durability contract: a collector restarted from a checkpoint must
	// answer queries whose certified intervals contain the pre-restart
	// exact counts.
	truth := map[uint64]uint64{}
	before, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec: sketch.Spec{Lambda: 25, MemoryBytes: 256 << 10, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !before.MergeBased() {
		t.Fatal("default collector is not merge-based; checkpointing needs the merged view")
	}
	a, err := Dial(before.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5_000; i++ {
		key := uint64(i%257 + 1)
		truth[key] += 3
		if err := a.Record(key, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := a.Stats(); err != nil {
		t.Fatal(err)
	}
	var checkpoint bytes.Buffer
	if err := before.SnapshotGlobal(&checkpoint); err != nil {
		t.Fatal(err)
	}
	a.Close()
	before.Close()

	after, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec: sketch.Spec{Lambda: 25, MemoryBytes: 256 << 10, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { after.Close() })
	if err := after.RestoreBaseline(bytes.NewReader(checkpoint.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := after.RestoreBaseline(bytes.NewReader(checkpoint.Bytes())); err == nil {
		t.Error("second RestoreBaseline accepted; the checkpoint would double-count")
	}
	for key, f := range truth {
		if e := collectorPoint(t, after, key); f > e.Upper || e.Lower > f {
			t.Fatalf("key %d: restored interval [%d,%d] misses pre-restart count %d",
				key, e.Lower, e.Upper, f)
		}
	}

	// Post-restart traffic must stack on top of the restored baseline.
	b, err := Dial(after.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 100; i++ {
		if err := b.Record(1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := b.Stats(); err != nil {
		t.Fatal(err)
	}
	want := truth[1] + 100
	if e := collectorPoint(t, after, 1); want > e.Upper || e.Lower > want {
		t.Errorf("key 1: interval [%d,%d] misses baseline+new count %d", e.Lower, e.Upper, want)
	}
}

func TestCheckpointRefusalsAreNamed(t *testing.T) {
	// Epoch mode: neither snapshot nor restore applies.
	epochal, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec:  sketch.Spec{Lambda: 25, MemoryBytes: 64 << 10, Seed: 1},
		Epoch: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { epochal.Close() })
	if err := epochal.SnapshotGlobal(&bytes.Buffer{}); err == nil {
		t.Error("epoch-mode SnapshotGlobal accepted")
	}
	if err := epochal.RestoreBaseline(bytes.NewReader(nil)); err == nil ||
		!strings.Contains(err.Error(), "cumulative") {
		t.Errorf("epoch-mode RestoreBaseline: err=%v", err)
	}
	// Merging disabled: no global view exists to checkpoint.
	noMerge, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec:              sketch.Spec{Lambda: 25, MemoryBytes: 64 << 10, Seed: 1},
		DisableMergedView: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { noMerge.Close() })
	if err := noMerge.SnapshotGlobal(&bytes.Buffer{}); err == nil {
		t.Error("merge-disabled SnapshotGlobal accepted")
	}
}
