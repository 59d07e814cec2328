package netsum

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/sketch"
	"repro/internal/telemetry"
)

// TestCollectorPipelineStats drives the collector's shared ingest plane
// over the wire and checks its accounting: every pushed update is accepted
// and applied, every wire frame lands as one fold into the global view,
// and queries drain the pipeline so acked traffic is always visible with
// certified bounds.
func TestCollectorPipelineStats(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec:   sketch.Spec{MemoryBytes: 1 << 18, Lambda: 25, Seed: 1},
		Ingest: ingest.Tuning{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.MergeBased() {
		t.Fatal("default collector should maintain the merged view")
	}

	const agents, perAgent = 3, 1000
	var exact uint64
	for id := uint64(1); id <= agents; id++ {
		a, err := Dial(c.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		a.BatchSize = 128
		for i := 0; i < perAgent; i++ {
			if err := a.Record(42, 2); err != nil {
				t.Fatal(err)
			}
			exact += 2
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		// Query through the same connection: the collector must drain the
		// pipeline before answering, so the interval covers every update
		// this agent was acked for (frames are processed in order).
		est, mpe, err := a.Query(42)
		if err != nil {
			t.Fatal(err)
		}
		lo := sketch.CertifiedLowerBound(est, mpe)
		want := uint64(perAgent) * 2 * id
		if want < lo || want > est {
			t.Fatalf("after agent %d: interval [%d, %d] misses exact %d", id, lo, est, want)
		}
		a.Close()
	}

	_, updates, _ := c.Stats()
	if updates != agents*perAgent {
		t.Fatalf("collector counted %d updates, want %d", updates, agents*perAgent)
	}
	ist := c.IngestStats()
	if ist.Accepted != agents*perAgent || ist.Applied != agents*perAgent || ist.Dropped != 0 {
		t.Fatalf("ingest stats %+v: want %d accepted+applied, 0 dropped", ist, agents*perAgent)
	}
	if ist.Folds < agents*perAgent/128 {
		t.Fatalf("ingest stats %+v: expected one fold per wire frame", ist)
	}
	if ist.LastError != "" {
		t.Fatalf("pipeline recorded error: %s", ist.LastError)
	}
	if ist.FoldedItems != ist.Applied {
		t.Fatalf("folded %d items of %d applied: global view is missing traffic", ist.FoldedItems, ist.Applied)
	}
}

// TestAgentZeroAttributed pins the Source mapping: agent ID 0 is a valid
// wire identity (sources are agentID+1, so it still gets sticky per-agent
// routing and exact attribution), while the one unmappable ID is refused
// at hello.
func TestAgentZeroAttributed(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec: sketch.Spec{MemoryBytes: 1 << 18, Lambda: 25, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a, err := Dial(c.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 100; i++ {
		if err := a.Record(5, 3); err != nil {
			t.Fatal(err)
		}
	}
	est, mpe, err := a.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	if lo := sketch.CertifiedLowerBound(est, mpe); lo > 300 || est < 300 {
		t.Fatalf("agent 0 traffic lost: interval [%d, %d] misses 300", lo, est)
	}
	if agents, _, _ := c.Stats(); agents != 1 {
		t.Fatalf("agent 0 not registered: %d agents", agents)
	}

	reserved, err := Dial(c.Addr(), ^uint64(0))
	if err != nil {
		t.Fatal(err) // hello is written; the refusal surfaces on first read
	}
	defer reserved.Close()
	if _, _, err := reserved.Query(1); err == nil {
		t.Fatal("reserved agent id accepted")
	}
}

// TestCollectorRegisterMetrics drives two agents over the wire and checks
// the Prometheus surface: collector-wide counters match Stats, per-agent
// wire counters split the total exactly, and the pipeline's ingest_*
// families ride along.
func TestCollectorRegisterMetrics(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec:   sketch.Spec{MemoryBytes: 1 << 18, Lambda: 25, Seed: 1},
		Ingest: ingest.Tuning{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg)

	perAgent := map[uint64]int{3: 100, 7: 250}
	for id, n := range perAgent {
		a, err := Dial(c.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := a.Record(uint64(i), 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.Query(1); err != nil {
			t.Fatal(err)
		}
		a.Close()
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	_, updates, queries := c.Stats()
	for _, want := range []string{
		fmt.Sprintf("netsum_updates_total %d", updates),
		fmt.Sprintf("netsum_queries_total %d", queries),
		"netsum_agents 2",
		`netsum_agent_updates_total{agent="3"} 100`,
		`netsum_agent_updates_total{agent="7"} 250`,
		fmt.Sprintf("ingest_accepted_items_total %d", updates),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
