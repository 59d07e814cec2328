package sketch_test

// Registry conformance: every registered variant must honor the Spec
// contract (memory ceiling, usable estimates, stable naming) and declare
// its capabilities truthfully. The tests run against the full variant set
// via repro/internal/sketch/all, so a newly registered algorithm is held to
// the contract automatically.

import (
	"testing"

	"repro/internal/sketch"
	_ "repro/internal/sketch/all"
	"repro/internal/stream"
)

// specSweep is the budget grid of the conformance sweep: small enough to
// stress integer sizing floors, large enough to cover the paper's range.
var specSweep = []int{8 << 10, 64 << 10, 256 << 10, 1 << 20}

func TestRegistryHasEveryPaperVariant(t *testing.T) {
	want := []string{
		"Ours", "Ours(Raw)",
		"CM_acc", "CM_fast", "CU_acc", "CU_fast",
		"Elastic", "SS", "Coco", "PRECISION", "HashPipe",
		"Frequent", "UnivMon", "Count",
	}
	names := map[string]bool{}
	for _, n := range sketch.Names() {
		names[n] = true
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("variant %q not registered", n)
		}
	}
	if len(names) != len(want) {
		t.Errorf("registry holds %d variants, expected %d: %v", len(names), len(want), sketch.Names())
	}
}

func TestRegistryConformance(t *testing.T) {
	s := stream.Zipf(20_000, 2_000, 1.0, 7)
	top := uint64(0)
	topF := uint64(0)
	for key, f := range s.Truth() {
		if f > topF {
			top, topF = key, f
		}
	}
	seen := map[string]bool{}
	for _, e := range sketch.All() {
		for _, budget := range specSweep {
			sk := e.Build(sketch.Spec{MemoryBytes: budget, Lambda: 25, Seed: 7})
			if sk == nil {
				t.Fatalf("%s: builder returned nil at %dB", e.Name, budget)
			}
			if got := sk.MemoryBytes(); got > budget {
				t.Errorf("%s: MemoryBytes %d exceeds Spec budget %d", e.Name, got, budget)
			}
			if got := sk.Name(); got != e.Name {
				t.Errorf("%s: built sketch reports Name %q", e.Name, got)
			}
			// Insert/Query sanity: after ingesting a skewed stream, the most
			// frequent key must have a nonzero estimate.
			sketch.InsertBatch(sk, s.Items)
			if est := sk.Query(top); est == 0 {
				t.Errorf("%s at %dB: top key (true %d) estimates to 0", e.Name, budget, topF)
			}
		}
		if seen[e.Name] {
			t.Errorf("duplicate registry name %q", e.Name)
		}
		seen[e.Name] = true
	}
}

func TestCapabilitiesMatchInterfaces(t *testing.T) {
	spec := sketch.Spec{MemoryBytes: 64 << 10, Lambda: 25, Seed: 1}
	for _, e := range sketch.All() {
		sk := e.Build(spec)
		if _, ok := sk.(sketch.ErrorBounded); ok != e.Caps.Has(sketch.CapErrorBounded) {
			t.Errorf("%s: ErrorBounded capability %v but interface %v", e.Name, e.Caps.Has(sketch.CapErrorBounded), ok)
		}
		if _, ok := sk.(sketch.HeavyHitterReporter); ok != e.Caps.Has(sketch.CapHeavyHitter) {
			t.Errorf("%s: HeavyHitter capability %v but interface %v", e.Name, e.Caps.Has(sketch.CapHeavyHitter), ok)
		}
		if _, ok := sk.(sketch.Resettable); ok != e.Caps.Has(sketch.CapResettable) {
			t.Errorf("%s: Resettable capability %v but interface %v", e.Name, e.Caps.Has(sketch.CapResettable), ok)
		}
		if _, ok := sk.(sketch.Mergeable); ok != e.Caps.Has(sketch.CapMergeable) {
			t.Errorf("%s: Mergeable capability %v but interface %v", e.Name, e.Caps.Has(sketch.CapMergeable), ok)
		}
		if _, ok := sk.(sketch.Snapshotter); ok != e.Caps.Has(sketch.CapSnapshottable) {
			t.Errorf("%s: Snapshottable capability %v but interface %v", e.Name, e.Caps.Has(sketch.CapSnapshottable), ok)
		}
		if _, ok := sk.(sketch.BatchQuerier); ok != e.Caps.Has(sketch.CapBatchQuery) {
			t.Errorf("%s: BatchQuery capability %v but interface %v", e.Name, e.Caps.Has(sketch.CapBatchQuery), ok)
		}
		// Sharding must preserve exactly the declared capability set: a
		// sharded build implements each interface iff the flat build declares
		// it (Merge, certificates, and tracking all delegate shard-wise).
		sharded := e.Build(sketch.Spec{MemoryBytes: 256 << 10, Lambda: 25, Seed: 1, Shards: 4})
		for _, probe := range []struct {
			cap  sketch.Capability
			name string
			ok   bool
		}{
			{sketch.CapErrorBounded, "ErrorBounded", func() bool { _, ok := sharded.(sketch.ErrorBounded); return ok }()},
			{sketch.CapHeavyHitter, "HeavyHitter", func() bool { _, ok := sharded.(sketch.HeavyHitterReporter); return ok }()},
			{sketch.CapResettable, "Resettable", func() bool { _, ok := sharded.(sketch.Resettable); return ok }()},
			{sketch.CapMergeable, "Mergeable", func() bool { _, ok := sharded.(sketch.Mergeable); return ok }()},
			{sketch.CapSnapshottable, "Snapshottable", func() bool { _, ok := sharded.(sketch.Snapshotter); return ok }()},
		} {
			if probe.ok != e.Caps.Has(probe.cap) {
				t.Errorf("%s sharded: %s capability %v but interface %v",
					e.Name, probe.name, e.Caps.Has(probe.cap), probe.ok)
			}
		}
		// Every sharded build batches regardless of the flat capability: the
		// per-shard lock amortization is the wrapper's own, and shards
		// without a native path get the per-key fallback inside one lock.
		if _, ok := sharded.(sketch.BatchQuerier); !ok {
			t.Errorf("%s sharded: does not implement BatchQuerier", e.Name)
		}
	}
}

func TestByCapabilityErrorBoundedIsExact(t *testing.T) {
	// ByCapability(ErrorBounded) must return exactly the variants whose
	// built sketches implement QueryWithError.
	spec := sketch.Spec{MemoryBytes: 64 << 10, Lambda: 25, Seed: 1}
	fromQuery := map[string]bool{}
	for _, e := range sketch.ByCapability(sketch.CapErrorBounded) {
		fromQuery[e.Name] = true
	}
	for _, e := range sketch.All() {
		_, implements := e.Build(spec).(sketch.ErrorBounded)
		if implements != fromQuery[e.Name] {
			t.Errorf("%s: implements QueryWithError=%v, in ByCapability(ErrorBounded)=%v",
				e.Name, implements, fromQuery[e.Name])
		}
	}
	if len(fromQuery) == 0 {
		t.Fatal("no ErrorBounded variants registered; expected at least Ours and SS")
	}
}

func TestByCapabilityConjunction(t *testing.T) {
	// Multiple capabilities AND together.
	both := sketch.ByCapability(sketch.CapErrorBounded, sketch.CapHeavyHitter)
	for _, e := range both {
		if !e.Caps.Has(sketch.CapErrorBounded | sketch.CapHeavyHitter) {
			t.Errorf("%s returned without both capabilities", e.Name)
		}
	}
	if len(both) == 0 {
		t.Error("expected Ours/SS to satisfy ErrorBounded+HeavyHitter")
	}
}

func TestParseNamesSortedAndDeduplicated(t *testing.T) {
	got, err := sketch.ParseNames(" SS , Ours, CM_fast,SS,Ours ,, CM_fast")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"CM_fast", "Ours", "SS"}
	if len(got) != len(want) {
		t.Fatalf("ParseNames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseNames = %v, want %v", got, want)
		}
	}
	if _, err := sketch.ParseNames("Ours,NoSuchSketch"); err == nil {
		t.Error("ParseNames accepted an unregistered name")
	}
	if names, err := sketch.ParseNames(" ,, "); err != nil || len(names) != 0 {
		t.Errorf("ParseNames of blanks = (%v, %v), want empty", names, err)
	}
}

func TestBuildUnknownName(t *testing.T) {
	if _, err := sketch.Build("NoSuchSketch", sketch.Spec{}); err == nil {
		t.Fatal("Build accepted an unregistered name")
	}
}

func TestSpecShardsWrapsSharded(t *testing.T) {
	const budget = 256 << 10
	sk := sketch.MustBuild("Ours", sketch.Spec{MemoryBytes: budget, Lambda: 25, Seed: 1, Shards: 4})
	if _, ok := sk.(sketch.CertifiedSharded); !ok {
		t.Fatalf("Shards=4 over an ErrorBounded+Mergeable+Snapshottable variant built %T, want sketch.CertifiedSharded", sk)
	}
	if got := sk.MemoryBytes(); got > budget {
		t.Errorf("sharded MemoryBytes %d exceeds budget %d", got, budget)
	}
	if got := sk.Name(); got != "Ours_sharded" {
		t.Errorf("sharded Name = %q", got)
	}
}

func TestShardingPreservesCapabilitiesWhereSound(t *testing.T) {
	spec := sketch.Spec{MemoryBytes: 256 << 10, Lambda: 25, Seed: 1, Shards: 4}
	s := stream.IPTrace(20_000, 1)

	// An ErrorBounded variant keeps certified queries: the owning shard's
	// interval is the sharded sketch's interval.
	ours := sketch.MustBuild("Ours", spec)
	eb, ok := ours.(sketch.ErrorBounded)
	if !ok {
		t.Fatal("sharded Ours lost ErrorBounded")
	}
	sketch.InsertBatch(eb, s.Items)
	violations := 0
	for key, f := range s.Truth() {
		est, mpe := eb.QueryWithError(key)
		if f > est || est-mpe > f {
			violations++
		}
	}
	if violations > 0 {
		t.Errorf("%d keys outside sharded certified intervals", violations)
	}
	// Heavy-hitter tracking and reset delegate to the shards.
	hh, ok := ours.(sketch.HeavyHitterReporter)
	if !ok {
		t.Fatal("sharded Ours lost Tracked")
	}
	if len(hh.Tracked()) == 0 {
		t.Error("sharded Tracked returned nothing over 20k items")
	}
	ours.(sketch.Resettable).Reset()
	if est := ours.Query(s.Items[0].Key); est != 0 {
		t.Errorf("Query after sharded Reset = %d", est)
	}

	// A non-error-bounded variant must NOT pretend: no QueryWithError, and
	// a non-tracking variant must not claim heavy-hitter reporting either.
	cm := sketch.MustBuild("CM_fast", spec)
	if _, ok := cm.(sketch.ErrorBounded); ok {
		t.Error("sharded CM_fast falsely claims ErrorBounded")
	}
	if _, ok := cm.(sketch.HeavyHitterReporter); ok {
		t.Error("sharded CM_fast falsely claims HeavyHitterReporter")
	}
	// A tracking-but-not-certifying variant keeps exactly Tracked.
	elastic := sketch.MustBuild("Elastic", spec)
	if _, ok := elastic.(sketch.ErrorBounded); ok {
		t.Error("sharded Elastic falsely claims ErrorBounded")
	}
	if _, ok := elastic.(sketch.Mergeable); ok {
		t.Error("sharded Elastic falsely claims Mergeable")
	}
	ehh, ok := elastic.(sketch.HeavyHitterReporter)
	if !ok {
		t.Fatal("sharded Elastic lost Tracked")
	}
	sketch.InsertBatch(elastic, s.Items)
	if len(ehh.Tracked()) == 0 {
		t.Error("sharded Elastic tracked nothing")
	}
}

func TestSpecDefaults(t *testing.T) {
	// A zero Spec must build a usable paper-default sketch.
	sk := sketch.MustBuild("Ours", sketch.Spec{})
	if sk.MemoryBytes() == 0 || sk.MemoryBytes() > 1<<20 {
		t.Errorf("zero-Spec memory %d outside (0, 1MB]", sk.MemoryBytes())
	}
	sk.Insert(1, 1)
	if sk.Query(1) == 0 {
		t.Error("zero-Spec sketch lost an insertion")
	}
}
