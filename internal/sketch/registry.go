package sketch

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Capability describes what a registered variant can do beyond the minimal
// Sketch interface, so callers can discover algorithms by what they need
// ("every sketch that certifies its error") instead of naming them.
type Capability uint32

const (
	// CapErrorBounded marks sketches implementing ErrorBounded
	// (QueryWithError with a certified Maximum Possible Error).
	CapErrorBounded Capability = 1 << iota
	// CapHeavyHitter marks sketches implementing HeavyHitterReporter
	// (Tracked enumeration of the keys they hold).
	CapHeavyHitter
	// CapResettable marks sketches implementing Resettable (in-place Reset
	// for epoch reuse).
	CapResettable
	// CapLambdaTargeting marks variants whose builders consume Spec.Lambda
	// as the error tolerance Λ — for these, "every error ≤ Λ" claims are
	// meaningful. ErrorBounded variants without it (SS) certify their own
	// per-query MPE instead.
	CapLambdaTargeting
	// CapMergeable marks sketches implementing Mergeable (folding a
	// same-Spec sibling into the receiver) — the primitive behind
	// sliding-window epoch rings and merge-based collector aggregation.
	CapMergeable
	// CapSnapshottable marks sketches implementing Snapshotter
	// (Snapshot/Restore of full state), the durability primitive behind
	// collector checkpoints and warm restarts.
	CapSnapshottable
	// CapBatchQuery marks sketches implementing BatchQuerier (a native
	// batch read path with amortized hashing and instrumentation) — the
	// read-side sibling of InsertBatch that the unified query plane
	// (internal/query) is built on. Every sharded build batches regardless
	// (the batch paths and per-shard lock amortization live on Sharded,
	// which all three wrappers embed), so the capability describes the flat
	// build.
	CapBatchQuery
)

// Has reports whether c includes every capability in want.
func (c Capability) Has(want Capability) bool { return c&want == want }

// String renders the capability set for error messages and tool listings.
func (c Capability) String() string {
	var parts []string
	for _, e := range []struct {
		bit  Capability
		name string
	}{
		{CapErrorBounded, "ErrorBounded"},
		{CapHeavyHitter, "HeavyHitter"},
		{CapResettable, "Resettable"},
		{CapLambdaTargeting, "LambdaTargeting"},
		{CapMergeable, "Mergeable"},
		{CapSnapshottable, "Snapshottable"},
		{CapBatchQuery, "BatchQuery"},
	} {
		if c.Has(e.bit) {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "|")
}

// Builder constructs a sketch variant from a Spec. Builders must honor
// Spec.MemoryBytes as a ceiling and may ignore options that do not apply.
type Builder func(Spec) Sketch

// Entry is one registered algorithm variant.
type Entry struct {
	// Name is the registry key and the Name() the built sketch reports
	// ("Ours", "CM_fast", ...).
	Name string
	// Caps declares the interfaces the built sketch implements.
	Caps Capability
	// Build constructs the variant.
	Build Builder
}

// Factory adapts the entry to the memory-sweep Factory shape used by the
// experiment harness: spec supplies everything but the memory budget, which
// the harness varies per probe point.
func (e Entry) Factory(spec Spec) Factory {
	return Factory{Name: e.Name, New: func(memBytes int) Sketch {
		sp := spec
		sp.MemoryBytes = memBytes
		return e.Build(sp)
	}}
}

var (
	regMu   sync.RWMutex
	entries = map[string]Entry{}
)

// Register adds an algorithm variant to the process-global registry.
// Algorithm packages call it from init(), so importing a package (or
// repro/internal/sketch/all for the full set) makes its variants buildable
// by name. Registering a duplicate name panics: names double as experiment
// table labels and must be unique.
func Register(name string, caps Capability, build Builder) {
	if name == "" || build == nil {
		panic("sketch: Register needs a name and a builder")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := entries[name]; dup {
		panic(fmt.Sprintf("sketch: duplicate registration of %q", name))
	}
	entries[name] = Entry{Name: name, Caps: caps, Build: wrapSharding(name, caps, build)}
}

// wrapSharding applies the Spec.Shards option uniformly so individual
// builders never have to: a sharded request partitions the memory budget
// across Spec.Shards hash-partitioned sub-sketches, wrapped to implement
// exactly the interfaces caps declares.
func wrapSharding(name string, caps Capability, build Builder) Builder {
	return func(sp Spec) Sketch {
		sp = sp.withDefaults()
		if sp.Shards <= 1 {
			return build(sp)
		}
		inner := sp
		inner.Shards = 0
		f := Factory{Name: name, New: func(memBytes int) Sketch {
			one := inner
			one.MemoryBytes = memBytes
			return build(one)
		}}
		return NewSharded(f, sp.MemoryBytes, sp.Shards, sp.Seed).wrap(caps)
	}
}

// Lookup returns the entry registered under name.
func Lookup(name string) (Entry, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := entries[name]
	return e, ok
}

// Build constructs the named variant from spec. Unknown names report the
// registered alternatives, since they typically come from CLI flags.
func Build(name string, spec Spec) (Sketch, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sketch: unknown algorithm %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return e.Build(spec), nil
}

// MustBuild is Build for known-good names (experiment tables, tests).
func MustBuild(name string, spec Spec) Sketch {
	sk, err := Build(name, spec)
	if err != nil {
		panic(err)
	}
	return sk
}

// ParseNames splits a comma-separated list of variant names (the CLIs'
// -algo/-algos flag format, whitespace-tolerant) and validates each against
// the registry. The result is sorted and deduplicated, so CLI listings and
// experiment column orders are deterministic regardless of how the flag was
// spelled. The error names the offender and the registered set.
func ParseNames(csv string) ([]string, error) {
	var names []string
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := Lookup(name); !ok {
			return nil, fmt.Errorf("unknown algorithm %q (registered: %s)",
				name, strings.Join(Names(), ", "))
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return slices.Compact(names), nil
}

// Names returns every registered variant name in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(entries))
	for name := range entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns every registered entry sorted by name.
func All() []Entry {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Entry, 0, len(entries))
	for _, e := range entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByCapability returns the entries declaring every requested capability,
// sorted by name — the discovery query behind capability-driven experiment
// sets ("all heavy-hitter reporters", "all certified-error sketches").
func ByCapability(caps ...Capability) []Entry {
	var want Capability
	for _, c := range caps {
		want |= c
	}
	var out []Entry
	for _, e := range All() {
		if e.Caps.Has(want) {
			out = append(out, e)
		}
	}
	return out
}
