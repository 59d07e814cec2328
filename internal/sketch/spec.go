package sketch

// Spec is the algorithm-independent construction request understood by every
// registered variant: how much memory the sketch may use, the error
// tolerance it should target, and the hash seed, plus a small set of
// variant options that individual builders are free to honor or ignore.
//
// A zero Spec is usable: defaults are the paper's evaluation configuration
// (1MB budget, Λ=25). Seed has no default — zero is a valid seed and is
// passed through unchanged, so trial sweeps that include seed 0 hash with
// seed 0, exactly as the direct constructors would.
type Spec struct {
	// MemoryBytes is the accounted memory budget. Builders must return a
	// sketch whose MemoryBytes() does not exceed it.
	MemoryBytes int
	// Lambda is the error tolerance Λ. Only error-targeting algorithms
	// (ReliableSketch) consume it; counter-based baselines size purely from
	// MemoryBytes, matching the paper's same-memory comparison model.
	Lambda uint64
	// Seed drives all hashing. Experiments vary it across trials.
	Seed uint64

	// Variant options. Builders ignore options that do not apply to them.

	// FilterBits overrides the mice-filter counter width (ReliableSketch
	// only; 0 = the paper default of 2 bits; use 8+ for byte-weighted
	// streams).
	FilterBits int
	// Rw and Rl override the geometric decay ratios of layer widths and
	// lock thresholds (ReliableSketch only; 0 = the paper optima). The
	// Figure 11-14 parameter studies sweep them.
	Rw, Rl float64
	// Emergency enables the Space-Saving overflow layer (ReliableSketch
	// only), making the certified bound unconditional.
	Emergency bool
	// Shards > 1 wraps the sketch in a Sharded fan-out of that many
	// hash-partitioned sub-sketches sharing the memory budget, for
	// concurrent ingestion. The variant's registered capabilities choose
	// one of three wrappers (TrackedSharded, MergeableSharded,
	// CertifiedSharded) or the bare Sharded, so the sharded build
	// implements exactly the interfaces the variant registers (plus
	// BatchQuerier, which every sharded build has). Each delegates to the
	// shards; a certified variant's QueryWithError comes from the key's
	// owning shard.
	Shards int
}

// withDefaults resolves zero fields to the paper's defaults.
func (sp Spec) withDefaults() Spec {
	if sp.MemoryBytes == 0 {
		sp.MemoryBytes = 1 << 20
	}
	if sp.Lambda == 0 {
		sp.Lambda = 25
	}
	return sp
}
