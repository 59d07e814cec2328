// Package sketch defines the interfaces shared by every stream-summary
// algorithm in this repository, plus the memory-accounting conventions that
// make "same memory budget" comparisons between algorithms meaningful.
//
// The stream-summary problem (paper §2.1): given a stream of <key, value>
// pairs, answer point queries for the value sum f(e) of any key e. A sketch
// answers an estimate f̂(e); a key is an *outlier* for tolerance Λ when
// |f̂(e) − f(e)| > Λ.
package sketch

// Sketch is the minimal stream-summary interface implemented by every
// algorithm (ReliableSketch, CM, CU, Elastic, SpaceSaving, ...).
//
// Implementations are single-writer: Insert must not be called concurrently.
// This mirrors the hardware pipelines the paper targets; build with
// Spec.Shards > 1 for a goroutine-safe Sharded fan-out, wrapped to match
// the variant's registered capabilities.
type Sketch interface {
	// Insert adds value to the sum of key. value is typically 1 (frequency
	// estimation) but may be any positive amount (e.g. packet bytes).
	Insert(key uint64, value uint64)
	// Query returns the estimated value sum of key.
	Query(key uint64) uint64
	// MemoryBytes reports the memory footprint under the paper's accounting
	// model (counter widths as deployed on hardware, not Go object sizes).
	MemoryBytes() int
	// Name identifies the algorithm and variant for experiment tables.
	Name() string
}

// ErrorBounded is implemented by sketches that can report a certified
// per-query error bound. ReliableSketch is the only ErrorBounded sketch in
// the paper's comparison: its Error-Sensible buckets track the Maximum
// Possible Error (MPE) so that f(e) ∈ [est−mpe, est] always holds (absent
// insertion failure, and unconditionally with the emergency layer enabled).
type ErrorBounded interface {
	Sketch
	// QueryWithError returns the estimate and its Maximum Possible Error.
	QueryWithError(key uint64) (est, mpe uint64)
}

// CertifiedLowerBound is the floor of an ErrorBounded interval: est − mpe
// clamped at 0, since the certified MPE can exceed a small estimate (e.g. a
// saturated mice filter plus occupied buckets) and true value sums are
// never negative.
func CertifiedLowerBound(est, mpe uint64) uint64 {
	if mpe > est {
		return 0
	}
	return est - mpe
}

// Resettable is implemented by sketches that can be cleared in place,
// allowing epoch-based deployments to reuse allocations.
type Resettable interface {
	Reset()
}

// HeavyHitterReporter is implemented by algorithms that can enumerate the
// keys they currently track (SpaceSaving, Frequent, Elastic's heavy part,
// HashPipe, PRECISION, Coco). Used by the heavy-hitter experiments.
type HeavyHitterReporter interface {
	// Tracked returns the tracked keys and their estimates. Order is
	// unspecified.
	Tracked() []KV
}

// KV is a key with its estimated value sum.
type KV struct {
	Key uint64
	Est uint64
}

// Factory builds a sketch for a given memory budget in bytes. Experiment
// harnesses sweep memory by invoking factories, so every algorithm must be
// constructible from a byte budget alone.
type Factory struct {
	// Name of the algorithm/variant, e.g. "Ours", "CM_fast".
	Name string
	// New builds a sketch using at most memBytes of accounted memory.
	New func(memBytes int) Sketch
}
