package sketch

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/hash"
	"repro/internal/stream"
)

// Sharded partitions the key space across n independent sub-sketches so
// multiple goroutines can insert concurrently without locking the hot path.
// Each key is owned by exactly one shard (chosen by hash), so per-key
// estimates are exact with respect to the underlying sketch semantics; only
// the memory is split n ways.
//
// This mirrors how multi-pipe hardware (and the paper's multi-core CPU
// throughput runs) deploys sketches: one instance per pipeline, keys
// partitioned by RSS-style hashing.
type Sharded struct {
	shards []Sketch
	mus    []sync.Mutex
	seed   uint64
	name   string
}

// NewSharded builds n shards using factory, each with memBytes/n of memory.
func NewSharded(f Factory, memBytes, n int, seed uint64) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{
		shards: make([]Sketch, n),
		mus:    make([]sync.Mutex, n),
		seed:   seed,
		name:   f.Name + "_sharded",
	}
	for i := range s.shards {
		s.shards[i] = f.New(memBytes / n)
	}
	return s
}

func (s *Sharded) shard(key uint64) int {
	return hash.Bucket(key, s.seed, len(s.shards))
}

// Insert routes key to its owning shard. Safe for concurrent use.
func (s *Sharded) Insert(key, value uint64) {
	i := s.shard(key)
	s.mus[i].Lock()
	s.shards[i].Insert(key, value)
	s.mus[i].Unlock()
}

// shardBatchChunk bounds the per-call partitioning scratch of InsertBatch:
// items are processed in chunks of this many, so the transient copy stays
// ~256KB regardless of batch size (metrics.Feed passes whole streams).
const shardBatchChunk = 1 << 14

// shardedScratch is the reusable partitioning scratch of InsertBatch and
// QueryBatch, pooled so the batch hot paths report 0 allocs/op in steady
// state. Every field holds only pointer-free values (stream.Item,
// shardedRef, ints), so retaining capacity in the pool pins no caller
// memory.
type shardedScratch struct {
	parts  [][]stream.Item // InsertBatch: per-shard item partitions
	owner  []int32         // QueryBatch: owning shard per key
	counts []int           // QueryBatch: per-shard counts + prefix offsets
	next   []int           // QueryBatch: scatter cursors
	refs   []shardedRef    // QueryBatch: keys with caller positions
	buf    []uint64        // QueryBatch: per-shard key/est/mpe segments
}

var shardedScratchPool = sync.Pool{New: func() any { return new(shardedScratch) }}

// grow returns sl resized to length n, reallocating only when capacity is
// short — the pool amortizes that to zero across batches.
func grow[T any](sl []T, n int) []T {
	if cap(sl) < n {
		return make([]T, n)
	}
	return sl[:n]
}

// InsertBatch is the native bulk-ingestion path: items are partitioned by
// owning shard (in bounded chunks), then each shard is locked once per
// chunk and fed its whole partition (through the shard's own batch path
// when it has one). One lock round-trip per shard per chunk replaces one
// per item, and per-shard relative item order is preserved, so results are
// identical to item-at-a-time insertion. Safe for concurrent use: the
// partition buffers come from a pool, never shared between in-flight
// calls.
func (s *Sharded) InsertBatch(items []stream.Item) {
	n := len(s.shards)
	sc := shardedScratchPool.Get().(*shardedScratch)
	defer shardedScratchPool.Put(sc)
	sc.parts = grow(sc.parts, n)
	parts := sc.parts
	for len(items) > 0 {
		chunk := items
		if len(chunk) > shardBatchChunk {
			chunk = items[:shardBatchChunk]
		}
		items = items[len(chunk):]
		for i := range parts {
			parts[i] = parts[i][:0]
		}
		for _, it := range chunk {
			i := s.shard(it.Key)
			parts[i] = append(parts[i], it)
		}
		for i, part := range parts {
			if len(part) == 0 {
				continue
			}
			s.mus[i].Lock()
			InsertBatch(s.shards[i], part)
			s.mus[i].Unlock()
		}
	}
}

// Query reads from the owning shard. Safe for concurrent use.
func (s *Sharded) Query(key uint64) uint64 {
	i := s.shard(key)
	s.mus[i].Lock()
	defer s.mus[i].Unlock()
	return s.shards[i].Query(key)
}

// shardedRef carries one batch key with its position in the caller's key
// slice, so per-shard answers scatter back to the caller's order.
type shardedRef struct {
	key uint64
	pos int
}

// shardedBatchFactor gates QueryBatch's partitioning: below this many keys
// per shard on average, the counting-sort scaffolding costs more than the
// per-key locks it saves, so small batches take the direct per-key path.
const shardedBatchFactor = 4

// QueryBatch is the native batch read path: keys are partitioned by owning
// shard (a counting sort — one hash pass for the counts, one to scatter),
// each shard's partition is sorted by key so runs of equal keys collapse
// inside the shard's own batch path, and each shard is locked exactly once
// for its whole partition — one lock round-trip per shard per batch
// instead of one per key, mirroring InsertBatch. Results scatter back into
// est/mpe at the caller's key positions, so answers are identical to
// per-key Query/QueryWithError calls. Safe for concurrent use: partition
// buffers are per-call.
func (s *Sharded) QueryBatch(keys []uint64, est, mpe []uint64) {
	n := len(s.shards)
	if len(keys) < shardedBatchFactor*n {
		for i, k := range keys {
			p := s.shard(k)
			s.mus[p].Lock()
			if mpe != nil {
				if eb, ok := s.shards[p].(ErrorBounded); ok {
					est[i], mpe[i] = eb.QueryWithError(k)
				} else {
					est[i], mpe[i] = s.shards[p].Query(k), 0
				}
			} else {
				est[i] = s.shards[p].Query(k)
			}
			s.mus[p].Unlock()
		}
		return
	}
	// Counting-sort partition: shard owners for all keys (hashed once),
	// per-shard counts, prefix offsets, then scatter into one refs array
	// whose p-th segment is shard p's partition. All scratch is pooled, so
	// steady-state batches allocate nothing.
	sc := shardedScratchPool.Get().(*shardedScratch)
	defer shardedScratchPool.Put(sc)
	sc.owner = grow(sc.owner, len(keys))
	sc.counts = grow(sc.counts, n+1)
	owner, counts := sc.owner, sc.counts
	clear(counts)
	for i, k := range keys {
		p := s.shard(k)
		owner[i] = int32(p)
		counts[p+1]++
	}
	for p := 0; p < n; p++ {
		counts[p+1] += counts[p]
	}
	sc.refs = grow(sc.refs, len(keys))
	sc.next = grow(sc.next, n)
	refs, next := sc.refs, sc.next
	copy(next, counts[:n])
	for i, k := range keys {
		p := owner[i]
		refs[next[p]] = shardedRef{key: k, pos: i}
		next[p]++
	}
	sc.buf = grow(sc.buf, 3*len(keys))
	scratch := sc.buf
	for p := 0; p < n; p++ {
		part := refs[counts[p]:counts[p+1]]
		if len(part) == 0 {
			continue
		}
		// The partition inherits the caller's key order (the counting sort
		// is stable), so a batch that arrives sorted — the common serving
		// shape, and what the wire/HTTP layers are free to send — skips the
		// sort entirely; only genuinely unordered batches pay for it.
		sorted := true
		for j := 1; j < len(part); j++ {
			if part[j].key < part[j-1].key {
				sorted = false
				break
			}
		}
		if !sorted {
			slices.SortFunc(part, func(a, b shardedRef) int {
				switch {
				case a.key < b.key:
					return -1
				case a.key > b.key:
					return 1
				default:
					return a.pos - b.pos
				}
			})
		}
		keyBuf := scratch[:len(part)]
		estBuf := scratch[len(keys) : len(keys)+len(part)]
		var mpeBuf []uint64
		if mpe != nil {
			mpeBuf = scratch[2*len(keys) : 2*len(keys)+len(part)]
		}
		for j, ref := range part {
			keyBuf[j] = ref.key
		}
		s.mus[p].Lock()
		QueryBatch(s.shards[p], keyBuf, estBuf, mpeBuf)
		s.mus[p].Unlock()
		for j, ref := range part {
			est[ref.pos] = estBuf[j]
			if mpe != nil {
				mpe[ref.pos] = mpeBuf[j]
			}
		}
	}
}

// shardedCaps are the capability bits that select a sharded wrapper. The
// rest need none: Reset and the batch paths live on *Sharded itself, and
// LambdaTargeting describes the builder, not the built sketch.
const shardedCaps = CapErrorBounded | CapHeavyHitter | CapMergeable | CapSnapshottable

// wrap dresses the fan-out in the wrapper for the capability set its
// variant registered, so the registry's declaration alone decides which
// interfaces a sharded build implements. Only the sets the registry builds
// have a wrapper; any other panics, so a newly registered variant fails the
// registry conformance test instead of silently gaining or losing one.
func (s *Sharded) wrap(caps Capability) Sketch {
	switch c := caps & shardedCaps; c {
	case shardedCaps:
		return CertifiedSharded{MergeableSharded{s}}
	case CapMergeable | CapSnapshottable:
		return MergeableSharded{s}
	case CapHeavyHitter:
		return TrackedSharded{s}
	case 0:
		return s
	default:
		panic(fmt.Sprintf("sketch: no sharded wrapper for %s's capability set %s", s.name, c))
	}
}

// base exposes the underlying fan-out to Merge through any wrapper;
// every wrapper type inherits it by embedding.
func (s *Sharded) base() *Sharded { return s }

// Reset clears every shard implementing Resettable in place. It lives on
// Sharded itself (every algorithm in the repository is Resettable); shards
// without Reset are left untouched.
func (s *Sharded) Reset() {
	for i, sh := range s.shards {
		r, ok := sh.(Resettable)
		if !ok {
			continue
		}
		s.mus[i].Lock()
		r.Reset()
		s.mus[i].Unlock()
	}
}

// tracked concatenates the tracked keys of every shard (key ownership is
// disjoint, so no merging is needed). It is unexported so a bare *Sharded
// never claims HeavyHitterReporter; the wrappers export it.
func (s *Sharded) tracked() []KV {
	var out []KV
	for i, sh := range s.shards {
		s.mus[i].Lock()
		out = append(out, sh.(HeavyHitterReporter).Tracked()...)
		s.mus[i].Unlock()
	}
	return out
}

// TrackedSharded is the fan-out of a variant that reports heavy hitters
// and nothing more (sharded Coco/Elastic/Frequent/HashPipe/PRECISION).
type TrackedSharded struct{ *Sharded }

// Tracked concatenates the shards' tracked keys.
func (s TrackedSharded) Tracked() []KV { return s.tracked() }

// MergeableSharded is the fan-out of a variant that merges and snapshots
// (sharded CM/CU/Count), and the base of CertifiedSharded.
type MergeableSharded struct{ *Sharded }

// shardedMergeMu serializes Sharded-into-Sharded merges process-wide, so
// two concurrent opposite-direction merges cannot deadlock on each other's
// shard mutexes. Merges are rare control-plane events; ingest never takes
// this lock.
var shardedMergeMu sync.Mutex

// Merge folds another sharded fan-out shard-by-shard. Both sides must route
// keys identically (same shard count and seed), so shard i of the source
// summarizes exactly the key partition shard i of the receiver owns, and
// the per-shard Merge semantics carry over unchanged.
func (s MergeableSharded) Merge(other Sketch) error {
	w, ok := other.(interface{ base() *Sharded })
	if !ok {
		return MergeIncompatible(s, other, "not a sharded sketch")
	}
	o := w.base()
	if o == s.Sharded {
		return MergeIncompatible(s, other, "cannot merge a sketch into itself")
	}
	if len(s.shards) != len(o.shards) {
		return MergeIncompatible(s, other, "shard counts differ")
	}
	if s.seed != o.seed {
		return MergeIncompatible(s, other, "shard-routing seeds differ")
	}
	shardedMergeMu.Lock()
	defer shardedMergeMu.Unlock()
	for i := range s.shards {
		m, ok := s.shards[i].(Mergeable)
		if !ok {
			return MergeIncompatible(s, other, "shards do not support Merge")
		}
		s.mus[i].Lock()
		o.mus[i].Lock()
		err := m.Merge(o.shards[i])
		o.mus[i].Unlock()
		s.mus[i].Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// shardedMagic versions the sharded snapshot container format.
var shardedMagic = [4]byte{'S', 'H', 'S', '1'}

// Snapshot serializes the fan-out: magic | shard count | routing seed |
// per-shard length-prefixed snapshots. Each shard snapshot is framed by its
// byte length because shard codecs may buffer reads past their logical end
// — framing is what makes the concatenation safely decodable.
func (s MergeableSharded) Snapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.Write(shardedMagic[:])
	var scratch [binary.MaxVarintLen64]byte
	write := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		bw.Write(scratch[:n])
	}
	write(uint64(len(s.shards)))
	write(s.seed)
	var buf bytes.Buffer
	for i, sh := range s.shards {
		sn, ok := sh.(Snapshotter)
		if !ok {
			return fmt.Errorf("sketch: shard %d of %s does not support Snapshot", i, s.name)
		}
		buf.Reset()
		s.mus[i].Lock()
		err := sn.Snapshot(&buf)
		s.mus[i].Unlock()
		if err != nil {
			return fmt.Errorf("sketch: snapshotting shard %d of %s: %w", i, s.name, err)
		}
		write(uint64(buf.Len()))
		bw.Write(buf.Bytes())
	}
	return bw.Flush()
}

// Restore replaces every shard's state from a same-Spec sibling's Snapshot.
// Shard count and routing seed must match the receiver's: a snapshot routed
// differently would assign keys to the wrong shards. Each frame is copied
// as it arrives rather than preallocated from its declared length, so a
// corrupt length costs only the bytes actually present.
func (s MergeableSharded) Restore(r io.Reader) error {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("sketch: reading sharded snapshot magic: %w", err)
	}
	if magic != shardedMagic {
		return fmt.Errorf("%w: bad sharded snapshot magic %q", ErrSnapshotMismatch, magic[:])
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("sketch: sharded snapshot shard count: %w", err)
	}
	if n != uint64(len(s.shards)) {
		return fmt.Errorf("%w: snapshot has %d shards, sketch built with %d", ErrSnapshotMismatch, n, len(s.shards))
	}
	seed, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("sketch: sharded snapshot seed: %w", err)
	}
	if seed != s.seed {
		return fmt.Errorf("%w: snapshot routing seed %d, sketch built with %d", ErrSnapshotMismatch, seed, s.seed)
	}
	var payload bytes.Buffer
	for i, sh := range s.shards {
		sn, ok := sh.(Snapshotter)
		if !ok {
			return fmt.Errorf("sketch: shard %d of %s does not support Restore", i, s.name)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("sketch: shard %d snapshot length: %w", i, err)
		}
		if size > 1<<31 {
			return fmt.Errorf("sketch: implausible shard %d snapshot length %d", i, size)
		}
		payload.Reset()
		if _, err := io.CopyN(&payload, br, int64(size)); err != nil {
			return fmt.Errorf("sketch: shard %d snapshot payload: %w", i, err)
		}
		s.mus[i].Lock()
		err = sn.Restore(&payload)
		s.mus[i].Unlock()
		if err != nil {
			return fmt.Errorf("sketch: restoring shard %d of %s: %w", i, s.name, err)
		}
	}
	return nil
}

// CertifiedSharded is the fan-out of a variant that certifies its errors,
// reports heavy hitters, merges and snapshots (sharded Ours/Ours(Raw)/SS).
type CertifiedSharded struct{ MergeableSharded }

// QueryWithError reads the certified interval from the owning shard: each
// key is owned by exactly one shard, so the owning shard's certified
// interval IS the sharded sketch's — no composition needed.
func (s CertifiedSharded) QueryWithError(key uint64) (est, mpe uint64) {
	i := s.shard(key)
	s.mus[i].Lock()
	defer s.mus[i].Unlock()
	return s.shards[i].(ErrorBounded).QueryWithError(key)
}

// Tracked concatenates the shards' tracked keys.
func (s CertifiedSharded) Tracked() []KV { return s.tracked() }

// MemoryBytes sums the shards' accounted memory.
func (s *Sharded) MemoryBytes() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.MemoryBytes()
	}
	return total
}

// Name identifies the sharded variant.
func (s *Sharded) Name() string { return s.name }
