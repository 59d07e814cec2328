package main

import (
	"errors"
	"slices"
	"strconv"
	"syscall"
	"unsafe"

	"repro/internal/stream"
)

// The input stream S: zipf-distributed keys with unit values, drawn from a
// fixed support. Every workload replays the same S for a given seed.
const (
	zipfSkew   = 1.1
	batchItems = 1024 // items per /v2/ingest request and per preload batch
	sweepKeys  = 4096 // keys per correctness-sweep /v2/query request
)

// Generator emits S one batch at a time and counts every emitted item into
// an exact oracle. It never holds the items themselves: its memory is the
// sampler's alias tables plus one counter per distinct key seen, both
// O(distinct keys) however long the stream runs.
type Generator struct {
	sampler *stream.Sampler
	oracle  map[uint64]uint64
}

// NewGenerator starts S over `distinct` zipf keys at the given seed.
func NewGenerator(distinct int, seed uint64) *Generator {
	return &Generator{
		sampler: stream.NewZipfSampler(distinct, zipfSkew, seed),
		oracle:  make(map[uint64]uint64),
	}
}

// Next overwrites dst with the next len(dst) items of S.
func (g *Generator) Next(dst []stream.Item) {
	for i := range dst {
		k := g.sampler.Next()
		dst[i] = stream.Item{Key: k, Value: 1}
		g.oracle[k]++
	}
}

// Truth is the exact count of key over everything emitted.
func (g *Generator) Truth(key uint64) uint64 { return g.oracle[key] }

// Keys lists the distinct emitted keys in ascending order, so derived
// inputs do not depend on map iteration order.
func (g *Generator) Keys() []uint64 {
	keys := make([]uint64, 0, len(g.oracle))
	for k := range g.oracle {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// input is one run's copy of S with its oracle. All of it lives outside
// the Go heap: the serving stack shares this process, and the collector
// sets its goal from the live heap, so the benchmark's own data would let
// the server's allocations cycle through far more memory than rsserve's
// own heap spans, making every request slower and far more sensitive to
// other tenants' memory traffic.
type input struct {
	items  []stream.Item // S, in order
	keys   []uint64      // S's distinct keys, ascending
	counts []uint64      // counts[i] is how often keys[i] occurs in S
	unmap  []func() error
}

// newInput generates the first n items of S.
func newInput(distinct, n int, seed uint64) (*input, error) {
	in := &input{}
	var err error
	if in.items, err = offHeap[stream.Item](in, n); err != nil {
		return nil, err
	}
	g := NewGenerator(distinct, seed)
	for lo := 0; lo < n; lo += batchItems {
		g.Next(in.items[lo:min(lo+batchItems, n)])
	}
	keys := g.Keys()
	if in.keys, err = offHeap[uint64](in, len(keys)); err != nil {
		return nil, errors.Join(err, in.close())
	}
	if in.counts, err = offHeap[uint64](in, len(keys)); err != nil {
		return nil, errors.Join(err, in.close())
	}
	copy(in.keys, keys)
	for i, k := range keys {
		in.counts[i] = g.Truth(k)
	}
	return in, nil
}

// offHeap maps n zeroed Ts outside the Go heap, to be unmapped by
// in.close. T must hold no pointers: the collector never scans this memory.
func offHeap[T stream.Item | uint64](in *input, n int) ([]T, error) {
	var zero T
	mem, err := syscall.Mmap(-1, 0, max(1, n*int(unsafe.Sizeof(zero))),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	in.unmap = append(in.unmap, func() error { return syscall.Munmap(mem) })
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(mem))), n), nil
}

// truth is the exact count of key in S.
func (in *input) truth(key uint64) uint64 {
	if i, ok := slices.BinarySearch(in.keys, key); ok {
		return in.counts[i]
	}
	return 0
}

func (in *input) close() error {
	var errs []error
	for _, f := range in.unmap {
		errs = append(errs, f())
	}
	return errors.Join(errs...)
}

// appendIngestBody encodes items as a /v2/ingest body.
func appendIngestBody(dst []byte, items []stream.Item) []byte {
	dst = append(dst, `{"items":[`...)
	for i, it := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"key":`...)
		dst = strconv.AppendUint(dst, it.Key, 10)
		dst = append(dst, `,"value":`...)
		dst = strconv.AppendUint(dst, it.Value, 10)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendQueryBody encodes keys as a /v2/query point batch.
func appendQueryBody(dst []byte, keys []uint64) []byte {
	dst = append(dst, `{"kind":"point","keys":[`...)
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, k, 10)
	}
	return append(dst, "]}"...)
}
