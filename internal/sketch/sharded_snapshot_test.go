package sketch_test

// The SHS1 sharded snapshot container is decoded from checkpoint files and
// from replicas' delta pulls, so it must refuse corrupt input cheaply and
// without panicking.

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/sketch"
)

// shardedFixture is the fixture case pinning the SHS1 container, with its
// golden snapshot bytes.
func shardedFixture(t testing.TB) (fixtures.Case, []byte) {
	t.Helper()
	for _, c := range fixtures.Cases() {
		if c.Spec.Shards > 1 {
			golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "flatten", c.Name+".snap"))
			if err != nil {
				t.Fatalf("reading fixture: %v", err)
			}
			return c, golden
		}
	}
	t.Fatal("no sharded fixture case")
	return fixtures.Case{}, nil
}

func TestRestoreShardedBoundsAllocation(t *testing.T) {
	// An 11-byte container declaring a 2 GiB first shard frame: the length
	// passes the plausibility bound, so the frame read alone must keep
	// allocation proportional to the bytes actually present.
	c, _ := shardedFixture(t)
	input := []byte("SHS1")
	input = binary.AppendUvarint(input, uint64(c.Spec.Shards))
	input = binary.AppendUvarint(input, c.Spec.Seed)
	input = binary.AppendUvarint(input, 1<<31)
	sk := sketch.MustBuild(c.Algo, c.Spec).(sketch.Snapshotter)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := sk.Restore(bytes.NewReader(input))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Restore accepted a truncated shard frame")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("Restore of a %d-byte input allocated %d bytes, want < 1 MiB", len(input), alloc)
	}
}

// FuzzRestoreSharded feeds arbitrary bytes to a sharded Restore. Refusals
// are fine; a panic is not, and accepted input must snapshot again.
func FuzzRestoreSharded(f *testing.F) {
	c, golden := shardedFixture(f)
	for _, n := range []int{0, 4, 5, 6, 7, 8, len(golden) / 2, len(golden) - 1, len(golden)} {
		f.Add(golden[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sk := sketch.MustBuild(c.Algo, c.Spec).(sketch.Snapshotter)
		if err := sk.Restore(bytes.NewReader(data)); err != nil {
			return
		}
		if err := sk.Snapshot(io.Discard); err != nil {
			t.Fatalf("accepted input does not snapshot again: %v", err)
		}
	})
}
