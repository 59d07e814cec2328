package sketch

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// countingSketch is a map-backed test double.
type countingSketch struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

func (c *countingSketch) Insert(k, v uint64) {
	c.m[k] += v
}
func (c *countingSketch) Query(k uint64) uint64 { return c.m[k] }
func (c *countingSketch) MemoryBytes() int      { return 1024 }
func (c *countingSketch) Name() string          { return "counting" }

func testFactory() Factory {
	return Factory{
		Name: "counting",
		New:  func(mem int) Sketch { return &countingSketch{m: map[uint64]uint64{}} },
	}
}

func TestShardedRoutesConsistently(t *testing.T) {
	s := NewSharded(testFactory(), 4096, 4, 1)
	for k := uint64(0); k < 100; k++ {
		s.Insert(k, k+1)
	}
	for k := uint64(0); k < 100; k++ {
		if got := s.Query(k); got != k+1 {
			t.Fatalf("Query(%d)=%d want %d", k, got, k+1)
		}
	}
}

func TestShardedConcurrentInserts(t *testing.T) {
	s := NewSharded(testFactory(), 4096, 8, 2)
	const goroutines = 8
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Insert(uint64(i%50), 1)
			}
		}()
	}
	wg.Wait()
	var total uint64
	for k := uint64(0); k < 50; k++ {
		total += s.Query(k)
	}
	if total != goroutines*perG {
		t.Errorf("total=%d want %d", total, goroutines*perG)
	}
}

func TestShardedAccounting(t *testing.T) {
	s := NewSharded(testFactory(), 4096, 4, 1)
	if s.MemoryBytes() != 4*1024 {
		t.Errorf("MemoryBytes=%d", s.MemoryBytes())
	}
	if s.Name() != "counting_sharded" {
		t.Errorf("Name=%q", s.Name())
	}
	// n < 1 clamps to a single shard.
	s1 := NewSharded(testFactory(), 4096, 0, 1)
	s1.Insert(1, 1)
	if s1.Query(1) != 1 {
		t.Error("single-shard fallback broken")
	}
}

func TestWrapPanicsOnUnbuiltCapabilitySet(t *testing.T) {
	// Only the capability sets the registry builds have a sharded wrapper;
	// any other must fail loudly rather than build a sketch whose
	// interfaces disagree with its declaration.
	for _, caps := range []Capability{
		CapErrorBounded,
		CapMergeable,
		CapHeavyHitter | CapMergeable,
		CapErrorBounded | CapMergeable | CapSnapshottable,
	} {
		t.Run(caps.String(), func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("wrap(%s) built a sketch", caps)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, caps.String()) {
					t.Errorf("panic %q does not name the capability set %s", msg, caps)
				}
			}()
			NewSharded(testFactory(), 4096, 4, 1).wrap(caps | CapResettable)
		})
	}
}
