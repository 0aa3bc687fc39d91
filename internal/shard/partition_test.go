package shard

import (
	"runtime"
	"testing"

	"github.com/h2p-sim/h2p/internal/core"
)

// TestPartitionLayout pins the layout a shard count maps to
// (core.Partition): ranges are contiguous, cover [0, n) exactly, never
// differ in size by more than one, and clamp to the circulation count so no
// shard is ever empty.
func TestPartitionLayout(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 12, 100, 1000} {
		for _, shards := range []int{1, 2, 3, 4, 8, 16, n, n + 5} {
			ranges := core.Partition(n, shards)
			want := min(shards, n)
			if len(ranges) != want {
				t.Fatalf("Partition(%d, %d): %d ranges, want %d", n, shards, len(ranges), want)
			}
			lo, smallest, largest := 0, n+1, -1
			for _, r := range ranges {
				if r.Lo != lo || r.Hi <= r.Lo {
					t.Fatalf("Partition(%d, %d): range %v not contiguous from %d", n, shards, r, lo)
				}
				lo = r.Hi
				smallest = min(smallest, r.Hi-r.Lo)
				largest = max(largest, r.Hi-r.Lo)
			}
			if lo != n {
				t.Fatalf("Partition(%d, %d): covers [0,%d), want [0,%d)", n, shards, lo, n)
			}
			if largest-smallest > 1 {
				t.Fatalf("Partition(%d, %d): range sizes span [%d,%d]", n, shards, smallest, largest)
			}
		}
	}
}

// TestPartitionResolvesZero pins that a non-positive shard count resolves to
// all CPUs — the same rule as core.Config.Workers, by way of the shared
// core.ResolveParallelism helper.
func TestPartitionResolvesZero(t *testing.T) {
	n := runtime.GOMAXPROCS(0) * 3
	for _, shards := range []int{0, -1} {
		if got := len(core.Partition(n, shards)); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("Partition(%d, %d): %d ranges, want GOMAXPROCS=%d", n, shards, got, runtime.GOMAXPROCS(0))
		}
	}
	if core.Partition(0, 4) != nil {
		t.Fatal("Partition(0, 4) should be nil")
	}
}
