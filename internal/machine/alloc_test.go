package machine

import (
	"testing"

	"dssmem/internal/memsys"
)

// TestAccessHotPathAllocFree guards the simulator's two hottest paths against
// regressing into per-access heap allocation:
//
//   - L1 (and L2) hits: pure cache bookkeeping, no directory involvement;
//   - outer-level misses on already-materialized directory entries: the
//     chunked entry store must serve steady-state capacity misses without
//     allocating.
func TestAccessHotPathAllocFree(t *testing.T) {
	m := New(OriginSpec(4, 64))
	// Warm: touch a footprint larger than the outer cache so every line has a
	// directory entry and the re-walk below is dominated by capacity misses.
	const footprint = 1 << 16
	for i := 0; i < footprint; i += 8 {
		m.Access(i&3, memsys.Addr(i), 8, false, uint64(i))
	}

	t.Run("hits", func(t *testing.T) {
		var now uint64 = footprint
		allocs := testing.AllocsPerRun(1000, func() {
			// 64 sequential bytes: after the first fill these hit in L1.
			base := memsys.Addr(now % 4096)
			for off := memsys.Addr(0); off < 64; off += 8 {
				m.Access(0, base+off, 8, false, now)
			}
			now++
		})
		if allocs != 0 {
			t.Fatalf("hit path allocates %.2f objects/op, want 0", allocs)
		}
	})

	t.Run("misses", func(t *testing.T) {
		var i uint64
		var now uint64 = 2 * footprint
		allocs := testing.AllocsPerRun(1000, func() {
			// Stride past the outer cache: steady-state capacity misses on
			// known lines, including evictions of earlier victims.
			addr := memsys.Addr((i * 4096) % footprint)
			m.Access(int(i&3), addr, 8, i&7 == 0, now)
			i++
			now += 10
		})
		if allocs != 0 {
			t.Fatalf("miss path allocates %.2f objects/op, want 0", allocs)
		}
	})
}
