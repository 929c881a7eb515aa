package coherence

import (
	"reflect"
	"testing"

	"dssmem/internal/cache"
	"dssmem/internal/interconnect"
	"dssmem/internal/memsys"
)

// tableRigs mirror the placements and fabrics of the three shipped machine
// specs at full size: the Origin (hypercube, shared pages concentrated on
// node 0, private pages on the owner's node), the V-Class (crossbar, 32-byte
// lines interleaved over 8 controllers) and the Starfire (crossbar, 64-byte
// lines over 16 boards).
func tableRigs() []Config {
	originNode := func(cpu int) int { return cpu / 2 % 16 }
	return []Config{
		{
			Placement: memsys.Concentrated{NodesTotal: 16, SharedNodes: 1, OwnerNode: originNode},
			Net:       interconnect.NewHypercube(16, 15, 10),
			NodeOf:    []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15},
			LineSize:  128,
		},
		{
			Placement: memsys.Interleaved{N: 8, Unit: 32},
			Net:       interconnect.Crossbar{Ports: 8, Hop: 8},
			NodeOf:    []int{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7},
			LineSize:  32,
		},
		{
			Placement: memsys.Interleaved{N: 16, Unit: 64},
			Net:       interconnect.Crossbar{Ports: 16, Hop: 12},
			NodeOf:    []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
			LineSize:  64,
		},
	}
}

// TestHomeAndLatencyTablesMatchModels: the memoised per-line home and the
// precomputed latency table return exactly what the placement and network
// models compute, for every line of ranges that cross the dense/sparse store
// boundary, the shared/private boundary and a boundary between two
// processes' private regions, and for every endpoint pair.
func TestHomeAndLatencyTablesMatchModels(t *testing.T) {
	const sharedLimit = 16 << 20
	for _, cfg := range tableRigs() {
		cfg.Caches = make([]CoherentCache, len(cfg.NodeOf))
		for i := range cfg.Caches {
			cfg.Caches[i] = cache.New(cache.Config{Name: "L", Size: 4096, LineSize: cfg.LineSize, Assoc: 2})
		}
		cfg.SharedLimit = sharedLimit
		d := NewDirectory(cfg)
		name := cfg.Net.Name()
		span := uint64(64 << 10) // bytes on each side of a boundary
		for _, edge := range []memsys.Addr{sharedLimit, memsys.PrivateBase(0), memsys.PrivateBase(1), memsys.PrivateBase(5)} {
			for a := uint64(edge) - span; a < uint64(edge)+span; a += uint64(cfg.LineSize) {
				line := a / uint64(cfg.LineSize)
				want := cfg.Placement.Home(memsys.Addr(a))
				for pass := 0; pass < 2; pass++ { // compute, then memo hit
					if got := d.homeOf(d.entryFor(line), line); got != want {
						t.Fatalf("%s: line %#x pass %d: home %d, placement says %d", name, line, pass, got, want)
					}
				}
			}
		}
		n := cfg.Net.Endpoints()
		if d.endpoints < n {
			t.Fatalf("%s: latency table covers %d endpoints, network has %d", name, d.endpoints, n)
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if got, want := d.lat(src, dst), cfg.Net.Latency(src, dst); got != want {
					t.Fatalf("%s: latency %d->%d = %d, network says %d", name, src, dst, got, want)
				}
			}
		}
	}
}

// TestInvalidationOrderIsByCacheID: a write to a shared line invalidates the
// other sharers in ascending CacheID order, whatever order they joined in,
// and attributes each kill to the writer.
func TestInvalidationOrderIsByCacheID(t *testing.T) {
	d, caches := testRig(8, baseParams)
	type kill struct{ req, target CacheID }
	var kills []kill
	d.Hooks.Invalidate = func(req, target CacheID, line, now uint64) {
		kills = append(kills, kill{req, target})
	}
	const line = 40
	now := uint64(0)
	for _, c := range []int{6, 1, 4, 0, 7} {
		access(d, caches, c, line, false, now)
		now += 100
	}
	access(d, caches, 2, line, true, now) // a write miss by a non-sharer
	want := []kill{{2, 0}, {2, 1}, {2, 4}, {2, 6}, {2, 7}}
	if !reflect.DeepEqual(kills, want) {
		t.Fatalf("write miss invalidated %v, want %v", kills, want)
	}

	kills = nil
	for _, c := range []int{5, 3, 0} {
		access(d, caches, c, line, false, now)
		now += 100
	}
	access(d, caches, 3, line, true, now) // an upgrade by a sharer
	want = []kill{{3, 0}, {3, 2}, {3, 5}}
	if !reflect.DeepEqual(kills, want) {
		t.Fatalf("upgrade invalidated %v, want %v", kills, want)
	}
}
