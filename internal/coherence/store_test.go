package coherence

import (
	"testing"

	"dssmem/internal/cache"
	"dssmem/internal/memsys"
)

// chunksAllocated counts the entry chunks the directory has materialized.
func (d *Directory) chunksAllocated() int {
	n := len(d.private)
	for _, ch := range d.shared {
		if ch != nil {
			n++
		}
	}
	return n
}

// TestEntryStateAcrossChunkEdges drives the same protocol sequence through
// lines at chunk and region edges, interleaved so that any aliasing between
// their entries would show: both sides of a chunk boundary, the last line
// below SharedLimit and private-region lines of two processes. Every line
// must see the results and keep the entry state of an interior line.
func TestEntryStateAcrossChunkEdges(t *testing.T) {
	d, caches := testRig(2, baseParams)
	const sharedLimit = 1 << 20 // testRig's SharedLimit
	// testRig's caches have 64 two-way sets; no set holds more than two of
	// these lines, so none is evicted behind the sequence's back.
	lines := []uint64{
		7, // interior reference line
		chunkSize - 1,
		chunkSize,
		sharedLimit>>5 - 1,
		uint64(memsys.PrivateBase(0))>>5 + chunkSize,
		uint64(memsys.PrivateBase(1))>>5 + 1,
	}
	type op struct {
		c     int
		write bool
		evict bool
	}
	steps := []op{
		{c: 0},              // cold read: Exclusive at 0
		{c: 1},              // clean intervention: Shared by both
		{c: 1, write: true}, // upgrade: Modified at 1, migratory
		{c: 0},              // dirty intervention: Shared again
		{c: 1, write: true}, // upgrade after shared reads
		{c: 1, evict: true}, // dirty writeback: uncached
	}
	now := uint64(0)
	for si, s := range steps {
		var want Result
		for li, l := range lines {
			var r Result
			if s.evict {
				st := caches[s.c].Invalidate(l)
				d.Evict(CacheID(s.c), l, st.Dirty(), now)
			} else {
				r = access(d, caches, s.c, l, s.write, now)
			}
			now += 10
			r.Latency = 0 // homes differ by line
			if li == 0 {
				want = r
			} else if r != want {
				t.Fatalf("step %d line %d: result %+v, want %+v", si, l, r, want)
			}
		}
		// Compare protocol fields only: the memoised homes differ by line.
		ref := *d.entryFor(lines[0])
		ref.home = 0
		for _, l := range lines[1:] {
			e := *d.entryFor(l)
			e.home = 0
			if e != ref {
				t.Fatalf("step %d line %d: entry %+v, want %+v", si, l, e, ref)
			}
		}
	}
	e := d.entryFor(lines[0])
	if e.state != dirUncached || e.ever != 0b11 || !e.migratory {
		t.Fatalf("final entry %+v: want uncached, seen by both caches, migratory", *e)
	}
	for _, l := range lines {
		if st := caches[0].StateOf(l); st != cache.Invalid {
			t.Fatalf("line %d still %v in cache 0", l, st)
		}
	}
}

// TestChunksAllocatedOnDemand: touching two far-apart lines materializes
// exactly their two chunks, not the span between them.
func TestChunksAllocatedOnDemand(t *testing.T) {
	d, _ := testRig(2, baseParams)
	if n := d.chunksAllocated(); n != 0 {
		t.Fatalf("fresh directory holds %d chunks, want 0", n)
	}
	d.Read(0, 1, 0)
	d.Write(1, (1<<20)>>5-1, 10)
	d.Read(0, 2, 20) // same chunk as line 1
	if n := d.chunksAllocated(); n != 2 {
		t.Fatalf("%d chunks allocated, want 2", n)
	}
}
