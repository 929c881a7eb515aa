package executor

import (
	"testing"
	"testing/quick"

	"dssmem/internal/db/dbtest"
	"dssmem/internal/db/engine"
	"dssmem/internal/db/storage"
	"dssmem/internal/memsys"
)

// fixture builds a table of n rows (k = i%mod, v = i) with an index on k.
func fixture(n, mod int) (*engine.Database, *dbtest.FakeProc, *Context) {
	db := engine.Open(engine.Config{PoolPages: n/200 + 32})
	schema := storage.NewSchema(
		storage.Column{Name: "k", Width: 8},
		storage.Column{Name: "v", Width: 8},
	)
	rel := db.CreateTable("t", schema)
	for i := 0; i < n; i++ {
		rel.Heap.Append([]int64{int64(i % mod), int64(i)})
	}
	db.BuildIndex(rel, "t_k", 0)
	p := &dbtest.FakeProc{}
	s := db.NewSession(p, 0)
	return db, p, NewContext(s)
}

func TestSeqScanVisitsAllRows(t *testing.T) {
	_, p, ctx := fixture(1000, 10)
	rel := ctx.S.Lookup("t")
	var sum int64
	rows := 0
	SeqScan(ctx, rel, []int{1}, func(_ storage.TID, v []int64) bool {
		sum += v[0]
		rows++
		return true
	})
	if rows != 1000 {
		t.Fatalf("rows = %d", rows)
	}
	if sum != 999*1000/2 {
		t.Fatalf("sum = %d", sum)
	}
	if p.Loads == 0 || p.Works == 0 {
		t.Fatal("scan charged nothing")
	}
	// One pin per heap page.
	if ctx.S.Pins != uint64(rel.Heap.NumPages()) {
		t.Fatalf("pins = %d, pages = %d", ctx.S.Pins, rel.Heap.NumPages())
	}
	if ctx.S.Unpins != ctx.S.Pins {
		t.Fatal("pin leak")
	}
}

func TestSeqScanEarlyStop(t *testing.T) {
	_, _, ctx := fixture(1000, 10)
	rel := ctx.S.Lookup("t")
	rows := 0
	SeqScan(ctx, rel, []int{0}, func(_ storage.TID, _ []int64) bool {
		rows++
		return rows < 5
	})
	if rows != 5 {
		t.Fatalf("rows = %d", rows)
	}
	if ctx.S.Unpins != ctx.S.Pins {
		t.Fatal("early stop leaked a pin")
	}
}

func TestIndexRangeMatchesPredicate(t *testing.T) {
	_, _, ctx := fixture(1000, 100)
	rel := ctx.S.Lookup("t")
	count := 0
	IndexRange(ctx, rel, "t_k", 10, 19, func(k int64, _ storage.TID) bool {
		if k < 10 || k > 19 {
			t.Fatalf("key %d out of range", k)
		}
		count++
		return true
	})
	if count != 100 { // 10 keys x 10 rows each
		t.Fatalf("count = %d", count)
	}
	if ctx.S.Unpins != ctx.S.Pins {
		t.Fatal("index scan leaked pins")
	}
}

func TestIndexLookupEachEarlyStop(t *testing.T) {
	_, _, ctx := fixture(1000, 10)
	rel := ctx.S.Lookup("t")
	n := 0
	IndexLookupEach(ctx, rel, "t_k", 3, func(_ storage.TID) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("visited %d entries after stop", n)
	}
}

func TestFetcherReadsCorrectTuples(t *testing.T) {
	_, p, ctx := fixture(500, 500)
	rel := ctx.S.Lookup("t")
	f := NewFetcher(ctx, rel)
	defer f.Close()
	var tids []storage.TID
	IndexRange(ctx, rel, "t_k", 0, 499, func(_ int64, tid storage.TID) bool {
		tids = append(tids, tid)
		return true
	})
	for i, tid := range tids {
		if got := f.Field(tid, 1); got != int64(i) {
			t.Fatalf("row %d: v = %d", i, got)
		}
		if got := f.FieldAgain(tid, 0); got != int64(i) {
			t.Fatalf("row %d: k = %d", i, got)
		}
	}
	if p.Loads == 0 {
		t.Fatal("fetch charged nothing")
	}
}

func TestFetcherPinsPerPageNotPerTuple(t *testing.T) {
	_, _, ctx := fixture(800, 800)
	rel := ctx.S.Lookup("t")
	base := ctx.S.Pins
	f := NewFetcher(ctx, rel)
	defer f.Close()
	for i := 0; i < 800; i++ {
		f.Field(rel.Heap.TIDOf(i), 1)
	}
	pins := ctx.S.Pins - base
	if pins != uint64(rel.Heap.NumPages()) {
		t.Fatalf("pins = %d, want %d (per page)", pins, rel.Heap.NumPages())
	}
}

func TestHashAggGroups(t *testing.T) {
	_, p, ctx := fixture(10, 10)
	agg := NewHashAgg(ctx, 64, 2)
	for i := 0; i < 100; i++ {
		agg.Update(int64(i%7), func(s []int64) {
			s[0]++
			s[1] += int64(i)
		})
	}
	if agg.Len() != 7 {
		t.Fatalf("groups = %d", agg.Len())
	}
	var keys []int64
	total := int64(0)
	agg.Each(func(k int64, s []int64) {
		keys = append(keys, k)
		total += s[0]
	})
	if total != 100 {
		t.Fatalf("total count = %d", total)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatal("Each not sorted")
		}
	}
	if p.Stores == 0 {
		t.Fatal("agg charged no private stores")
	}
}

func TestHashAggAddressesArePrivate(t *testing.T) {
	_, p, ctx := fixture(10, 10)
	p.Keep = true
	p.Trace = nil
	agg := NewHashAgg(ctx, 16, 1)
	agg.Update(5, func(s []int64) { s[0]++ })
	found := false
	for _, a := range p.Trace {
		if pid, ok := memsys.IsPrivate(a); ok {
			if pid != 0 {
				t.Fatalf("private addr of wrong process: %#x", a)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no private addresses charged")
	}
}

func TestTopNOrdering(t *testing.T) {
	_, _, ctx := fixture(10, 10)
	items := []KV{{Key: 3, Val: 5}, {Key: 1, Val: 9}, {Key: 2, Val: 5}, {Key: 9, Val: 1}}
	top := TopN(ctx, items, 3)
	want := []KV{{Key: 1, Val: 9}, {Key: 2, Val: 5}, {Key: 3, Val: 5}}
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("top = %v", top)
		}
	}
}

func TestSetupCharges(t *testing.T) {
	_, p, ctx := fixture(10, 10)
	rel := ctx.S.Lookup("t")
	w := p.Works
	ctx.Setup(rel)
	if p.Works <= w {
		t.Fatal("setup charged nothing")
	}
}

// Property: seqscan sum over the index column equals index-scan sum over the
// whole range — two access paths, one answer.
func TestAccessPathEquivalence(t *testing.T) {
	f := func(n uint16, mod uint8) bool {
		rows := int(n%2000) + 10
		m := int(mod%50) + 1
		_, _, ctx := fixture(rows, m)
		rel := ctx.S.Lookup("t")
		var seqSum, idxSum int64
		SeqScan(ctx, rel, []int{0}, func(_ storage.TID, v []int64) bool {
			seqSum += v[0]
			return true
		})
		IndexRange(ctx, rel, "t_k", 0, int64(m), func(k int64, _ storage.TID) bool {
			idxSum += k
			return true
		})
		return seqSum == idxSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexProbeAllocFree pins the index-probe path of the index-scan
// queries as allocation-free once warm: an exact-key probe plus the heap
// fetches it drives, with nested probes (an inner probe while an outer one
// holds its pins) as Q21's plans do.
func TestIndexProbeAllocFree(t *testing.T) {
	_, _, ctx := fixture(2000, 50)
	rel := ctx.S.Lookup("t")
	f := NewFetcher(ctx, rel)
	defer f.Close()
	var sum int64
	probe := func() {
		for key := int64(0); key < 50; key += 7 {
			IndexLookupEach(ctx, rel, "t_k", key, func(tid storage.TID) bool {
				sum += f.Field(tid, 1)
				IndexLookupEach(ctx, rel, "t_k", key+1, func(tid storage.TID) bool {
					sum += f.Field(tid, 0)
					return false
				})
				return true
			})
		}
	}
	probe() // warm-up: pin sets, span names and the fetcher's pin map grow once
	if n := testing.AllocsPerRun(20, probe); n != 0 {
		t.Fatalf("index probes allocate %.1f times per run, want 0", n)
	}
	if sum == 0 {
		t.Fatal("probes read nothing")
	}
}
