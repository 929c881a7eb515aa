package storage

import (
	"testing"
	"testing/quick"

	"dssmem/internal/memsys"
)

// recordingMem captures the addresses the storage layer charges.
type recordingMem struct {
	loads, stores []memsys.Addr
	work          uint64
}

func (r *recordingMem) Load(a memsys.Addr, size int)  { r.loads = append(r.loads, a) }
func (r *recordingMem) Store(a memsys.Addr, size int) { r.stores = append(r.stores, a) }
func (r *recordingMem) Work(n uint64)                 { r.work += n }

func testSchema() *Schema {
	return NewSchema(
		Column{Name: "k", Width: 8},
		Column{Name: "a", Width: 4},
		Column{Name: "b", Width: 8},
	)
}

func TestSchemaLayout(t *testing.T) {
	s := testSchema()
	if s.TupleWidth() != 20 {
		t.Fatalf("width = %d", s.TupleWidth())
	}
	if s.Offset(0) != 0 || s.Offset(1) != 8 || s.Offset(2) != 12 {
		t.Fatal("offsets wrong")
	}
	if s.ColIndex("b") != 2 {
		t.Fatal("ColIndex wrong")
	}
	if s.TuplesPerPage() != (PageSize-16)/20 {
		t.Fatalf("tpp = %d", s.TuplesPerPage())
	}
}

func TestSchemaRejectsBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSchema(Column{Name: "x", Width: 3})
}

func TestAppendAndRead(t *testing.T) {
	pool := NewPool(0x10000, 16)
	h := NewHeap(pool, testSchema())
	m := NullMem{}
	for i := 0; i < 1000; i++ {
		tid := h.Append([]int64{int64(i), int64(i * 2), int64(-i)})
		if got := h.ReadField(m, tid, 0); got != int64(i) {
			t.Fatalf("k = %d, want %d", got, i)
		}
	}
	if h.NumTuples() != 1000 {
		t.Fatalf("count = %d", h.NumTuples())
	}
	wantPages := (1000 + testSchema().TuplesPerPage() - 1) / testSchema().TuplesPerPage()
	if h.NumPages() != wantPages {
		t.Fatalf("pages = %d, want %d", h.NumPages(), wantPages)
	}
	// Re-read everything via TIDOf.
	for i := 0; i < 1000; i++ {
		tid := h.TIDOf(i)
		if h.ReadField(m, tid, 2) != int64(-i) {
			t.Fatalf("row %d corrupted", i)
		}
	}
}

func Test4ByteColumnSignedness(t *testing.T) {
	pool := NewPool(0, 2)
	h := NewHeap(pool, testSchema())
	tid := h.Append([]int64{1, -42, 2})
	if got := h.ReadField(NullMem{}, tid, 1); got != -42 {
		t.Fatalf("got %d, want -42", got)
	}
}

func TestWriteField(t *testing.T) {
	pool := NewPool(0, 2)
	h := NewHeap(pool, testSchema())
	tid := h.Append([]int64{1, 2, 3})
	m := &recordingMem{}
	h.WriteField(m, tid, 2, 99)
	if h.ReadField(NullMem{}, tid, 2) != 99 {
		t.Fatal("write lost")
	}
	if len(m.stores) != 1 {
		t.Fatal("store not charged")
	}
}

func TestChargedAddressesAreWithinPage(t *testing.T) {
	base := memsys.Addr(0x40000)
	pool := NewPool(base, 4)
	h := NewHeap(pool, testSchema())
	var tids []TID
	for i := 0; i < 500; i++ {
		tids = append(tids, h.Append([]int64{int64(i), 0, 0}))
	}
	m := &recordingMem{}
	for _, tid := range tids {
		h.ReadField(m, tid, 0)
	}
	if len(m.loads) != 500 {
		t.Fatalf("loads = %d", len(m.loads))
	}
	// Addresses must be monotonically non-decreasing for a sequential scan
	// (dense append), which is what gives seqscans their spatial locality.
	for i := 1; i < len(m.loads); i++ {
		if m.loads[i] < m.loads[i-1] {
			t.Fatal("sequential scan addresses not monotonic")
		}
	}
	end := base + memsys.Addr(pool.Size())
	for _, a := range m.loads {
		if a < base || a >= end {
			t.Fatalf("address %#x outside the pool", a)
		}
	}
}

func TestSlotsOnChargesHeaderRead(t *testing.T) {
	pool := NewPool(0, 4)
	h := NewHeap(pool, testSchema())
	h.Append([]int64{1, 2, 3})
	h.Append([]int64{4, 5, 6})
	m := &recordingMem{}
	if n := h.SlotsOn(m, 0); n != 2 {
		t.Fatalf("slots = %d", n)
	}
	if len(m.loads) != 1 {
		t.Fatal("header read not charged")
	}
}

func TestPoolExhaustionPanics(t *testing.T) {
	pool := NewPool(0, 1)
	pool.AllocPage()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pool.AllocPage()
}

func TestArityMismatchPanics(t *testing.T) {
	pool := NewPool(0, 1)
	h := NewHeap(pool, testSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Append([]int64{1})
}

// Property: round-tripping arbitrary rows preserves values (8-byte columns
// exactly; 4-byte columns modulo int32).
func TestRoundTripProperty(t *testing.T) {
	f := func(rows [][3]int64) bool {
		if len(rows) > 3000 {
			rows = rows[:3000]
		}
		pool := NewPool(0x1000, len(rows)/100+2)
		h := NewHeap(pool, testSchema())
		tids := make([]TID, len(rows))
		for i, r := range rows {
			tids[i] = h.Append([]int64{r[0], r[1], r[2]})
		}
		for i, r := range rows {
			if h.ReadField(NullMem{}, tids[i], 0) != r[0] {
				return false
			}
			if h.ReadField(NullMem{}, tids[i], 1) != int64(int32(r[1])) {
				return false
			}
			if h.ReadField(NullMem{}, tids[i], 2) != r[2] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: TIDOf agrees with the TIDs returned by Append.
func TestTIDOfProperty(t *testing.T) {
	f := func(n uint16) bool {
		count := int(n%2000) + 1
		pool := NewPool(0, count/100+2)
		h := NewHeap(pool, testSchema())
		tids := make([]TID, count)
		for i := 0; i < count; i++ {
			tids[i] = h.Append([]int64{int64(i), 0, 0})
		}
		for i := 0; i < count; i++ {
			if h.TIDOf(i) != tids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedPool pins the pool's observable behaviour across host-memory
// chunk boundaries: capacity, page addresses and page bytes. Page
// chunkPages-1 and chunkPages sit on either side of the first boundary; the
// capacity leaves a partial last chunk.
func TestChunkedPool(t *testing.T) {
	const base = memsys.Addr(0x40000)
	pages := 2*chunkPages + 5
	pool := NewPool(base, pages)
	if pool.Size() != uint64(pages)*PageSize || pool.Pages() != pages || pool.Used() != 0 {
		t.Fatalf("size %d pages %d used %d", pool.Size(), pool.Pages(), pool.Used())
	}
	if pool.chunks[0] != nil {
		t.Fatal("chunk allocated before any page")
	}
	used := chunkPages + 2
	for i := 0; i < used; i++ {
		if pg := pool.AllocPage(); pg != i {
			t.Fatalf("AllocPage = %d, want %d", pg, i)
		}
		pool.MarkPage(i, PageKind(1+i%2))
		b := pool.PageBytes(i)
		if len(b) != PageSize {
			t.Fatalf("page %d: %d bytes", i, len(b))
		}
		b[0], b[PageSize-1] = byte(i), byte(i>>8)^0xff
	}
	if pool.chunks[2] != nil {
		t.Fatal("chunk allocated ahead of its first page")
	}
	for _, pg := range []int{0, chunkPages - 1, chunkPages, used - 1, pages - 1} {
		if got, want := pool.PageAddr(pg), base+memsys.Addr(pg)*PageSize; got != want {
			t.Fatalf("PageAddr(%d) = %#x, want %#x", pg, got, want)
		}
	}
	for i := 0; i < used; i++ {
		page := pool.PageBytes(i)
		if page[0] != byte(i) || page[PageSize-1] != byte(i>>8)^0xff || pool.KindOf(i) != PageKind(1+i%2) {
			t.Fatalf("page %d lost its bytes or kind", i)
		}
	}
	for pool.Used() < pages {
		pool.AllocPage()
	}
	if b := pool.PageBytes(pages - 1); len(b) != PageSize {
		t.Fatalf("last page of the partial chunk: %d bytes", len(b))
	}
}
