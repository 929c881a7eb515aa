package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache {
	return New(Config{Name: "t", Size: 1024, LineSize: 32, Assoc: 2}) // 16 sets
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "zero"},
		{Name: "line", Size: 1024, LineSize: 33, Assoc: 2},
		{Name: "div", Size: 1000, LineSize: 32, Assoc: 2},
		{Name: "sets", Size: 32 * 3 * 2, LineSize: 32, Assoc: 2}, // 3 sets
		{Name: "assoc", Size: 4096, LineSize: 32, Assoc: 4},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q should be invalid", cfg.Name)
		}
	}
	good := Config{Name: "ok", Size: 1024, LineSize: 32, Assoc: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if good.Lines() != 32 || good.Sets() != 16 {
		t.Fatalf("geometry: lines=%d sets=%d", good.Lines(), good.Sets())
	}
}

func TestMissThenHit(t *testing.T) {
	c := small()
	line := c.LineOf(0x1000)
	if _, hit := c.Lookup(line, false); hit {
		t.Fatal("cold lookup should miss")
	}
	c.Insert(line, Exclusive)
	st, hit := c.Lookup(line, false)
	if !hit || st != Exclusive {
		t.Fatalf("expected E hit, got %v %v", st, hit)
	}
	if c.Stats.ReadMisses != 1 || c.Stats.Reads != 2 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2-way; lines mapping to same set differ by 16 in line number
	a, b, d := uint64(0), uint64(16), uint64(32)
	c.Lookup(a, false)
	c.Insert(a, Shared)
	c.Lookup(b, false)
	c.Insert(b, Shared)
	c.Lookup(a, false) // touch a, making b the LRU
	v := c.Insert(d, Shared)
	if v.Line != b || v.State != Shared {
		t.Fatalf("victim = %+v, want line %d", v, b)
	}
	if c.StateOf(a) != Shared || c.StateOf(d) != Shared || c.StateOf(b) != Invalid {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := small()
	c.Insert(0, Modified)
	c.Insert(16, Shared)
	c.Insert(32, Shared) // evicts line 0 (LRU) which is dirty
	if c.Stats.Writebacks != 1 || c.Stats.Evictions != 1 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestInvalidateAndDowngrade(t *testing.T) {
	c := small()
	c.Insert(5, Modified)
	if st := c.Downgrade(5); st != Modified {
		t.Fatalf("downgrade returned %v", st)
	}
	if c.StateOf(5) != Shared {
		t.Fatal("line not downgraded")
	}
	if st := c.Invalidate(5); st != Shared {
		t.Fatalf("invalidate returned %v", st)
	}
	if c.StateOf(5) != Invalid {
		t.Fatal("line not invalidated")
	}
	if c.Invalidate(5) != Invalid {
		t.Fatal("double invalidate should be a no-op")
	}
	if c.Stats.InvalidationsReceived != 1 || c.Stats.DowngradesReceived != 1 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestDowngradeSharedIsNoop(t *testing.T) {
	c := small()
	c.Insert(7, Shared)
	if st := c.Downgrade(7); st != Shared {
		t.Fatalf("got %v", st)
	}
	if c.Stats.DowngradesReceived != 0 {
		t.Fatal("S->S must not count as downgrade")
	}
}

func TestSetStatePanicsOnAbsent(t *testing.T) {
	c := small()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.SetState(99, Modified)
}

func TestUpgradePath(t *testing.T) {
	c := small()
	c.Insert(3, Shared)
	st, hit := c.Lookup(3, true)
	if !hit || st != Shared {
		t.Fatalf("write lookup: %v %v", st, hit)
	}
	// The protocol layer decides this is an upgrade; cache just changes state.
	c.SetState(3, Modified)
	if c.StateOf(3) != Modified {
		t.Fatal("upgrade failed")
	}
}

func TestFlushFraction(t *testing.T) {
	c := New(Config{Name: "t", Size: 4096, LineSize: 32, Assoc: 2})
	for i := uint64(0); i < 128; i++ {
		c.Insert(i, Shared)
	}
	before := c.ValidLines()
	victims := c.FlushFraction(0.25)
	after := c.ValidLines()
	if len(victims) == 0 || before-after != len(victims) {
		t.Fatalf("flush removed %d, victims %d", before-after, len(victims))
	}
	frac := float64(len(victims)) / float64(before)
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("flushed fraction %.2f, want ~0.25", frac)
	}
	if c.FlushFraction(0) != nil {
		t.Fatal("frac 0 should flush nothing")
	}
}

// TestFlushFractionAllocFree: after the first flush sizes the victim buffer,
// a context-switch flush of a refilled cache allocates nothing.
func TestFlushFractionAllocFree(t *testing.T) {
	c := New(Config{Name: "t", Size: 4096, LineSize: 32, Assoc: 2})
	refill := func() {
		for i := uint64(0); i < 128; i++ {
			c.Insert(i, Modified)
		}
	}
	refill()
	want := len(c.FlushFraction(0.25))
	allocs := testing.AllocsPerRun(100, func() {
		refill()
		if got := len(c.FlushFraction(0.25)); got != want {
			t.Fatalf("flush returned %d victims, want %d", got, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("FlushFraction allocates %.1f objects/op, want 0", allocs)
	}
}

func TestLineOf(t *testing.T) {
	c := small()
	if c.LineOf(0) != 0 || c.LineOf(31) != 0 || c.LineOf(32) != 1 {
		t.Fatal("LineOf broken")
	}
}

// Property: the cache never holds more than Assoc lines of any one set, and a
// just-inserted line is always resident.
func TestInsertResidencyProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := small()
		for _, a := range addrs {
			line := c.LineOf(uint64(a))
			if _, hit := c.Lookup(line, false); !hit {
				c.Insert(line, Exclusive)
			}
			if c.StateOf(line) == Invalid {
				return false
			}
			if c.ValidLines() > c.Config().Lines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: hits + misses == accesses for any access pattern.
func TestStatsBalanceProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := small()
		hits := uint64(0)
		for _, op := range ops {
			line := uint64(op % 97)
			write := op&1 == 1
			if _, hit := c.Lookup(line, write); hit {
				hits++
			} else {
				c.Insert(line, Exclusive)
			}
		}
		return c.Stats.Accesses() == uint64(len(ops)) &&
			c.Stats.Accesses()-c.Stats.Misses() == hits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A fully-sequential scan larger than the cache must miss exactly once per
// line (pure spatial locality, no reuse).
func TestSequentialScanMissesOncePerLine(t *testing.T) {
	c := New(Config{Name: "t", Size: 2048, LineSize: 32, Assoc: 2})
	const span = 16 * 1024
	for addr := uint64(0); addr < span; addr += 8 {
		line := c.LineOf(addr)
		if _, hit := c.Lookup(line, false); !hit {
			c.Insert(line, Exclusive)
		}
	}
	wantMisses := uint64(span / 32)
	if c.Stats.ReadMisses != wantMisses {
		t.Fatalf("misses = %d, want %d", c.Stats.ReadMisses, wantMisses)
	}
}
