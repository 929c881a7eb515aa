package machine

import (
	"fmt"
	"testing"

	"dssmem/internal/cache"
	"dssmem/internal/coherence"
	"dssmem/internal/memsys"
	"dssmem/internal/perfctr"
)

// This file keeps the straightforward cache and machine implementations the
// optimised ones replaced: per-way LRU timestamps with full set scans, and an
// Access path that looks each line up, then inserts it, scanning the set every
// time. FuzzMachineDifferential drives both with the same operations and
// requires identical cycles, counters, statistics and line states, so every
// shortcut in the real path is pinned to this model.

type refWay struct {
	tag   uint64 // full line number (addr >> lineShift)
	state cache.State
	used  uint64 // LRU timestamp
}

// refCache is a set-associative cache with true LRU by timestamps.
type refCache struct {
	cfg       cache.Config
	lineShift uint
	setMask   uint64
	ways      []refWay // sets*assoc, set-major
	assoc     int
	tick      uint64
	victims   []cache.Victim
	Stats     cache.Stats
}

func newRefCache(cfg cache.Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ls := uint(0)
	for 1<<ls < cfg.LineSize {
		ls++
	}
	return &refCache{
		cfg:       cfg,
		lineShift: ls,
		setMask:   uint64(cfg.Sets() - 1),
		ways:      make([]refWay, cfg.Sets()*cfg.Assoc),
		assoc:     cfg.Assoc,
	}
}

func (c *refCache) LineOf(addr uint64) uint64 { return addr >> c.lineShift }

func (c *refCache) set(line uint64) []refWay {
	s := line & c.setMask
	return c.ways[s*uint64(c.assoc) : (s+1)*uint64(c.assoc)]
}

func (c *refCache) Lookup(line uint64, write bool) (cache.State, bool) {
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	set := c.set(line)
	for i := range set {
		if set[i].tag == line && set[i].state != cache.Invalid {
			c.tick++
			set[i].used = c.tick
			return set[i].state, true
		}
	}
	if write {
		c.Stats.WriteMisses++
	} else {
		c.Stats.ReadMisses++
	}
	return cache.Invalid, false
}

func (c *refCache) Insert(line uint64, st cache.State) cache.Victim {
	set := c.set(line)
	victim := 0
	for i := range set {
		if set[i].state == cache.Invalid {
			victim = i
			goto place
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
place:
	v := cache.Victim{Line: set[victim].tag, State: set[victim].state}
	if v.State != cache.Invalid {
		c.Stats.Evictions++
		if v.State.Dirty() {
			c.Stats.Writebacks++
		}
	}
	c.tick++
	set[victim] = refWay{tag: line, state: st, used: c.tick}
	return v
}

func (c *refCache) SetState(line uint64, st cache.State) {
	set := c.set(line)
	for i := range set {
		if set[i].tag == line && set[i].state != cache.Invalid {
			set[i].state = st
			return
		}
	}
	panic(fmt.Sprintf("cache %s: SetState(%#x) on absent line", c.cfg.Name, line))
}

func (c *refCache) MarkModified(line uint64) bool {
	set := c.set(line)
	for i := range set {
		if set[i].tag == line && set[i].state != cache.Invalid {
			set[i].state = cache.Modified
			return true
		}
	}
	return false
}

func (c *refCache) StateOf(line uint64) cache.State {
	set := c.set(line)
	for i := range set {
		if set[i].tag == line && set[i].state != cache.Invalid {
			return set[i].state
		}
	}
	return cache.Invalid
}

func (c *refCache) Invalidate(line uint64) cache.State {
	set := c.set(line)
	for i := range set {
		if set[i].tag == line && set[i].state != cache.Invalid {
			st := set[i].state
			set[i].state = cache.Invalid
			c.Stats.InvalidationsReceived++
			return st
		}
	}
	return cache.Invalid
}

func (c *refCache) Downgrade(line uint64) cache.State {
	set := c.set(line)
	for i := range set {
		if set[i].tag == line && set[i].state != cache.Invalid {
			st := set[i].state
			if st == cache.Modified || st == cache.Exclusive {
				set[i].state = cache.Shared
				c.Stats.DowngradesReceived++
			}
			return st
		}
	}
	return cache.Invalid
}

func (c *refCache) FlushFraction(frac float64) []cache.Victim {
	if frac <= 0 {
		return nil
	}
	stride := int(1 / frac)
	if stride < 1 {
		stride = 1
	}
	victims := c.victims[:0]
	for i := 0; i < len(c.ways); i += stride {
		w := &c.ways[i]
		if w.state != cache.Invalid {
			victims = append(victims, cache.Victim{Line: w.tag, State: w.state})
			if w.state.Dirty() {
				c.Stats.Writebacks++
			}
			c.Stats.FlushEvictions++
			w.state = cache.Invalid
		}
	}
	c.victims = victims
	return victims
}

// refMachine is the reference Access path over refCaches and its own
// directory.
type refMachine struct {
	spec Spec
	l1   []*refCache
	l2   []*refCache // nil when single-level
	dir  *coherence.Directory
	ctrs []perfctr.Counters

	l1PerOuter uint64
	outerShift uint
	baseCycles uint64
}

func newRefMachine(spec Spec) *refMachine {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	m := &refMachine{spec: spec}
	views := make([]coherence.CoherentCache, spec.CPUs)
	nodeOf := make([]int, spec.CPUs)
	m.l1 = make([]*refCache, spec.CPUs)
	if spec.L2 != nil {
		m.l2 = make([]*refCache, spec.CPUs)
	}
	protoLine := spec.L1.LineSize
	if spec.L2 != nil {
		protoLine = spec.L2.LineSize
	}
	m.l1PerOuter = uint64(protoLine / spec.L1.LineSize)
	for 1<<m.outerShift < m.l1PerOuter {
		m.outerShift++
	}
	m.baseCycles = uint64(spec.BaseCPI + 0.5)
	for i := 0; i < spec.CPUs; i++ {
		m.l1[i] = newRefCache(spec.L1)
		if spec.L2 != nil {
			m.l2[i] = newRefCache(*spec.L2)
			views[i] = &refView{l1: m.l1[i], l2: m.l2[i], l1PerOuter: m.l1PerOuter}
		} else {
			views[i] = m.l1[i]
		}
		nodeOf[i] = spec.CPUNode(i)
	}
	m.dir = coherence.NewDirectory(coherence.Config{
		Params:       spec.Protocol,
		Placement:    spec.placement(),
		Net:          spec.network(),
		NodeOf:       nodeOf,
		Caches:       views,
		LineSize:     protoLine,
		SharedLimit:  spec.SharedLimit,
		MemOccupancy: spec.MemOccupancy,
	})
	m.ctrs = make([]perfctr.Counters, spec.CPUs)
	return m
}

func (m *refMachine) Access(c int, addr memsys.Addr, size int, write bool, now uint64) uint64 {
	ct := &m.ctrs[c]
	ct.Instructions++
	if write {
		ct.Stores++
	} else {
		ct.Loads++
	}
	cycles := m.baseCycles
	if size <= 0 {
		size = 1
	}
	l1 := m.l1[c]
	first := l1.LineOf(uint64(addr))
	last := l1.LineOf(uint64(addr) + uint64(size) - 1)
	for line := first; line <= last; line++ {
		cycles += m.accessLine(c, line, write, now+cycles)
	}
	ct.Cycles += cycles
	return cycles
}

func (m *refMachine) accessLine(c int, l1line uint64, write bool, now uint64) uint64 {
	ct := &m.ctrs[c]
	l1 := m.l1[c]
	st, hit := l1.Lookup(l1line, write)
	if hit {
		if !write {
			return 0
		}
		switch st {
		case cache.Modified:
			return 0
		case cache.Exclusive:
			l1.SetState(l1line, cache.Modified)
			m.markOuterDirty(c, l1line)
			return 0
		default: // Shared: needs ownership
			return m.upgrade(c, l1line, now)
		}
	}
	ct.L1DMisses++
	if m.l2 == nil {
		return m.outerMiss(c, l1line, write, now)
	}
	return m.l2Access(c, l1line, write, now)
}

func (m *refMachine) l2Access(c int, l1line uint64, write bool, now uint64) uint64 {
	ct := &m.ctrs[c]
	l2 := m.l2[c]
	outerLine := l1line >> m.outerShift
	st, hit := l2.Lookup(outerLine, write)
	if hit {
		stall := m.spec.L2HitCycles
		if write && st == cache.Shared {
			stall += m.upgradeOuter(c, outerLine, now)
			st = cache.Modified
		} else if write && st == cache.Exclusive {
			l2.SetState(outerLine, cache.Modified)
			st = cache.Modified
		}
		m.installL1(c, l1line, refL1State(st, write))
		return stall
	}
	ct.L2DMisses++
	stall := m.spec.L2HitCycles + m.outerFetch(c, outerLine, write, now)
	grant := m.l2[c].StateOf(outerLine)
	m.installL1(c, l1line, refL1State(grant, write))
	return stall
}

func refL1State(outer cache.State, write bool) cache.State {
	if write {
		return cache.Modified
	}
	switch outer {
	case cache.Modified, cache.Exclusive:
		return cache.Exclusive
	default:
		return cache.Shared
	}
}

func (m *refMachine) installL1(c int, l1line uint64, st cache.State) {
	v := m.l1[c].Insert(l1line, st)
	if v.State == cache.Invalid {
		return
	}
	if v.State.Dirty() && m.l2 != nil {
		m.l2[c].MarkModified(v.Line >> m.outerShift)
	}
	if st == cache.Modified {
		m.markOuterDirty(c, l1line)
	}
}

func (m *refMachine) markOuterDirty(c int, l1line uint64) {
	if m.l2 == nil {
		return
	}
	m.l2[c].MarkModified(l1line >> m.outerShift)
}

func (m *refMachine) outerMiss(c int, line uint64, write bool, now uint64) uint64 {
	return m.outerFetch(c, line, write, now)
}

func (m *refMachine) outerFetch(c int, line uint64, write bool, now uint64) uint64 {
	ct := &m.ctrs[c]
	var r coherence.Result
	if write {
		r = m.dir.Write(coherence.CacheID(c), line, now)
	} else {
		r = m.dir.Read(coherence.CacheID(c), line, now)
	}
	ct.MemRequests++
	ct.MemLatencyCycles += r.Latency
	switch r.Class {
	case coherence.Cold:
		ct.ColdMisses++
	case coherence.Capacity:
		ct.CapacityMisses++
	case coherence.Coherence:
		ct.CoherenceMisses++
	}
	if r.Dirty3Hop {
		ct.Dirty3HopMisses++
	}

	outer := m.outerCache(c)
	v := outer.Insert(line, r.Grant)
	if v.State != cache.Invalid {
		m.dir.Evict(coherence.CacheID(c), v.Line, v.State.Dirty(), now)
		if m.l2 != nil {
			m.backInvalidateL1(c, v.Line)
		}
	}

	factor := m.spec.ReadStallFactor
	if write {
		factor = m.spec.WriteStallFactor
	}
	stall := uint64(float64(r.Latency)*factor + 0.5)
	ct.StallCycles += stall
	return stall
}

func (m *refMachine) upgrade(c int, l1line uint64, now uint64) uint64 {
	if m.l2 == nil {
		stall := m.upgradeOuter(c, l1line, now)
		m.l1[c].SetState(l1line, cache.Modified)
		return stall
	}
	outer := l1line >> m.outerShift
	stall := m.spec.L2HitCycles
	if m.l2[c].StateOf(outer) == cache.Shared {
		stall += m.upgradeOuter(c, outer, now)
	} else if m.l2[c].StateOf(outer) != cache.Invalid {
		m.l2[c].SetState(outer, cache.Modified)
	}
	m.l1[c].SetState(l1line, cache.Modified)
	return stall
}

func (m *refMachine) upgradeOuter(c int, outerLine uint64, now uint64) uint64 {
	ct := &m.ctrs[c]
	r := m.dir.Upgrade(coherence.CacheID(c), outerLine, now)
	ct.Upgrades++
	ct.MemRequests++
	ct.MemLatencyCycles += r.Latency
	outer := m.outerCache(c)
	if outer.StateOf(outerLine) != cache.Invalid {
		outer.SetState(outerLine, r.Grant)
	} else {
		v := outer.Insert(outerLine, r.Grant)
		if v.State != cache.Invalid {
			m.dir.Evict(coherence.CacheID(c), v.Line, v.State.Dirty(), now)
			if m.l2 != nil {
				m.backInvalidateL1(c, v.Line)
			}
		}
	}
	stall := uint64(float64(r.Latency)*m.spec.WriteStallFactor + 0.5)
	ct.StallCycles += stall
	return stall
}

type refView struct {
	l1, l2     *refCache
	l1PerOuter uint64
}

func (h *refView) StateOf(line uint64) cache.State { return h.l2.StateOf(line) }

func (h *refView) Invalidate(line uint64) cache.State {
	st := h.l2.Invalidate(line)
	base := line * h.l1PerOuter
	for i := uint64(0); i < h.l1PerOuter; i++ {
		h.l1.Invalidate(base + i)
	}
	return st
}

func (h *refView) Downgrade(line uint64) cache.State {
	st := h.l2.Downgrade(line)
	base := line * h.l1PerOuter
	for i := uint64(0); i < h.l1PerOuter; i++ {
		h.l1.Downgrade(base + i)
	}
	return st
}

func (m *refMachine) outerCache(c int) *refCache {
	if m.l2 != nil {
		return m.l2[c]
	}
	return m.l1[c]
}

func (m *refMachine) backInvalidateL1(c int, outerLine uint64) {
	base := outerLine * m.l1PerOuter
	for i := uint64(0); i < m.l1PerOuter; i++ {
		m.l1[c].Invalidate(base + i)
	}
}

func (m *refMachine) FlushFraction(c int, frac float64, now uint64) {
	if m.l2 != nil {
		for _, v := range m.l1[c].FlushFraction(frac) {
			if v.State.Dirty() {
				outer := v.Line >> m.outerShift
				if m.l2[c].StateOf(outer) != cache.Invalid {
					m.l2[c].SetState(outer, cache.Modified)
				}
			}
		}
	}
	for _, v := range m.outerCache(c).FlushFraction(frac) {
		m.dir.Evict(coherence.CacheID(c), v.Line, v.State.Dirty(), now)
		if m.l2 != nil {
			m.backInvalidateL1(c, v.Line)
		}
	}
}

// differentialSpecs are the machines the differential fuzz drives: a
// two-level 2-way hierarchy with 128-byte protocol lines (Origin), a
// single-level direct-mapped one (V-Class), a two-level direct-mapped one
// (Starfire), and the Origin degraded to MSI.
func differentialSpecs() []Spec {
	msi := OriginSpec(8, 256)
	msi.Name += " (MSI)"
	msi.Protocol.NoExclusive = true
	return []Spec{OriginSpec(8, 256), VClassSpec(8, 256), StarfireSpec(8, 256), msi}
}

// diffOp decodes 4 fuzz bytes into one operation: a load or store of 1-16
// bytes by CPU 0-7, or, for one first-byte value in 16, a context-switch
// flush. Addresses come from a 2 KiB shared pool (heavy reuse and set
// conflicts in L1, lines shared across CPUs), a 64 KiB shared pool (larger
// than the test L2s, so L2 victims back-invalidate L1) or the CPU's private
// region, in 4-byte granules so multi-byte accesses straddle lines.
type diffOp struct {
	cpu   int
	flush bool
	frac  float64
	addr  memsys.Addr
	size  int
	write bool
}

func decodeDiffOp(b []byte) diffOp {
	op := diffOp{cpu: int(b[0] & 7), write: b[0]&8 != 0}
	if b[0]>>4 == 0xF {
		op.flush = true
		op.frac = 0.05
		if b[1]&1 != 0 {
			op.frac = 0.5
		}
		return op
	}
	op.size = 1 + int(b[1]&15)
	off := memsys.Addr(b[2]&0x3f)<<8 | memsys.Addr(b[3])
	switch b[2] >> 6 {
	case 0, 1:
		op.addr = memsys.SharedBase + off%512*4
	case 2:
		op.addr = memsys.SharedBase + off*4
	default:
		op.addr = memsys.PrivateBase(op.cpu) + off%4096*4
	}
	return op
}

// runDifferential replays ops on the machine under test and the reference
// and fails at the first operation after which any observable differs.
func runDifferential(t *testing.T, spec Spec, ops []byte) {
	m, ref := New(spec), newRefMachine(spec)
	var now [8]uint64
	for i := 0; i+4 <= len(ops); i += 4 {
		op := decodeDiffOp(ops[i : i+4])
		c := op.cpu
		if op.flush {
			m.FlushFraction(c, op.frac, now[c])
			ref.FlushFraction(c, op.frac, now[c])
		} else {
			got := m.Access(c, op.addr, op.size, op.write, now[c])
			want := ref.Access(c, op.addr, op.size, op.write, now[c])
			if got != want {
				t.Fatalf("%s op %d %+v: Access = %d cycles, reference %d", spec.Name, i/4, op, got, want)
			}
			now[c] += got
		}
		if err := compareMachines(m, ref, c, op); err != "" {
			t.Fatalf("%s op %d %+v: %s", spec.Name, i/4, op, err)
		}
	}
	if err := compareMachines(m, ref, -1, diffOp{}); err != "" {
		t.Fatalf("%s after %d ops: %s", spec.Name, len(ops)/4, err)
	}
}

// compareMachines returns a description of the first difference between m and
// ref, or "" if they agree on counters, cache and directory statistics, the
// states of op's lines on every CPU at both levels, and the whole contents of
// CPU actor's caches (of every CPU's when actor < 0). It also checks
// inclusion on the caches it compares whole.
func compareMachines(m *Machine, ref *refMachine, actor int, op diffOp) string {
	d, rd := m.Directory(), ref.dir
	if d.Stats != rd.Stats {
		return fmt.Sprintf("directory stats %+v, reference %+v", d.Stats, rd.Stats)
	}
	for c := range ref.ctrs {
		if *m.Counters(c) != ref.ctrs[c] {
			return fmt.Sprintf("CPU %d counters %+v, reference %+v", c, *m.Counters(c), ref.ctrs[c])
		}
		if d.ByCache[c] != rd.ByCache[c] {
			return fmt.Sprintf("CPU %d directory accounting %+v, reference %+v", c, d.ByCache[c], rd.ByCache[c])
		}
		if m.L1(c).Stats != ref.l1[c].Stats {
			return fmt.Sprintf("CPU %d L1 stats %+v, reference %+v", c, m.L1(c).Stats, ref.l1[c].Stats)
		}
		if ref.l2 != nil && m.L2(c).Stats != ref.l2[c].Stats {
			return fmt.Sprintf("CPU %d L2 stats %+v, reference %+v", c, m.L2(c).Stats, ref.l2[c].Stats)
		}
		if op.size > 0 {
			l1 := m.L1(c)
			for l := l1.LineOf(uint64(op.addr)); l <= l1.LineOf(uint64(op.addr)+uint64(op.size)-1); l++ {
				if st, rst := l1.StateOf(l), ref.l1[c].StateOf(l); st != rst {
					return fmt.Sprintf("CPU %d L1 line %#x is %v, reference %v", c, l, st, rst)
				}
				if ref.l2 == nil {
					continue
				}
				outer := l >> m.outerShift
				if st, rst := m.L2(c).StateOf(outer), ref.l2[c].StateOf(outer); st != rst {
					return fmt.Sprintf("CPU %d L2 line %#x is %v, reference %v", c, outer, st, rst)
				}
			}
		}
		if actor >= 0 && c != actor {
			continue
		}
		if err := compareCaches(m.L1(c), ref.l1[c]); err != "" {
			return fmt.Sprintf("CPU %d L1: %s", c, err)
		}
		if ref.l2 == nil {
			continue
		}
		if err := compareCaches(m.L2(c), ref.l2[c]); err != "" {
			return fmt.Sprintf("CPU %d L2: %s", c, err)
		}
		for _, w := range ref.l1[c].ways {
			if w.state == cache.Invalid {
				continue
			}
			switch st2 := m.L2(c).StateOf(w.tag >> m.outerShift); {
			case st2 == cache.Invalid:
				return fmt.Sprintf("CPU %d L1 line %#x is %v without its L2 line", c, w.tag, w.state)
			case w.state == cache.Modified && st2 != cache.Modified:
				return fmt.Sprintf("CPU %d L1 line %#x is M but its L2 line is %v", c, w.tag, st2)
			}
		}
	}
	return ""
}

// compareCaches reports the first difference in resident lines.
func compareCaches(c *cache.Cache, ref *refCache) string {
	valid := 0
	for _, w := range ref.ways {
		if w.state == cache.Invalid {
			continue
		}
		valid++
		if st := c.StateOf(w.tag); st != w.state {
			return fmt.Sprintf("line %#x is %v, reference %v", w.tag, st, w.state)
		}
	}
	if n := c.ValidLines(); n != valid {
		return fmt.Sprintf("%d valid lines, reference %d", n, valid)
	}
	return ""
}

// FuzzMachineDifferential pins the optimised Access path to the reference:
// after every load, store or flush, cycles, counters, cache and directory
// statistics and line states must match exactly on every differential spec.
func FuzzMachineDifferential(f *testing.F) {
	rng := uint64(0x9E3779B97F4A7C15)
	for _, n := range []int{64, 512, 1024} {
		seed := make([]byte, n)
		for i := range seed {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			seed[i] = byte(rng)
		}
		f.Add(seed)
	}
	// Two CPUs ping-ponging stores and loads over a few lines of one set.
	var pingPong []byte
	for i := 0; i < 256; i++ {
		pingPong = append(pingPong, byte(i&1)|byte(i&4)<<1, 7, 0, byte(i%3)*64)
	}
	f.Add(pingPong)
	// An L2 victim whose back-invalidated L1 sub-block is the most recently
	// used way of the set the missing line fills (Origin geometry): the fill
	// must take the freed way, not the way its first probe chose. Loads of
	// 0 and 256 fill one L1 set, 0 is touched again, 8192 replaces 256 in L1,
	// 0 is touched once more, and 16384 evicts the L2 line of 0.
	f.Add([]byte{
		0, 0, 0x80, 0,
		0, 0, 0x80, 64,
		0, 0, 0x80, 0,
		0, 0, 0x88, 0,
		0, 0, 0x80, 0,
		0, 0, 0x90, 0,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*256 {
			ops = ops[:4*256]
		}
		for _, spec := range differentialSpecs() {
			runDifferential(t, spec, ops)
		}
	})
}
