// Package cache implements direct-mapped and 2-way set-associative,
// write-back, write-allocate caches with true-LRU replacement and MESI line
// states. It models tags and states only (contents live elsewhere); the
// machine layer composes caches into hierarchies and drives the coherence
// protocol.
package cache

import "fmt"

// State is a MESI coherence state.
type State uint8

// MESI states. The zero value is Invalid so fresh tag arrays are empty.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Dirty reports whether a line in this state must be written back on eviction.
func (s State) Dirty() bool { return s == Modified }

// Config describes one cache.
type Config struct {
	Name     string
	Size     int // total bytes; must be Assoc*LineSize*2^k
	LineSize int // bytes; power of two
	Assoc    int // ways: 1 (direct-mapped) or 2
}

// Lines returns the number of lines in the cache.
func (c Config) Lines() int { return c.Size / c.LineSize }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Lines() / c.Assoc }

// Validate reports whether the geometry is coherent.
func (c Config) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	}
	if c.Assoc > 2 {
		return fmt.Errorf("cache %s: associativity %d, want 1 or 2", c.Name, c.Assoc)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineSize)
	}
	if c.Size%(c.LineSize*c.Assoc) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by assoc*line", c.Name, c.Size)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts cache events. Miss *classification* (cold / capacity /
// coherence) is done by the coherence layer, which has the global view.
type Stats struct {
	Reads, Writes         uint64
	ReadMisses            uint64
	WriteMisses           uint64 // includes write misses to absent lines only
	Upgrades              uint64 // write hits on Shared lines (ownership needed)
	Evictions             uint64
	Writebacks            uint64 // dirty evictions
	InvalidationsReceived uint64 // lines removed by remote coherence
	DowngradesReceived    uint64 // M/E -> S by remote read
	FlushEvictions        uint64 // lines lost to context-switch pollution
}

// Accesses returns total reads+writes.
func (s *Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses returns read+write misses (upgrades are not misses: data is present).
func (s *Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// Victim describes a line displaced from the cache.
type Victim struct {
	Line  uint64
	State State
}

// Cache is a single level of set-associative cache, direct-mapped or 2-way.
// Not safe for concurrent use; the simulation kernel serializes all access.
//
// Each way is one word: the line number shifted left by stateBits, with the
// MESI state in the low bits, so a tag compare and a validity check are one
// compare. Line numbers must stay below 2^61; simulated addresses stay below
// 2^48. A 2-way set keeps one LRU bit naming its least recently used way;
// with two ways that bit is exactly true LRU. Ways never move: a line stays in
// the physical way it was filled into until it is replaced or invalidated.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	way1      int      // index of a set's last way within the set: Assoc-1
	wayShift  uint     // log2(Assoc)
	ways      []uint64 // sets*assoc packed tag|state words, set-major
	lru       []uint8  // per set: the LRU way (always 0 when direct-mapped)
	victims   []Victim // FlushFraction's result buffer
	Stats     Stats
}

const (
	stateBits = 2
	stateMask = 1<<stateBits - 1
)

// New builds a cache; it panics on invalid geometry (configs are code, not
// user input).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ls := uint(0)
	for 1<<ls < cfg.LineSize {
		ls++
	}
	return &Cache{
		cfg:       cfg,
		lineShift: ls,
		setMask:   uint64(cfg.Sets() - 1),
		way1:      cfg.Assoc - 1,
		wayShift:  uint(cfg.Assoc - 1),
		ways:      make([]uint64, cfg.Sets()*cfg.Assoc),
		lru:       make([]uint8, cfg.Sets()),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineOf maps a byte address to this cache's line number.
func (c *Cache) LineOf(addr uint64) uint64 { return addr >> c.lineShift }

// matches reports whether way word w holds line in a valid state: the tag
// bits equal and the state bits nonzero, in one unsigned compare.
func matches(w, key uint64) bool { return (w^key)-1 < stateMask }

// hitMask is matches as a mask, -1 for a match and 0 otherwise, computed
// without a branch: x = w^key lies in [1, 3] exactly on a match, which is
// exactly when x-4 is negative and x-1 is not (line numbers stay below 2^61,
// so x never reaches the sign bit).
func hitMask(w, key uint64) int {
	x := w ^ key
	return int((x-4)&^(x-1)) >> 63
}

// find returns the slot holding line and its state, or the set's last slot
// and Invalid when the line is absent. Way 0 wins if both ways match (which
// the fill discipline never produces).
func (c *Cache) find(line uint64) (slot int, st State) {
	base := int(line&c.setMask) << c.wayShift
	key := line << stateBits
	slot = base + c.way1&^hitMask(c.ways[base], key)
	if w := c.ways[slot]; matches(w, key) {
		st = State(w & stateMask)
	}
	return
}

// Probe records an access to line. On a hit it refreshes LRU and returns the
// line's slot and state with hit=true. On a miss it returns the slot Insert
// would fill (the first invalid way, else the LRU way) and Invalid; the
// caller fetches the line and calls FillAt with that slot, provided nothing
// changed this set in between.
func (c *Cache) Probe(line uint64, write bool) (slot int, st State, hit bool) {
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	slot, st = c.find(line)
	if st != Invalid {
		c.lru[slot>>c.wayShift] = uint8((slot & c.way1) ^ c.way1)
		return slot, st, true
	}
	if write {
		c.Stats.WriteMisses++
	} else {
		c.Stats.ReadMisses++
	}
	return c.victim(line), Invalid, false
}

// victim returns the slot a fill of line replaces: the first invalid way of
// its set, else the set's LRU way.
func (c *Cache) victim(line uint64) int {
	s := int(line & c.setMask)
	base := s << c.wayShift
	v := int(c.lru[s])
	if c.ways[base+c.way1]&stateMask == 0 {
		v = c.way1
	}
	if c.ways[base]&stateMask == 0 {
		v = 0
	}
	return base + v
}

// Lookup is Probe without the slot.
func (c *Cache) Lookup(line uint64, write bool) (State, bool) {
	_, st, hit := c.Probe(line, write)
	return st, hit
}

// FillAt places line with state st into slot, which must come from a Probe
// miss on line with no change to the set since, and makes it the set's most
// recently used way. It returns the displaced line (State==Invalid when no
// valid line was displaced).
func (c *Cache) FillAt(slot int, line uint64, st State) Victim {
	w := c.ways[slot]
	v := Victim{Line: w >> stateBits, State: State(w & stateMask)}
	if v.State != Invalid {
		c.Stats.Evictions++
		if v.State.Dirty() {
			c.Stats.Writebacks++
		}
	}
	c.ways[slot] = line<<stateBits | uint64(st)
	c.lru[slot>>c.wayShift] = uint8((slot & c.way1) ^ c.way1)
	return v
}

// Insert places line with the given state, evicting the LRU way if the set is
// full. It returns the victim (State==Invalid when no valid line was
// displaced).
func (c *Cache) Insert(line uint64, st State) Victim {
	return c.FillAt(c.victim(line), line, st)
}

// SetStateAt sets the state of the valid line in slot (from Probe or a
// lookup), without LRU effects.
func (c *Cache) SetStateAt(slot int, st State) {
	c.ways[slot] = c.ways[slot]&^stateMask | uint64(st)
}

// SetState changes the state of a resident line; it panics if absent, which
// would indicate a protocol bug.
func (c *Cache) SetState(line uint64, st State) {
	slot, cur := c.find(line)
	if cur == Invalid {
		panic(fmt.Sprintf("cache %s: SetState(%#x) on absent line", c.cfg.Name, line))
	}
	c.SetStateAt(slot, st)
}

// Find returns the slot and state of line without LRU or statistics effects;
// the state is Invalid if the line is absent.
func (c *Cache) Find(line uint64) (slot int, st State) { return c.find(line) }

// MarkModified sets a resident line to Modified without LRU effects and
// reports whether the line was present.
func (c *Cache) MarkModified(line uint64) bool {
	slot, st := c.find(line)
	if st == Invalid {
		return false
	}
	c.SetStateAt(slot, Modified)
	return true
}

// StateOf returns the state of line without LRU effects (Invalid if absent).
func (c *Cache) StateOf(line uint64) State {
	_, st := c.find(line)
	return st
}

// Invalidate removes line (coherence action) and returns its prior state.
func (c *Cache) Invalidate(line uint64) State {
	slot, st := c.find(line)
	if st != Invalid {
		c.SetStateAt(slot, Invalid)
		c.Stats.InvalidationsReceived++
	}
	return st
}

// Downgrade moves line from M/E to S (remote read intervention) and returns
// its prior state (Invalid if absent).
func (c *Cache) Downgrade(line uint64) State {
	slot, st := c.find(line)
	if st == Modified || st == Exclusive {
		c.SetStateAt(slot, Shared)
		c.Stats.DowngradesReceived++
	}
	return st
}

// FlushFraction invalidates roughly frac of the valid lines (deterministically,
// by walking ways with a stride) to model the cache pollution caused by a
// context switch running kernel/scheduler code. Victims (with their states,
// so the caller can write back dirty ones and fix the directory) are returned
// in a buffer the cache reuses: it stays valid until the next call.
func (c *Cache) FlushFraction(frac float64) []Victim {
	if frac <= 0 {
		return nil
	}
	stride := int(1 / frac)
	if stride < 1 {
		stride = 1
	}
	victims := c.victims[:0]
	for i := 0; i < len(c.ways); i += stride {
		w := c.ways[i]
		if st := State(w & stateMask); st != Invalid {
			victims = append(victims, Victim{Line: w >> stateBits, State: st})
			if st.Dirty() {
				c.Stats.Writebacks++
			}
			c.Stats.FlushEvictions++
			c.ways[i] = w &^ stateMask
		}
	}
	c.victims = victims
	return victims
}

// ValidLines returns the number of resident lines (test/inspection helper).
func (c *Cache) ValidLines() int {
	n := 0
	for _, w := range c.ways {
		if w&stateMask != 0 {
			n++
		}
	}
	return n
}
