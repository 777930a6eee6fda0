// Package mem models the simulator's memory system: set-associative caches
// with true-LRU replacement, the secure replacement-update policies of the
// paper's §VII.A, TLBs, CLFLUSH, and a multi-level hierarchy (L1I/L1D/L2/L3
// plus main memory) with per-level hit latencies.
//
// The caches track tags and replacement state only; architectural data
// always lives in the backing isa.Memory. That split is exactly what the
// paper's threat model needs: the side channel is cache *content* (which
// lines are present) and access *timing*, both of which the tag arrays
// capture, while data correctness is the backing store's job.
package mem

import (
	"fmt"
	"math/bits"
)

// Level identifies where in the hierarchy an access hit.
type Level int

// Hierarchy levels, ordered nearest-first.
const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelMem
)

// String returns "L1", "L2", "L3" or "Mem".
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	default:
		return "Mem"
	}
}

// UpdatePolicy selects how a cache updates its replacement metadata on
// speculative (suspect) hits — the paper's §VII.A secure update policies.
type UpdatePolicy int

const (
	// UpdateAlways is the conventional policy: every hit refreshes LRU.
	UpdateAlways UpdatePolicy = iota
	// UpdateNoSpec skips the LRU refresh for suspect speculative hits
	// (the paper's "no update policy").
	UpdateNoSpec
	// UpdateDelayed tags suspect hits with a pending update that the
	// pipeline applies when the access becomes non-speculative
	// (the paper's "delayed update policy"). The cache exposes Touch for
	// the deferred refresh; the decision of *when* is the pipeline's.
	UpdateDelayed
)

// String names the policy.
func (p UpdatePolicy) String() string {
	switch p {
	case UpdateAlways:
		return "always"
	case UpdateNoSpec:
		return "no-update"
	case UpdateDelayed:
		return "delayed-update"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

type line struct {
	tag   uint64
	valid bool
	lru   uint64 // larger = more recently used
}

// CacheStats counts cache events. Hits+Misses == Accesses.
type CacheStats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Refills   uint64
	Evictions uint64
	Flushes   uint64
}

// HitRate returns Hits/Accesses, or 0 when there were no accesses.
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is one set-associative tag array with true-LRU replacement.
type Cache struct {
	Name     string
	HitLat   int // total latency of a hit at this level, in cycles
	sets     int
	ways     int
	lineBits uint
	setBits  uint // log2(sets); sets is a power of two
	setMask  uint64
	lines    []line // sets*ways, set-major
	clock    uint64 // LRU timestamp source
	repl     ReplacementKind
	plru     *plruState
	rng      xorshift64
	// dirty has one bit per set a Refill has written since the cache was
	// built or reset: only those sets can hold state reset must clear.
	dirty []uint64
	Stats CacheStats
}

// NewCache builds a cache of size bytes, the given associativity and line
// size (both powers of two), with hit latency hitLat. It panics on invalid
// geometry; configurations are program constants, not user input.
func NewCache(name string, size, ways, lineBytes, hitLat int) *Cache {
	if size <= 0 || ways <= 0 || lineBytes <= 0 || size%(ways*lineBytes) != 0 {
		panic(fmt.Sprintf("mem: invalid cache geometry %s size=%d ways=%d line=%d",
			name, size, ways, lineBytes))
	}
	sets := size / (ways * lineBytes)
	if sets&(sets-1) != 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("mem: %s sets (%d) and line size (%d) must be powers of two",
			name, sets, lineBytes))
	}
	lb := uint(0)
	for 1<<lb < lineBytes {
		lb++
	}
	sb := uint(0)
	for 1<<sb < sets {
		sb++
	}
	return &Cache{
		Name:     name,
		HitLat:   hitLat,
		sets:     sets,
		ways:     ways,
		lineBits: lb,
		setBits:  sb,
		setMask:  uint64(sets - 1),
		lines:    make([]line, sets*ways),
		rng:      rngSeed,
		dirty:    make([]uint64, (sets+63)/64),
	}
}

// rngSeed is every cache's initial ReplRandom PRNG state.
const rngSeed = xorshift64(0x9E3779B97F4A7C15)

// reset returns the cache to its freshly built state: every line invalid,
// replacement metadata, PRNG and statistics as NewCache+SetReplacement
// leave them. It clears only the sets marked dirty, so resetting a large,
// sparsely used cache neither costs nor faults in its whole tag array.
func (c *Cache) reset() {
	for w, word := range c.dirty {
		for ; word != 0; word &= word - 1 {
			set := w*64 + bits.TrailingZeros64(word)
			clear(c.lines[set*c.ways : (set+1)*c.ways])
			if c.plru != nil {
				c.plru.bits[set] = 0
			}
		}
	}
	clear(c.dirty)
	c.clock = 0
	c.rng = rngSeed
	c.Stats = CacheStats{}
}

// SetReplacement selects the victim policy; call before first use. Tree
// PLRU requires power-of-two associativity.
func (c *Cache) SetReplacement(k ReplacementKind) *Cache {
	c.repl = k
	if k == ReplTreePLRU {
		c.plru = newPLRU(c.sets, c.ways)
	}
	return c
}

// Replacement returns the active victim policy.
func (c *Cache) Replacement() ReplacementKind { return c.repl }

// touchWay updates replacement metadata for a use of the given way.
func (c *Cache) touchWay(set, way int) {
	switch c.repl {
	case ReplTreePLRU:
		c.plru.touch(set, way)
	case ReplRandom:
		// Random keeps no use-ordering metadata.
	default:
		c.clock++
		c.lines[set*c.ways+way].lru = c.clock
	}
}

// victimWay picks the way to evict in a full set.
func (c *Cache) victimWay(set int) int {
	switch c.repl {
	case ReplTreePLRU:
		return c.plru.victim(set)
	case ReplRandom:
		return int(c.rng.next() % uint64(c.ways))
	default:
		base := set * c.ways
		victim := 0
		for i := 1; i < c.ways; i++ {
			if c.lines[base+i].lru < c.lines[base+victim].lru {
				victim = i
			}
		}
		return victim
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }

// SetIndex returns the set an address maps to; exposed so attack code can
// construct eviction sets the same way real attackers do.
func (c *Cache) SetIndex(addr uint64) int {
	return int((addr >> c.lineBits) & c.setMask)
}

func (c *Cache) set(addr uint64) []line {
	s := c.SetIndex(addr)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// tag extracts the tag bits above the set index. sets is a power of two, so
// the division the formula calls for is a shift.
func (c *Cache) tag(addr uint64) uint64 {
	return addr >> (c.lineBits + c.setBits)
}

// Probe reports whether addr's line is present, without touching any state
// or statistics. Defense logic calls it on every suspect access decision,
// so the set is resolved once up front rather than per way.
func (c *Cache) Probe(addr uint64) bool {
	tag := c.tag(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Access looks up addr, counting the access. If the line is present it
// returns true, refreshing LRU metadata only when touch is true (touch=false
// models the §VII.A no-update / delayed-update paths). Missing lines are NOT
// refilled; callers decide whether the miss may refill (Refill) — that
// decision is the entire point of Conditional Speculation.
func (c *Cache) Access(addr uint64, touch bool) bool {
	c.Stats.Accesses++
	tag := c.tag(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.Stats.Hits++
			if touch {
				c.touchWay(c.SetIndex(addr), i)
			}
			return true
		}
	}
	c.Stats.Misses++
	return false
}

// Touch refreshes LRU state for addr if present (the deferred half of the
// delayed-update policy). It does not count as an access.
func (c *Cache) Touch(addr uint64) {
	tag := c.tag(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.touchWay(c.SetIndex(addr), i)
			return
		}
	}
}

// Refill inserts addr's line, evicting the LRU way if the set is full.
// It returns the evicted line's base address when an eviction happened.
// Refilling an already-present line just refreshes its LRU state.
func (c *Cache) Refill(addr uint64) (evicted uint64, didEvict bool) {
	tag := c.tag(addr)
	setIdx := c.SetIndex(addr)
	set := c.set(addr)
	victim := -1
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.touchWay(setIdx, i) // already present
			return 0, false
		}
		if !set[i].valid && victim < 0 {
			victim = i
		}
	}
	if victim < 0 {
		victim = c.victimWay(setIdx)
	}
	c.Stats.Refills++
	if set[victim].valid {
		c.Stats.Evictions++
		evicted = c.lineBase(addr, set[victim].tag)
		didEvict = true
	}
	c.clock++
	set[victim] = line{tag: tag, valid: true, lru: c.clock}
	c.dirty[setIdx>>6] |= 1 << (setIdx & 63)
	c.touchWay(setIdx, victim)
	return evicted, didEvict
}

// lineBase reconstructs a line base address from a tag and the set index of
// a probe address mapping to the same set.
func (c *Cache) lineBase(probeAddr, tag uint64) uint64 {
	set := uint64(c.SetIndex(probeAddr))
	return (tag*uint64(c.sets) + set) << c.lineBits
}

// Flush invalidates addr's line if present, returning whether it was.
func (c *Cache) Flush(addr uint64) bool {
	tag := c.tag(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].valid = false
			c.Stats.Flushes++
			return true
		}
	}
	return false
}

// InvalidateAll empties the cache (used between experiment phases).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
}

// Resident returns how many valid lines the cache currently holds.
func (c *Cache) Resident() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}
