// Package cache provides the generic set-associative cache structures,
// addresses, and MESI states shared by the L1 and L2 models (paper §2.1,
// §2.3). Caches here are functional: they track tags and states exactly;
// timing lives with their controllers.
package cache

import "fmt"

// LineBytes is the coherence granularity throughout the system.
const LineBytes = 64

// LineShift is log2(LineBytes).
const LineShift = 6

// Addr is a physical byte address.
type Addr uint64

// Line returns the cache-line address containing a.
func (a Addr) Line() LineAddr { return LineAddr(a >> LineShift) }

// LineAddr is a cache-line-granularity address (Addr >> 6).
type LineAddr uint64

// Addr returns the first byte address of the line.
func (l LineAddr) Addr() Addr { return Addr(l) << LineShift }

// MESI is the four-state invalidation protocol state kept in the 2-bit
// state field of every L1 line.
type MESI uint8

// MESI states.
const (
	Invalid MESI = iota
	Shared
	Exclusive
	Modified
)

func (s MESI) String() string {
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
	return "?"
}

// Valid reports whether the state holds data.
func (s MESI) Valid() bool { return s != Invalid }

// CanWrite reports whether a store may proceed without an upgrade.
func (s MESI) CanWrite() bool { return s == Exclusive || s == Modified }

// ReplacePolicy selects a victim way within a set.
type ReplacePolicy uint8

// Replacement policies.
const (
	// LRU replaces the least-recently-used way (used by the L1s).
	LRU ReplacePolicy = iota
	// RoundRobin replaces ways cyclically ("least-recently-loaded",
	// used by the L2 banks when no invalid way is available).
	RoundRobin
)

// Line is one cache line's tag and state, the value Insert, Invalidate
// and Contents return.
type Line struct {
	Tag   LineAddr // the full line address (valid only when State != Invalid)
	State MESI
}

// way packs a line into one word, tag<<2 | MESI. Line addresses stay
// below 2^58, so the tag fits; a way with zero state bits is invalid.
func way(l LineAddr, s MESI) uint64 { return uint64(l)<<2 | uint64(s) }

func wayLine(w uint64) Line { return Line{Tag: LineAddr(w >> 2), State: MESI(w & 3)} }

// Config describes a cache's geometry.
type Config struct {
	SizeBytes int
	Ways      int
	// IndexShift skips low line-address bits when computing the set
	// index (the L2 banks skip the 3 bank-select bits).
	IndexShift uint
	Replace    ReplacePolicy
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / LineBytes / c.Ways }

// Cache is a set-associative array of ways, one word each (see way), set
// by set in one flat array: an 8-way set is one 64-byte host line. LRU
// caches keep recency stamps in a parallel array, round-robin caches a
// victim pointer per set.
type Cache struct {
	cfg   Config
	ways  []uint64 // set s occupies ways[s*assoc : (s+1)*assoc]
	used  []uint64 // LRU stamp per way (LRU only)
	rrPtr []int    // next victim per set (RoundRobin only)
	assoc int
	mask  uint64 // set count - 1
	tick  uint64
}

// New returns an empty cache with the given geometry.
func New(cfg Config) *Cache {
	n := cfg.Sets()
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a positive power of two", n))
	}
	c := &Cache{cfg: cfg, ways: make([]uint64, n*cfg.Ways), assoc: cfg.Ways, mask: uint64(n - 1)}
	if cfg.Replace == RoundRobin {
		c.rrPtr = make([]int, n)
	} else {
		c.used = make([]uint64, n*cfg.Ways)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setIndex(l LineAddr) int {
	return int(uint64(l) >> c.cfg.IndexShift & c.mask)
}

// find returns the index of the way holding l, or -1.
//
//piranha:hotpath
func (c *Cache) find(l LineAddr) int {
	base := c.setIndex(l) * c.assoc
	key := uint64(l) << 2
	for i, w := range c.ways[base : base+c.assoc] {
		if x := w ^ key; x != 0 && x < 4 { // same tag, valid state
			return base + i
		}
	}
	return -1
}

// State returns line l's state, Invalid when absent. It does not update
// recency; callers that model an access should use Probe.
//
//piranha:hotpath
func (c *Cache) State(l LineAddr) MESI {
	if i := c.find(l); i >= 0 {
		return MESI(c.ways[i] & 3)
	}
	return Invalid
}

// Has reports whether line l is resident.
//
//piranha:hotpath
func (c *Cache) Has(l LineAddr) bool { return c.find(l) >= 0 }

// Probe performs an access: on a hit it updates recency and returns the
// line's state; on a miss it returns Invalid.
//
//piranha:hotpath
func (c *Cache) Probe(l LineAddr) MESI {
	i := c.find(l)
	if i < 0 {
		return Invalid
	}
	c.tick++
	if c.used != nil {
		c.used[i] = c.tick
	}
	return MESI(c.ways[i] & 3)
}

// SetState rewrites the state of line l if it is resident.
//
//piranha:hotpath
func (c *Cache) SetState(l LineAddr, s MESI) {
	if i := c.find(l); i >= 0 {
		c.ways[i] = way(l, s)
	}
}

// Insert fills line l with the given state, selecting a victim when the
// set is full. It returns the evicted line (State != Invalid only when a
// valid line was displaced).
func (c *Cache) Insert(l LineAddr, state MESI) (victim Line) {
	if state == Invalid {
		panic("cache: inserting invalid line")
	}
	si := c.setIndex(l)
	base := si * c.assoc
	// Reuse the line's way if present (state change), else an invalid way.
	i := c.find(l)
	if i < 0 {
		for j := base; j < base+c.assoc; j++ {
			if c.ways[j]&3 == 0 {
				i = j
				break
			}
		}
	}
	if i < 0 {
		switch c.cfg.Replace {
		case RoundRobin:
			i = base + c.rrPtr[si]
			c.rrPtr[si] = (c.rrPtr[si] + 1) % c.assoc
		default: // LRU: the oldest stamp, ties to the lowest way
			i = base
			for j := base + 1; j < base+c.assoc; j++ {
				if c.used[j] < c.used[i] {
					i = j
				}
			}
		}
		victim = wayLine(c.ways[i])
	}
	c.tick++
	c.ways[i] = way(l, state)
	if c.used != nil {
		c.used[i] = c.tick
	}
	return victim
}

// Invalidate removes line l if present and returns its prior contents.
func (c *Cache) Invalidate(l LineAddr) (old Line) {
	if i := c.find(l); i >= 0 {
		old = wayLine(c.ways[i])
		c.ways[i] = 0
	}
	return old
}

// Downgrade moves line l to Shared if present in E/M, returning the prior
// state.
func (c *Cache) Downgrade(l LineAddr) MESI {
	i := c.find(l)
	if i < 0 {
		return Invalid
	}
	prev := MESI(c.ways[i] & 3)
	if prev.CanWrite() {
		c.ways[i] = way(l, Shared)
	}
	return prev
}

// Range calls f with each valid line, in array order (set by set, way
// by way), until f returns false.
func (c *Cache) Range(f func(Line) bool) {
	for _, w := range c.ways {
		if w&3 != 0 && !f(wayLine(w)) {
			return
		}
	}
}

// Contents returns all valid lines (for invariant checks in tests).
func (c *Cache) Contents() (out []Line) {
	c.Range(func(ln Line) bool { out = append(out, ln); return true })
	return out
}

// CountValid returns the number of valid lines.
func (c *Cache) CountValid() int {
	n := 0
	for _, w := range c.ways {
		if w&3 != 0 {
			n++
		}
	}
	return n
}
