// Package l1 models Piranha's first-level caches (paper §2.1): per-core
// 64 KB two-way set-associative blocking instruction and data caches with
// single-cycle hit latency, a 2-bit MESI state per line, 256-entry 4-way
// TLBs, and (data cache only) a store buffer. The instruction cache is
// kept hardware-coherent and uses virtually the same design as the data
// cache, which is what lets the L2 treat both uniformly under the
// no-inclusion policy.
package l1

import (
	"piranha/internal/cache"
	"piranha/internal/sim"
)

// Kind distinguishes instruction from data caches.
type Kind uint8

// Cache kinds.
const (
	Instruction Kind = iota
	Data
)

func (k Kind) String() string {
	if k == Instruction {
		return "iL1"
	}
	return "dL1"
}

// Config describes an L1 module.
type Config struct {
	SizeBytes  int
	Ways       int
	TLBEntries int
	TLBWays    int
	// StoreBufEntries is the store buffer depth (data cache only).
	StoreBufEntries int
	// HitCycles is the access latency in core cycles (1 for Piranha).
	HitCycles int
}

// DefaultConfig is the prototype's 64 KB 2-way L1 with a 256-entry TLB.
func DefaultConfig() Config {
	return Config{
		SizeBytes:       64 << 10,
		Ways:            2,
		TLBEntries:      256,
		TLBWays:         4,
		StoreBufEntries: 8,
		HitCycles:       1,
	}
}

// Cache is one L1 module. It is a functional tag/state array; its
// controller-side timing (miss handling) is driven by the L2 bank.
type Cache struct {
	Kind Kind
	// CPU is the index of the core this module serves.
	CPU int
	// ID is the chip-wide L1 index (0..15: dL1s even, iL1s odd, or any
	// scheme the chip chooses); the L2 duplicate tags key on it.
	ID int

	cfg Config
	arr *cache.Cache
	TLB *cache.TLB
	SB  *sim.Pool // store buffer occupancy (nil for iL1)
}

// New returns an empty L1 module.
func New(kind Kind, cpu, id int, cfg Config) *Cache {
	c := &Cache{
		Kind: kind,
		CPU:  cpu,
		ID:   id,
		cfg:  cfg,
		arr: cache.New(cache.Config{
			SizeBytes: cfg.SizeBytes,
			Ways:      cfg.Ways,
			Replace:   cache.LRU,
		}),
		TLB: cache.NewTLB(cfg.TLBEntries, cfg.TLBWays),
	}
	if kind == Data {
		c.SB = sim.NewPool("storebuf", cfg.StoreBufEntries)
	}
	return c
}

// Config returns the module configuration.
func (c *Cache) Config() Config { return c.cfg }

// Probe performs a lookup for a load/fetch/store and returns the line's
// state (Invalid on miss) plus whether the TLB hit (a TLB miss costs a
// PAL-handled refill charged by the chip).
//
//piranha:hotpath
func (c *Cache) Probe(a cache.Addr) (cache.MESI, bool) {
	tlbHit := c.TLB.Access(a)
	return c.arr.Probe(a.Line()), tlbHit
}

// State returns the current MESI state of the line without touching
// recency.
//
//piranha:hotpath
func (c *Cache) State(l cache.LineAddr) cache.MESI { return c.arr.State(l) }

// Fill installs a line in the given state and returns the displaced
// victim, if any. The caller (the L2 bank, which owns the duplicate tags)
// must process the victim.
func (c *Cache) Fill(l cache.LineAddr, st cache.MESI) (victim cache.Line) {
	return c.arr.Insert(l, st)
}

// SetState rewrites the state of a resident line (e.g. S->M on upgrade).
func (c *Cache) SetState(l cache.LineAddr, st cache.MESI) { c.arr.SetState(l, st) }

// Invalidate drops the line, returning its prior state.
func (c *Cache) Invalidate(l cache.LineAddr) cache.MESI {
	return c.arr.Invalidate(l).State
}

// Downgrade moves an E/M line to S, returning the prior state.
func (c *Cache) Downgrade(l cache.LineAddr) cache.MESI {
	return c.arr.Downgrade(l)
}

// Contents returns the valid lines (tests).
func (c *Cache) Contents() []cache.Line { return c.arr.Contents() }

// Range calls f with each valid line until f returns false
// (duplicate-tag invariants; see cache.Cache.Range).
func (c *Cache) Range(f func(cache.Line) bool) { c.arr.Range(f) }
