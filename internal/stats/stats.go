// Package stats collects and renders the metrics the Piranha paper reports:
// execution-time breakdowns (CPU busy / L2-hit stall / L2-miss stall),
// L1-miss service breakdowns (L2 hit / L2 forward / L2 miss), throughput,
// and generic counters. Rendering produces the ASCII tables
// and bar charts used by cmd/figures to regenerate the paper's figures.
package stats

import (
	"fmt"
	"strings"

	"piranha/internal/sim"
)

// Counter is a named monotonically-increasing event count.
type Counter struct {
	Name  string
	Value uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.Value += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Value++ }

// Set is an ordered collection of named counters.
type Set struct {
	order    []string
	counters map[string]*Counter
}

// NewSet returns an empty counter set.
func NewSet() *Set {
	return &Set{counters: make(map[string]*Counter)}
}

// Get returns the counter with the given name, creating it if needed.
//
//piranha:hotpath
func (s *Set) Get(name string) *Counter {
	if c, ok := s.counters[name]; ok {
		return c
	}
	c := &Counter{Name: name}
	s.counters[name] = c
	s.order = append(s.order, name)
	return c
}

// Reset zeroes every counter in place, keeping the map and order slice
// so a set can be reused across warm/measure phases without the
// unbounded reallocation Get would otherwise cause per run.
func (s *Set) Reset() {
	for _, c := range s.counters {
		c.Value = 0
	}
}

// Value returns the current value of a counter (zero if absent).
func (s *Set) Value(name string) uint64 {
	if c, ok := s.counters[name]; ok {
		return c.Value
	}
	return 0
}

// Names returns counter names in creation order.
func (s *Set) Names() []string { return append([]string(nil), s.order...) }

// String renders the set one counter per line.
func (s *Set) String() string {
	var b strings.Builder
	for _, n := range s.order {
		fmt.Fprintf(&b, "%-32s %12d\n", n, s.counters[n].Value)
	}
	return b.String()
}

// Breakdown is the paper's Figure-5-style decomposition of execution time.
type Breakdown struct {
	CPUBusy    sim.Time // instruction execution (and L1 hits)
	L2HitStall sim.Time // stalls served by L2 hit or L2 forward to another L1
	L2Miss     sim.Time // stalls served by memory (local or remote)
	Other      sim.Time // scheduling, idle, I/O wait
}

// Total returns the sum of all components.
func (b Breakdown) Total() sim.Time {
	return b.CPUBusy + b.L2HitStall + b.L2Miss + b.Other
}

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.CPUBusy += o.CPUBusy
	b.L2HitStall += o.L2HitStall
	b.L2Miss += o.L2Miss
	b.Other += o.Other
}

// Normalized returns each component as a fraction of reference time ref.
func (b Breakdown) Normalized(ref sim.Time) (busy, l2hit, l2miss, other float64) {
	if ref == 0 {
		return
	}
	f := func(t sim.Time) float64 { return float64(t) / float64(ref) }
	return f(b.CPUBusy), f(b.L2HitStall), f(b.L2Miss), f(b.Other)
}

// MissBreakdown is the paper's Figure-6(b) decomposition of L1 misses by
// where they were served.
type MissBreakdown struct {
	L2Hit  uint64 // served by the shared L2
	L2Fwd  uint64 // forwarded to another on-chip L1
	L2Miss uint64 // served by memory (or a remote node)
}

// Total returns the total number of L1 misses.
func (m MissBreakdown) Total() uint64 { return m.L2Hit + m.L2Fwd + m.L2Miss }

// Fractions returns each component as a fraction of the total.
func (m MissBreakdown) Fractions() (hit, fwd, miss float64) {
	t := m.Total()
	if t == 0 {
		return
	}
	return float64(m.L2Hit) / float64(t), float64(m.L2Fwd) / float64(t), float64(m.L2Miss) / float64(t)
}
