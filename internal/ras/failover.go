// Package ras holds the reliability/availability/serviceability hooks
// of paper §2.7 that the simulator runs: the memory mirror that takes
// over the homes of a fail-stopped node. Double-bit ECC errors fail over
// to the mirror inside the fault injector (fault.Plan.Mirrored);
// protocol error recovery (timed-out TSRF entries handed to recovery
// software) lives in the fault injector and the protocol engines.
package ras

import "piranha/internal/sim"

// Failover is the memory-mirroring target for the homes of a
// fail-stopped node (paper §2.7). It is deliberately tiny — the
// mirror-read latency and a counter — so the fault engine can hold it
// behind a plain function hook without the core package importing ras.
type Failover struct {
	// MirrorLatency is the extra time a mirror-served read pays (the
	// protocol engine forwards the request to the mirror node).
	MirrorLatency sim.Time

	// Adopted counts directory-resident lines of fail-stopped homes this
	// mirror has taken over (the whole dead home fails over, not just
	// one uncorrectable line).
	Adopted uint64
}

// NewFailover returns a failover target; latency <= 0 selects the
// default 120 ns mirror-read cost.
func NewFailover(latency sim.Time) *Failover {
	if latency <= 0 {
		latency = 120 * sim.Nanosecond
	}
	return &Failover{MirrorLatency: latency}
}

// Takeover records the mirror adopting n directory-resident lines from
// a dead home node after a fail-stop. The nil receiver declines.
func (f *Failover) Takeover(n int) {
	if f == nil || n <= 0 {
		return
	}
	f.Adopted += uint64(n)
}
