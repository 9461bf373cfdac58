// Package ras holds the reliability/availability/serviceability hooks
// of paper §2.7 that the simulator runs: memory mirroring, the failover
// target for uncorrectable ECC errors and for the homes of a
// fail-stopped node. Protocol error recovery (timed-out TSRF entries
// handed to recovery software) lives in the fault injector and the
// protocol engines.
package ras

import "piranha/internal/sim"

// Failover is the memory-mirroring escalation target for uncorrectable
// ECC errors (paper §2.7): a line whose SECDED decode reports a double
// error is re-fetched from the mirror node instead of killing the run.
// It is deliberately tiny — just the mirror-read latency and a counter —
// so the fault engine can hold it behind a plain function hook without
// the core package importing ras.
type Failover struct {
	// MirrorLatency is the extra time a mirror-served read pays (the
	// protocol engine forwards the request to the mirror node).
	MirrorLatency sim.Time

	// Failovers counts uncorrectable errors served from the mirror.
	Failovers uint64

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

// Uncorrectable handles one uncorrectable memory error at time now,
// returning the mirror-read latency and recovered=true. The nil receiver
// declines (no mirror configured).
func (f *Failover) Uncorrectable(now sim.Time) (extra sim.Time, recovered bool) {
	if f == nil {
		return 0, false
	}
	_ = now
	f.Failovers++
	return f.MirrorLatency, true
}

// Takeover records the mirror adopting n directory-resident lines from
// a dead home node after a fail-stop. The nil receiver declines.
func (f *Failover) Takeover(n int) {
	if f == nil || n <= 0 {
		return
	}
	f.Adopted += uint64(n)
}
