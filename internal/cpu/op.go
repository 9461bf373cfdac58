// Package cpu provides the processor timing models: Piranha's single-issue
// in-order eight-stage core (paper §2.1) and the aggressive next-generation
// out-of-order core used as the comparison point (§3.3, the OOO and INO
// configurations of Table 1).
//
// Cores consume a stream of architectural operations (compute runs,
// instruction fetches, loads, stores, write hints) produced by the
// workload generators (internal/workload), and charge time against the
// memory system they are attached to. Stall time is attributed to the paper's Figure-5
// buckets by where each miss was serviced.
package cpu

import (
	"piranha/internal/cache"
	"piranha/internal/l2"
	"piranha/internal/sim"
)

// OpKind classifies one element of an op stream.
type OpKind uint8

// Op kinds.
const (
	// KCompute executes N instructions with no memory operands.
	KCompute OpKind = iota
	// KIFetch touches an instruction-cache line (issued by the stream
	// at basic-block boundaries; sequential fetch within a line is
	// folded into KCompute).
	KIFetch
	// KLoad reads Addr through the data cache.
	KLoad
	// KStore writes Addr through the data cache.
	KStore
	// KStoreHint is the Alpha wh64 write hint: exclusivity without
	// data, off the critical path.
	KStoreHint
	// KIO blocks the process (log write, disk read); handled by the
	// kernel, not the core.
	KIO
	// KTxMark marks a completed transaction (throughput accounting).
	KTxMark
)

// Op is one element of an op stream. Kind and Dep share the word that
// N completes, so an Op is three words (24 bytes) rather than four.
type Op struct {
	Kind OpKind
	// Dep marks a load as data-dependent on the previous load (pointer
	// chasing); dependent loads cannot overlap in the OOO core.
	Dep bool
	// N is the instruction count for KCompute.
	N int32
	// Addr is the target of memory ops.
	Addr cache.Addr
	// IODelay is the device latency for KIO.
	IODelay sim.Time
}

// AccessKind is the memory-system request type a core issues.
type AccessKind uint8

// Access kinds.
const (
	Fetch AccessKind = iota
	Load
	Store
	StoreHint
)

// MemSystem is what a core talks to: the chip (internal/core) implements
// it with the L1s, the intra-chip switch, the shared L2 and the protocol
// engines behind it.
type MemSystem interface {
	// Access performs one reference for the given CPU and returns the
	// completion time plus the service class for stall attribution.
	Access(now sim.Time, cpuID int, kind AccessKind, a cache.Addr) (sim.Time, l2.Svc)
}
