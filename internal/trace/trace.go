// Package trace is the simulator-wide event-tracing subsystem: the
// observability layer behind the paper's evaluation (§4–§5), which slices
// execution time and L1-miss service per component. Every timing model on
// the hot path — cpu pipeline stalls, l1 miss issue/fill, l2 bank access
// and ownership decisions, protocol-engine home/remote transaction
// lifetimes, interconnect hops (inter-chip network and intra-chip
// switch), and memory-controller page hits/misses — records value-typed
// span or instant events into a per-run ring buffer.
//
// Design constraints, in priority order:
//
//   - Zero overhead when disabled. All recording methods are nil-safe:
//     components hold a possibly-nil *Tracer and call it unconditionally;
//     a nil receiver returns immediately with no allocation, so the
//     default (untraced) hot path is unchanged.
//   - Determinism. Events carry only simulated timestamps (sim.Time
//     picoseconds) and are recorded in engine execution order, which is
//     deterministic per run. Because every experiment owns a private
//     tracer, the byte stream exported from a RunBatch worker is
//     identical to the serial run's.
//   - Bounded memory. The ring buffer keeps the most recent Capacity
//     events; Dropped reports how many were overwritten. Counts (a
//     stats.Set keyed by "component.kind") cover *all* events including
//     dropped ones, and the set is Reset — not reallocated — between the
//     warm and measure phases.
//
// Export is Chrome trace-event JSON (chrome.go), loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
package trace

import (
	"piranha/internal/sim"
	"piranha/internal/stats"
)

// Component identifies the hardware layer that recorded an event.
type Component uint8

// Components, ordered roughly requester-to-memory.
const (
	CPU    Component = iota // core pipelines
	L1                      // per-core I/D caches
	L2                      // shared L2 banks / intra-chip coherence
	PE                      // protocol engines (home/remote transactions)
	NOC                     // interconnect: inter-chip hops and the ICS
	Mem                     // memory controllers / Rambus channels
	Kernel                  // OS model: scheduling, idle
	nComponents
)

func (c Component) String() string { return componentNames[c] }

var componentNames = [nComponents]string{
	"cpu", "l1", "l2", "pe", "noc", "mem", "kernel",
}

// Kind says what happened. Kinds are global (not per component) so an
// Event stays a flat value type.
type Kind uint8

// Event kinds.
const (
	// KStall is a cpu pipeline stall span; Arg is the l2.Svc class that
	// serviced the blocking access.
	KStall Kind = iota
	// KMissFetch/KMissLoad/KMissStore are L1 miss spans from issue to
	// fill; Arg is the l2.Svc service class.
	KMissFetch
	KMissLoad
	KMissStore
	// KL2Hit/KL2Fwd/KL2MissLocal/KL2MissRemote are L2 bank access spans
	// classified by where the request was serviced; Arg is the l2.Svc.
	KL2Hit
	KL2Fwd
	KL2MissLocal
	KL2MissRemote
	// KL2Owner is an instant marking an ownership decision: the
	// duplicate-tag owner of the line changed; Arg is the new owner L1
	// ID (or ^0 for the L2 itself).
	KL2Owner
	// KHomeTx/KRemoteTx are protocol-engine transaction lifetimes. For
	// single-chip systems KHomeTx covers the home-side service of an L2
	// miss (directory interpretation + memory), which the L2 controller
	// performs inline.
	KHomeTx
	KRemoteTx
	// KHop is one inter-chip message: injection to delivery; Arg is the
	// destination node.
	KHop
	// KICS is one intra-chip switch transfer; Unit is the lane.
	KICS
	// KPageHit/KPageMiss are memory reads split by the open-page policy
	// outcome; KMemWrite is a (posted) write.
	KPageHit
	KPageMiss
	KMemWrite
	// KCtxSwitch is a kernel context switch instant; KIdle a span with
	// no runnable process on the CPU.
	KCtxSwitch
	KIdle
	// KFaultOnset/KFaultDetect/KFaultRecover are the fail-stop timeline
	// instants: the node dies, the survivors notice, and degraded-mode
	// capacity is restored. Node is the dead chip; Arg on KFaultRecover
	// is the MTTR in nanoseconds, so a failure's latency wake lines up
	// with its recovery cost in the Perfetto view.
	KFaultOnset
	KFaultDetect
	KFaultRecover
	nKinds
)

func (k Kind) String() string { return kindNames[k] }

var kindNames = [nKinds]string{
	"stall",
	"fetch-miss", "load-miss", "store-miss",
	"hit", "fwd", "miss-local", "miss-remote", "owner",
	"home-tx", "remote-tx",
	"hop", "ics",
	"page-hit", "page-miss", "write",
	"ctx-switch", "idle",
	"fault-onset", "fault-detect", "fault-recover",
}

// componentOf maps each kind to its canonical component (used for name
// tables; the recording site passes the component explicitly).
var componentOf = [nKinds]Component{
	CPU,
	L1, L1, L1,
	L2, L2, L2, L2, L2,
	PE, PE,
	NOC, NOC,
	Mem, Mem, Mem,
	Kernel, Kernel,
	Kernel, Kernel, Kernel,
}

// spanNames precomputes "component.kind" so counting costs no
// allocation on the traced hot path.
var spanNames [nComponents][nKinds]string

func init() {
	for c := Component(0); c < nComponents; c++ {
		for k := Kind(0); k < nKinds; k++ {
			spanNames[c][k] = componentNames[c] + "." + kindNames[k]
		}
	}
}

// Name returns the canonical "component.kind" label for a kind.
func Name(c Component, k Kind) string { return spanNames[c][k] }

// Event is one recorded span (Start < End) or instant (Start == End).
// It is a flat value type — recording moves 40 bytes into a
// preallocated ring slot, never the heap.
type Event struct {
	Start sim.Time
	End   sim.Time
	Addr  uint64
	Arg   uint32 // kind-specific: service class, destination node, owner
	Unit  int16  // component-local unit: cpu, L1 ID, bank, lane
	Node  uint8  // chip/node index
	Comp  Component
	Kind  Kind
}

// DefaultCapacity is the ring size used when New is passed n <= 0:
// enough for the full measurement phase of a quick-scale run and a
// bounded tail of a paper-scale one.
const DefaultCapacity = 1 << 16

// Tracer records events for one simulation run. The zero *Tracer (nil)
// is the disabled tracer: every method is a nil-safe no-op, which
// TestNilTracerIsNoOp checks for every exported method.
type Tracer struct {
	buf    []Event
	total  uint64 // events ever recorded (ring wraps past len(buf))
	counts *stats.Set
}

// New returns a tracer with the given ring capacity (n <= 0 selects
// DefaultCapacity). All memory is allocated up front; recording never
// allocates.
func New(n int) *Tracer {
	if n <= 0 {
		n = DefaultCapacity
	}
	return &Tracer{buf: make([]Event, n), counts: stats.NewSet()}
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Span records a [start, end) span event.
//
//piranha:hotpath
func (t *Tracer) Span(c Component, k Kind, node uint8, unit int16, addr uint64, start, end sim.Time, arg uint32) {
	if t == nil {
		return
	}
	t.buf[t.total%uint64(len(t.buf))] = Event{
		Start: start, End: end, Addr: addr,
		Arg: arg, Unit: unit, Node: node, Comp: c, Kind: k,
	}
	t.total++
	t.counts.Get(spanNames[c][k]).Inc()
}

// Instant records a zero-duration event.
//
//piranha:hotpath
func (t *Tracer) Instant(c Component, k Kind, node uint8, unit int16, addr uint64, at sim.Time, arg uint32) {
	if t == nil {
		return
	}
	t.Span(c, k, node, unit, addr, at, at, arg)
}

// Len returns the number of events currently held in the ring.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.total < uint64(len(t.buf)) {
		return int(t.total)
	}
	return len(t.buf)
}

// Total returns the number of events ever recorded (including dropped).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Dropped returns how many events the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil || t.total <= uint64(len(t.buf)) {
		return 0
	}
	return t.total - uint64(len(t.buf))
}

// Events appends the retained events in recording order to dst and
// returns it. When the ring has wrapped, the oldest retained event
// comes first.
func (t *Tracer) Events(dst []Event) []Event {
	if t == nil {
		return dst
	}
	n := uint64(len(t.buf))
	if t.total <= n {
		return append(dst, t.buf[:t.total]...)
	}
	head := t.total % n
	dst = append(dst, t.buf[head:]...)
	return append(dst, t.buf[:head]...)
}

// Counts returns the per-"component.kind" event counts, covering every
// event recorded since the last Reset (dropped ring entries included).
func (t *Tracer) Counts() *stats.Set {
	if t == nil {
		return nil
	}
	return t.counts
}

// Reset discards all recorded events and zeroes the counts, reusing the
// ring and the counter set's storage. core.Run calls it at the
// warm/measure boundary so the exported trace covers exactly the
// measured phase.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.total = 0
	t.counts.Reset()
}
