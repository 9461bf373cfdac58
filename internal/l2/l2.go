// Package l2 implements Piranha's shared second-level cache (paper §2.3):
// a 1 MB unified cache physically partitioned into eight banks interleaved
// on the low line-address bits, each 8-way with round-robin replacement,
// logically shared by all on-chip CPUs.
//
// The defining property is **non-inclusion**. The aggregate L1 capacity
// (1 MB) equals the L2 capacity, so enforcing inclusion could waste the
// entire L2 on duplicates. Instead:
//
//   - L1 misses that also miss in the L2 are filled directly from memory
//     *without* allocating an L2 line; the L2 behaves as a large victim
//     cache filled only by L1 replacements.
//   - Each bank keeps a duplicate copy of the L1 tags and states for the
//     lines that interleave to it, extended with an ownership notion: the
//     owner of a line is the L2 (when it holds a valid copy), the L1 with
//     an exclusive copy, or — among multiple sharers — the last requester.
//     Only the owner writes data back on replacement, so even clean L1
//     victims write back to the L2 exactly once.
//   - The L2 controllers enforce intra-chip coherence like a full-map
//     centralized directory: on every access the duplicate L1 tags and the
//     L2 tags are checked in parallel, and requests are serviced by the
//     L2, forwarded to an owning L1, sent to the protocol engines, or sent
//     to memory. The intra-chip switch's ordering lets on-chip
//     invalidations complete without acknowledgments.
//
// The bank also partially interprets the inter-node directory (cached in
// its line bookkeeping) so that most local L1 requests avoid the protocol
// engines entirely.
package l2

import (
	"fmt"
	"math/bits"

	"piranha/internal/cache"
	"piranha/internal/ics"
	"piranha/internal/l1"
	"piranha/internal/linemap"
	"piranha/internal/sim"
	"piranha/internal/trace"
)

// Kind is the request type an L1 issues to the L2.
type Kind uint8

// Request kinds.
const (
	// Read requests a shared (or clean-exclusive) copy.
	Read Kind = iota
	// ReadEx requests an exclusive copy with data (store miss).
	ReadEx
	// Upgrade requests exclusivity for a line already held Shared.
	Upgrade
	// ReadExNoData requests exclusivity without data (the Alpha wh64
	// write-hint: the whole line will be overwritten).
	ReadExNoData
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case ReadEx:
		return "read-ex"
	case Upgrade:
		return "upgrade"
	case ReadExNoData:
		return "read-ex-nodata"
	}
	return "?"
}

// Svc says where a request was ultimately serviced; the CPU models use it
// to attribute stall time exactly as the paper's Figure 5/6 breakdowns do.
type Svc uint8

// Service classes.
const (
	SvcL1 Svc = iota // L1 hit (reported by the chip, not the L2)
	SvcL2Hit
	SvcL2Fwd       // forwarded to another on-chip L1
	SvcLocalMem    // home-local memory access
	SvcRemote      // remote home, clean
	SvcRemoteDirty // remote owner supplied the data
)

func (s Svc) String() string {
	switch s {
	case SvcL1:
		return "L1"
	case SvcL2Hit:
		return "L2-hit"
	case SvcL2Fwd:
		return "L2-fwd"
	case SvcLocalMem:
		return "local-mem"
	case SvcRemote:
		return "remote"
	case SvcRemoteDirty:
		return "remote-dirty"
	}
	return "?"
}

// RemoteState is the bank's partial interpretation of the inter-node
// directory for a home-local line.
type RemoteState uint8

// Partial directory states.
const (
	RemoteNone RemoteState = iota
	RemoteShared
	RemoteExclusive
)

// Memory is the per-bank memory channel the L2 controller drives.
type Memory interface {
	Read(now sim.Time, a cache.Addr) (critical, full sim.Time)
	Write(now sim.Time, a cache.Addr) (done sim.Time)
}

// Remote is the protocol-engine side of the world. Single-chip systems
// plug in LocalOnly; multi-chip systems plug in the pe package's engines.
type Remote interface {
	// HomeIsLocal reports whether the line's home memory is this chip.
	HomeIsLocal(l cache.LineAddr) bool
	// LocalDirState returns the remote sharing state of a home-local
	// line (read together with the data from the ECC bits in memory).
	LocalDirState(l cache.LineAddr) RemoteState
	// Fetch services a transaction that must leave the chip: a miss to
	// a remote home, a home-local line owned exclusively by a remote
	// node, or an upgrade of a remote-homed shared line (kind Upgrade,
	// no data transfer). It returns the data-arrival time, the service
	// class, and whether system-wide exclusivity was granted (true for
	// writes; true for reads only when no other node holds a copy —
	// the clean-exclusive optimization).
	Fetch(now sim.Time, kind Kind, l cache.LineAddr) (done sim.Time, svc Svc, exclusive bool)
	// Invalidate invalidates all remote sharers of a home-local line
	// and returns when the acknowledgments have been gathered.
	Invalidate(now sim.Time, l cache.LineAddr) sim.Time
	// Writeback sends a dirty remotely-homed line back to its home
	// when the L2 replaces it with no L1 copies left.
	Writeback(now sim.Time, l cache.LineAddr)
}

// LocalOnly is the Remote implementation for single-chip systems:
// every line is home-local and never remotely shared.
type LocalOnly struct{}

// HomeIsLocal always reports true for a single-chip system.
func (LocalOnly) HomeIsLocal(cache.LineAddr) bool { return true }

// LocalDirState always reports no remote sharers.
func (LocalOnly) LocalDirState(cache.LineAddr) RemoteState { return RemoteNone }

// Fetch panics: a single-chip system never leaves the chip.
func (LocalOnly) Fetch(sim.Time, Kind, cache.LineAddr) (sim.Time, Svc, bool) {
	panic("l2: remote fetch on a single-chip system")
}

// Invalidate is a no-op with no remote sharers.
func (LocalOnly) Invalidate(now sim.Time, _ cache.LineAddr) sim.Time { return now }

// Writeback panics: a single-chip system has no remotely-homed lines.
func (LocalOnly) Writeback(sim.Time, cache.LineAddr) {
	panic("l2: remote writeback on a single-chip system")
}

// Config describes the chip's L2 and its latency parameters (Table 1).
type Config struct {
	Banks     int
	SizeBytes int // total across banks
	Ways      int

	// End-to-end load-to-use latencies seen by a CPU (Table 1).
	HitLatency sim.Time // request serviced by the L2 bank
	FwdLatency sim.Time // request forwarded to an owning L1
	// MemOverhead is the controller/ICS time added on top of the
	// memory channel's latency for L2->memory fills (Table 1's 80 ns
	// local latency minus the ~60 ns RDRAM access).
	MemOverhead sim.Time

	// BankCycles is the bank-controller occupancy per request, in
	// core-clock cycles.
	BankCycles int
	// PendEntries bounds concurrent outstanding transactions per bank.
	PendEntries int

	// Inclusive switches the L2 to a conventional inclusive design
	// (the ablation baseline for the paper's no-inclusion choice):
	// memory fills also allocate in the L2, and evicting an L2 line
	// back-invalidates any L1 copies. With 1 MB of aggregate L1s over
	// a 1 MB L2 this wastes most of the L2 on duplicates — the
	// paper's §2.3 argument.
	Inclusive bool
}

// DefaultConfig returns the prototype L2: 1 MB, 8 banks, 8-way,
// 16 ns hit / 24 ns forward / 80 ns to local memory.
func DefaultConfig() Config {
	return Config{
		Banks:       8,
		SizeBytes:   1 << 20,
		Ways:        8,
		HitLatency:  16 * sim.Nanosecond,
		FwdLatency:  24 * sim.Nanosecond,
		MemOverhead: 20 * sim.Nanosecond,
		BankCycles:  2,
		PendEntries: 16,
	}
}

// lineInfo is a bank's duplicate-tag record for one on-chip line: exactly
// which L1s hold it, who owns it, whether the on-chip copy is newer than
// memory, whether the bank's own array holds it, and the
// partially-interpreted remote state. Records live as values inside the
// bank's dense linemap table (one 8-byte struct per slot, no per-line
// heap object); the table hands out interior pointers, which stay valid
// across the deletes the eviction paths perform but not across a growing
// insert — serveMiss, the only inserter, installs its record before any
// pointer to it is used.
type lineInfo struct {
	sharers uint32 // bitmask over L1 IDs
	owner   int8   // ownerL2 or an L1 ID
	flags   uint8  // lineDirty | lineInL2
	lastReq int8
	remote  RemoteState
}

// lineInfo flags.
const (
	// lineDirty: the on-chip copy is newer than memory.
	lineDirty uint8 = 1 << iota
	// lineInL2: the bank's array holds the line. It is set on every
	// insert of the line into the array and cleared on every removal,
	// so the service paths learn residency from the record they already
	// hold instead of searching the array's set.
	lineInL2
)

func (i *lineInfo) dirty() bool { return i.flags&lineDirty != 0 }

func (i *lineInfo) inL2() bool { return i.flags&lineInL2 != 0 }

const ownerL2 = int8(-1)

// Bank is one of the eight L2 banks with its controller state. The
// per-line duplicate-tag records are a dense, index-addressed table (see
// internal/linemap) rather than a Go map, and the same-line transaction
// blocks a clock-recycled blockTable: every simulated access walks these
// structures, and pointer-boxed map values were the dominant steady-state
// allocation of the whole simulator.
type Bank struct {
	idx    int
	arr    *cache.Cache
	info   *linemap.Map[lineInfo]
	ctl    *sim.Server
	blocks blockTable
	tsrf   *sim.Pool
	// eng is the engine whose clock frees ended blocks for reuse (nil on
	// a standalone chip, whose table keeps every block).
	eng *sim.Engine

	// Queueing telemetry.
	PendWait      sim.Time
	PendConflicts uint64
}

// Stats aggregates the chip-level L2 counters.
type Stats struct {
	Hits            uint64 // serviced by L2 data
	Fwds            uint64 // forwarded to an owning L1
	LocalMem        uint64
	Remote          uint64
	RemoteDirty     uint64
	Upgrades        uint64
	WritebacksToL2  uint64
	WritebacksToMem uint64
	Invals          uint64 // on-chip L1 invalidations issued
}

// L2 is the chip-level shared second-level cache: the eight banks, the
// duplicate-tag state, and the intra-chip coherence controller.
type L2 struct {
	cfg    Config
	clock  sim.Clock
	banks  []*Bank
	l1s    []*l1.Cache
	mems   []Memory
	sw     *ics.Switch
	remote Remote

	tr   *trace.Tracer
	node uint8

	Stats Stats
}

// SetTracer attaches a tracer (nil disables) stamping events with the
// chip index.
func (l *L2) SetTracer(tr *trace.Tracer, node uint8) { l.tr, l.node = tr, node }

// New assembles the L2. l1s are all the chip's L1 modules (their ID field
// indexes the duplicate-tag bitmask), mems has one channel per bank.
func New(cfg Config, clock sim.Clock, l1s []*l1.Cache, mems []Memory, sw *ics.Switch, remote Remote) *L2 {
	if len(mems) != cfg.Banks {
		panic(fmt.Sprintf("l2: %d memories for %d banks", len(mems), cfg.Banks))
	}
	if len(l1s) > 32 {
		panic("l2: more than 32 L1 modules")
	}
	bankShift := uint(0)
	for 1<<bankShift < cfg.Banks {
		bankShift++
	}
	l := &L2{cfg: cfg, clock: clock, l1s: l1s, mems: mems, sw: sw, remote: remote}
	for i := 0; i < cfg.Banks; i++ {
		l.banks = append(l.banks, &Bank{
			idx: i,
			arr: cache.New(cache.Config{
				SizeBytes:  cfg.SizeBytes / cfg.Banks,
				Ways:       cfg.Ways,
				IndexShift: bankShift,
				Replace:    cache.RoundRobin,
			}),
			info: linemap.New[lineInfo](1024),
			ctl:  sim.NewServer(1),
			tsrf: sim.NewPool(fmt.Sprintf("l2-pend-%d", i), cfg.PendEntries),
		})
	}
	return l
}

// BindEngine lets every bank reuse the ways of blocks that end at or
// before the engine's clock instead of growing its table to keep them.
// Each access starts at or after the clock of the dispatch that issues
// it, so occupy would ignore those blocks anyway. Without it (a chip
// driven outside an engine) the tables keep every line ever blocked.
func (l *L2) BindEngine(eng *sim.Engine) {
	for _, b := range l.banks {
		b.eng = eng
	}
}

// BankOf returns the bank a line interleaves to.
//
//piranha:hotpath
func (l *L2) BankOf(line cache.LineAddr) *Bank {
	return l.banks[int(uint64(line)&uint64(l.cfg.Banks-1))]
}

// occupy charges the bank controller occupancy and returns the start time
// after any pending-transaction blocking on the same line.
//
//piranha:hotpath
func (b *Bank) occupy(l *L2, now sim.Time, line cache.LineAddr) sim.Time {
	if t := b.blocks.until(line); t > now {
		b.PendWait += t - now
		b.PendConflicts++
		now = t
	}
	return b.ctl.Acquire(now, l.clock.Cycles(int64(l.cfg.BankCycles)))
}

// block records that transactions on the line conflict until t.
//
//piranha:hotpath
func (b *Bank) block(line cache.LineAddr, t sim.Time) {
	b.blocks.put(line, t, b.clock())
}

// clock is the time at or before which a block can delay no access: the
// bound engine's clock, or 0 on a standalone chip.
//
//piranha:hotpath
func (b *Bank) clock() sim.Time {
	if b.eng != nil {
		return b.eng.Now()
	}
	return 0
}

// blockTable holds a bank's same-line transaction blocks, one {line,
// until} way per line: the bank serializes requests to a line (§2.3), so
// a request waits until the line's block ends. Ways sit in 4-way buckets
// of one host cache line each, the bucket chosen by the line's Fibonacci
// hash (its top bits). A way whose block ends at or before the caller's
// clock can delay no later access, so put reuses it: the table needs no
// prune, no tombstones and no compaction, and it grows only when a
// bucket's four ways all hold blocks that have not ended. A way never
// used is zero: its until of 0 frees it at any clock, and its key names
// no line.
type blockTable struct {
	buckets []blockBucket
	shift   uint // 64 - log2(len(buckets))
}

type blockBucket [4]blockWay

// blockWay is one way: a line's complemented address and when its block
// ends.
type blockWay struct {
	inv   cache.LineAddr
	until sim.Time
}

// minBlockBuckets is the bucket count of a table's first allocation.
const minBlockBuckets = 4

// bucket returns the line's bucket, picked by the top log2(len) bits of
// the line's Fibonacci hash.
//
//piranha:hotpath
func (t *blockTable) bucket(line cache.LineAddr) *blockBucket {
	return &t.buckets[(uint64(line)*0x9E3779B97F4A7C15)>>t.shift]
}

// until returns when line's block ends, or 0 when the table holds none.
//
//piranha:hotpath
func (t *blockTable) until(line cache.LineAddr) sim.Time {
	if len(t.buckets) == 0 {
		return 0
	}
	b := t.bucket(line)
	for i := range b {
		if b[i].inv == ^line {
			return b[i].until
		}
	}
	return 0
}

// put records that line's requests wait until the given time. It
// overwrites the line's own way, even one whose block has ended; else it
// takes the bucket's first way whose block ends at or before clock; else
// it grows the table and retries. Every access starts at or after the
// clock, so which ended ways get reused never changes a wait.
//
//piranha:hotpath
func (t *blockTable) put(line cache.LineAddr, until, clock sim.Time) {
	for {
		if len(t.buckets) > 0 {
			b := t.bucket(line)
			free := -1
			for i := range b {
				if b[i].inv == ^line {
					b[i].until = until
					return
				}
				if free < 0 && b[i].until <= clock {
					free = i
				}
			}
			if free >= 0 {
				b[free] = blockWay{inv: ^line, until: until}
				return
			}
		}
		t.grow(clock)
	}
}

// grow doubles the table, or makes its first buckets, and re-places the
// blocks that end after clock. Doubling adds one hash bit, so each new
// bucket receives the blocks of one old bucket and none overflows.
func (t *blockTable) grow(clock sim.Time) {
	old := t.buckets
	n := 2 * len(old)
	if n == 0 {
		n = minBlockBuckets
	}
	t.buckets = make([]blockBucket, n)
	t.shift = 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range old {
		for _, w := range old[i] {
			if w.until <= clock {
				continue
			}
			b := t.bucket(^w.inv)
			for j := range b {
				if b[j].inv == 0 {
					b[j] = w
					break
				}
			}
		}
	}
}

// live counts the blocks that end after clock.
func (t *blockTable) live(clock sim.Time) int {
	n := 0
	for i := range t.buckets {
		for _, w := range t.buckets[i] {
			if w.until > clock {
				n++
			}
		}
	}
	return n
}

// Access services an L1 miss (or upgrade) from the given L1 module.
// It performs all state transitions — filling the requesting L1,
// invalidating or downgrading peers, updating duplicate tags and
// ownership — and returns the data-ready time plus the service class.
func (l *L2) Access(now sim.Time, req *l1.Cache, kind Kind, a cache.Addr) (sim.Time, Svc) {
	done, svc := l.access(now, req, kind, a)
	if l.tr != nil {
		var k trace.Kind
		switch svc {
		case SvcL2Hit:
			k = trace.KL2Hit
		case SvcL2Fwd:
			k = trace.KL2Fwd
		case SvcLocalMem:
			k = trace.KL2MissLocal
		default:
			k = trace.KL2MissRemote
		}
		bank := int16(uint64(a.Line()) & uint64(l.cfg.Banks-1))
		l.tr.Span(trace.L2, k, l.node, bank, uint64(a), now, done, uint32(svc))
	}
	return done, svc
}

// access is the unwrapped service path; internal replays (the inclusive
// cascade and the upgrade-race fallback) re-enter here so one L1 request
// records exactly one span.
//
//piranha:hotpath
func (l *L2) access(now sim.Time, req *l1.Cache, kind Kind, a cache.Addr) (sim.Time, Svc) {
	line := a.Line()
	b := l.BankOf(line)
	start := b.occupy(l, now, line)

	info := b.info.Ref(line)
	switch kind {
	case Upgrade:
		return l.upgrade(b, start, req, line, info)
	case Read, ReadEx, ReadExNoData:
	default:
		panic("l2: unknown request kind")
	}

	// Parallel check of duplicate L1 tags and L2 tags: the record says
	// whether the bank's array holds the line.
	if info != nil {
		// When an L1 owns the line exclusively, any L2 copy is stale
		// (this only arises in the inclusive ablation, where the L2
		// keeps the tag as inclusion holder): the owner must supply.
		if info.inL2() && !(info.owner >= 0 && l.l1s[info.owner].State(line).CanWrite()) {
			// L2 has a valid copy: service directly.
			return l.serveFromL2(b, start, req, kind, line, info)
		}
		if info.sharers != 0 {
			// Some L1 has it: forward to the owner.
			return l.serveByForward(b, start, req, kind, line, info)
		}
		// info with no sharers and no L2 line cannot exist.
		panic("l2: dangling line info")
	}

	// On-chip miss: local memory or the protocol engines.
	return l.serveMiss(b, start, req, kind, line)
}

// serveFromL2 handles a hit in the L2 data array.
func (l *L2) serveFromL2(b *Bank, start sim.Time, req *l1.Cache, kind Kind, line cache.LineAddr, info *lineInfo) (sim.Time, Svc) {
	l.Stats.Hits++
	done := start + l.cfg.HitLatency
	switch kind {
	case Read:
		l.fill(b, done, req, line, cache.Shared, info)
		if gone, d, s := l.refillIfCascaded(b, done, req, kind, line, info); gone {
			return d, s
		}
		// L2 keeps its copy and remains the owner.
	case ReadEx, ReadExNoData:
		// Exclusivity: invalidate every other on-chip copy, including
		// the L2's own (the line now lives dirty in the requester L1).
		// An inclusive L2 instead keeps its (now stale) copy as the
		// inclusion tag-holder.
		done = l.revokeRemote(done, line, info)
		l.invalidateSharers(b, line, info, req.ID)
		if !l.cfg.Inclusive {
			b.arr.Invalidate(line)
			info.flags &^= lineInL2
		}
		l.fill(b, done, req, line, cache.Modified, info)
		if gone, d, s := l.refillIfCascaded(b, done, req, kind, line, info); gone {
			return d, s
		}
		info.owner = int8(req.ID)
		info.flags |= lineDirty
	}
	info.lastReq = int8(req.ID)
	b.block(line, done)
	return done, SvcL2Hit
}

// refillIfCascaded handles an inclusive-ablation corner: processing the
// L1 victim of a fill can cascade into an L2 eviction whose back-
// invalidation removes the line just installed. The request is then
// simply replayed (the displaced ways are now invalid, so the replay
// terminates).
func (l *L2) refillIfCascaded(b *Bank, now sim.Time, req *l1.Cache, kind Kind, line cache.LineAddr, info *lineInfo) (bool, sim.Time, Svc) {
	if !l.cfg.Inclusive || info.sharers&(1<<uint(req.ID)) != 0 {
		return false, 0, 0
	}
	d, s := l.access(now, req, kind, line.Addr())
	return true, d, s
}

// revokeRemote obtains system-wide exclusivity for a line other nodes may
// share: remote sharers of a home-local line are invalidated through the
// home engine; for a remote-homed line the remote engine runs an upgrade
// (exclusive-without-data) transaction at the line's home.
func (l *L2) revokeRemote(now sim.Time, line cache.LineAddr, info *lineInfo) sim.Time {
	if info.remote != RemoteShared {
		return now
	}
	if l.remote.HomeIsLocal(line) {
		now = l.remote.Invalidate(now, line)
	} else {
		now, _, _ = l.remote.Fetch(now, Upgrade, line)
	}
	info.remote = RemoteNone
	return now
}

// traceOwner records an ownership-decision instant: the duplicate-tag
// owner of the line changed. Arg is the new owner's L1 ID, or ^0 when
// ownership returns to the L2 itself.
func (l *L2) traceOwner(at sim.Time, line cache.LineAddr, owner int8) {
	if l.tr == nil {
		return
	}
	arg := ^uint32(0)
	if owner >= 0 {
		arg = uint32(owner)
	}
	bank := int16(uint64(line) & uint64(l.cfg.Banks-1))
	l.tr.Instant(trace.L2, trace.KL2Owner, l.node, bank, uint64(line.Addr()), at, arg)
}

// serveByForward handles a line held only by on-chip L1s.
func (l *L2) serveByForward(b *Bank, start sim.Time, req *l1.Cache, kind Kind, line cache.LineAddr, info *lineInfo) (sim.Time, Svc) {
	l.Stats.Fwds++
	done := start + l.cfg.FwdLatency
	switch kind {
	case Read:
		// The owner supplies the data and downgrades; ownership passes
		// to the last requester (near-optimal replacement policy).
		if info.owner >= 0 {
			l.l1s[info.owner].Downgrade(line)
		}
		l.fill(b, done, req, line, cache.Shared, info)
		if gone, d, s := l.refillIfCascaded(b, done, req, kind, line, info); gone {
			return d, s
		}
		info.owner = int8(req.ID)
	case ReadEx, ReadExNoData:
		done = l.revokeRemote(done, line, info)
		l.invalidateSharers(b, line, info, req.ID)
		l.fill(b, done, req, line, cache.Modified, info)
		if gone, d, s := l.refillIfCascaded(b, done, req, kind, line, info); gone {
			return d, s
		}
		info.owner = int8(req.ID)
		info.flags |= lineDirty
	}
	l.traceOwner(done, line, info.owner)
	info.lastReq = int8(req.ID)
	b.block(line, done)
	return done, SvcL2Fwd
}

// serveMiss handles a line with no on-chip copy.
func (l *L2) serveMiss(b *Bank, start sim.Time, req *l1.Cache, kind Kind, line cache.LineAddr) (sim.Time, Svc) {
	var done sim.Time
	var svc Svc
	newInfo := lineInfo{owner: int8(req.ID), lastReq: int8(req.ID)}
	fillState := cache.Shared

	if l.remote.HomeIsLocal(line) {
		// The line and its directory arrive together from local memory
		// (the directory lives in the line's spare ECC bits).
		mem := l.mems[b.idx]
		crit, _ := mem.Read(start, line.Addr())
		done = crit + l.cfg.MemOverhead
		svc = SvcLocalMem
		l.Stats.LocalMem++
		switch rs := l.remote.LocalDirState(line); rs {
		case RemoteExclusive:
			// A remote node owns the line dirty: only after the
			// directory arrives do the protocol engines forward the
			// request to the owner.
			done, svc, _ = l.remote.Fetch(done, kind, line)
			if svc == SvcRemoteDirty {
				l.Stats.RemoteDirty++
			} else {
				l.Stats.Remote++
			}
			l.Stats.LocalMem--
			if kind == Read {
				// The owner's reply also updates home memory; the
				// line is now shared between us and the prior owner.
				newInfo.remote = RemoteShared
			}
		case RemoteShared:
			if kind == ReadEx || kind == ReadExNoData {
				inv := l.remote.Invalidate(done, line)
				if inv > done {
					done = inv
				}
				newInfo.remote = RemoteNone
			} else {
				newInfo.remote = RemoteShared
			}
		default:
			newInfo.remote = RemoteNone
		}
	} else {
		// Remote home: the remote engine handles the whole transaction.
		var excl bool
		done, svc, excl = l.remote.Fetch(start, kind, line)
		if svc == SvcRemoteDirty {
			l.Stats.RemoteDirty++
		} else {
			l.Stats.Remote++
		}
		if !excl {
			newInfo.remote = RemoteShared
		}
	}

	switch kind {
	case Read:
		// Clean-exclusive optimization: return an exclusive copy when
		// no other cache in the system holds the line.
		if newInfo.remote == RemoteNone && req.Kind == l1.Data {
			fillState = cache.Exclusive
		}
	case ReadEx, ReadExNoData:
		fillState = cache.Modified
		newInfo.flags |= lineDirty
		newInfo.remote = RemoteNone
	}

	// Home-side service of an on-chip miss: the L2 controller interprets
	// the (ECC-resident) directory inline and drives local memory — the
	// duty a dedicated home engine performs for remote requesters, so it
	// is traced as a protocol-engine home transaction.
	if svc == SvcLocalMem {
		l.tr.Span(trace.PE, trace.KHomeTx, l.node, int16(b.idx), uint64(line.Addr()), start, done, uint32(kind))
	}

	// The whole off-chip transaction holds one of the bank's pending
	// entries; when all entries are busy, the request queues.
	if withEntry := b.tsrf.Acquire(start, done-start); withEntry > done {
		done = withEntry
	}

	// Non-inclusive fill: the line goes straight to the L1. The L2 is
	// NOT allocated; it fills later, if ever, when the L1 replaces the
	// line and writes it back as owner. (The inclusive ablation
	// allocates here too, paying the duplicate capacity.) The insert
	// happens before fill so the record's stable slot pointer is the one
	// the downstream victim processing sees.
	info := b.info.Put(line, newInfo)
	l.fill(b, done, req, line, fillState, info)
	if l.cfg.Inclusive {
		v := b.arr.Insert(line, cache.Shared)
		info.flags |= lineInL2
		if v.State.Valid() && v.Tag != line {
			l.l2Evicted(b, done, v.Tag)
		}
	}
	b.block(line, done)
	return done, svc
}

// upgrade handles a store to a line the requester holds Shared.
func (l *L2) upgrade(b *Bank, start sim.Time, req *l1.Cache, line cache.LineAddr, info *lineInfo) (sim.Time, Svc) {
	l.Stats.Upgrades++
	if info == nil {
		// The line was invalidated underneath the requester (e.g. by a
		// peer's ReadEx racing ahead); treat as a fresh ReadEx.
		return l.access(start, req, ReadEx, line.Addr())
	}
	done := start + l.cfg.HitLatency
	done = l.revokeRemote(done, line, info)
	l.invalidateSharers(b, line, info, req.ID)
	if !l.cfg.Inclusive && info.inL2() {
		b.arr.Invalidate(line)
		info.flags &^= lineInL2
	}
	req.SetState(line, cache.Modified)
	info.sharers |= 1 << uint(req.ID)
	info.owner = int8(req.ID)
	info.lastReq = int8(req.ID)
	info.flags |= lineDirty
	b.block(line, done)
	return done, SvcL2Hit
}

// invalidateSharers drops every on-chip L1 copy except keep's. The ICS
// ordering property means no acknowledgments are needed, so this costs
// only the invalidation transfers, which we charge to the switch but not
// to the requester's critical path.
func (l *L2) invalidateSharers(b *Bank, line cache.LineAddr, info *lineInfo, keep int) {
	for id := 0; id < len(l.l1s); id++ {
		if id == keep || info.sharers&(1<<uint(id)) == 0 {
			continue
		}
		l.l1s[id].Invalidate(line)
		info.sharers &^= 1 << uint(id)
		l.Stats.Invals++
	}
	if keep >= 0 {
		info.sharers &= 1 << uint(keep)
	} else {
		info.sharers = 0
	}
}

// fill installs the line in the requesting L1 at time t and processes the
// displaced victim through its own bank.
func (l *L2) fill(b *Bank, t sim.Time, req *l1.Cache, line cache.LineAddr, st cache.MESI, info *lineInfo) {
	info.sharers |= 1 << uint(req.ID)
	victim := req.Fill(line, st)
	// Data transfer to the L1 occupies the switch.
	l.sw.Transfer(t, ics.High, cache.LineBytes, true)
	if victim.State.Valid() {
		l.l1Evicted(t, req.ID, victim.Tag, victim.State)
	}
}

// l1Evicted processes an L1 replacement notice: the duplicate tags are
// updated and, when the evicting L1 owned the line, the data is written
// back into the L2 (the only way the victim-cache L2 is ever filled).
// The victim's MESI state tells the bank whether the data was modified
// (an E line upgraded to M silently still arrives here as M).
//
//piranha:hotpath
func (l *L2) l1Evicted(now sim.Time, l1id int, line cache.LineAddr, st cache.MESI) {
	b := l.BankOf(line)
	info := b.info.Ref(line)
	if info == nil || info.sharers&(1<<uint(l1id)) == 0 {
		panic("l2: duplicate tags out of sync with L1 eviction")
	}
	info.sharers &^= 1 << uint(l1id)
	if st == cache.Modified {
		info.flags |= lineDirty
	}

	if info.owner != int8(l1id) {
		// Non-owner replacement: the L2 told this L1 not to write back
		// (piggybacked decision); only the duplicate tag changes.
		l.dropIfGone(b, line, info)
		return
	}

	// Owner replacement: write the data back into the L2 (even clean
	// lines — the L2 may have no copy under non-inclusion).
	l.Stats.WritebacksToL2++
	l.sw.Transfer(now, ics.Low, cache.LineBytes, false)
	start := b.ctl.Acquire(now, l.clock.Cycles(int64(l.cfg.BankCycles)))
	l2victim := b.arr.Insert(line, cache.Shared)
	info.flags |= lineInL2
	info.owner = ownerL2
	l.traceOwner(start, line, ownerL2)
	if l2victim.State.Valid() && l2victim.Tag != line {
		l.l2Evicted(b, start, l2victim.Tag)
	}
}

// l2Evicted handles replacement of a line from the L2 array itself.
func (l *L2) l2Evicted(b *Bank, now sim.Time, line cache.LineAddr) {
	info := b.info.Ref(line)
	if info == nil {
		panic("l2: evicting line without info")
	}
	info.flags &^= lineInL2
	if info.sharers != 0 {
		if l.cfg.Inclusive {
			// Inclusion: evicting the L2 line back-invalidates every
			// L1 copy — the cost the Piranha design avoids.
			for id := 0; id < len(l.l1s); id++ {
				if info.sharers&(1<<uint(id)) == 0 {
					continue
				}
				if st := l.l1s[id].Invalidate(line); st == cache.Modified {
					info.flags |= lineDirty
				}
				info.sharers &^= 1 << uint(id)
				l.Stats.Invals++
			}
		} else {
			// Non-inclusive: other L1s still hold the line; ownership
			// (and responsibility for the eventual write-back) moves
			// to the last requester still sharing, or any sharer.
			next := info.lastReq
			if next < 0 || info.sharers&(1<<uint(next)) == 0 {
				for id := 0; id < len(l.l1s); id++ {
					if info.sharers&(1<<uint(id)) != 0 {
						next = int8(id)
						break
					}
				}
			}
			info.owner = next
			l.traceOwner(now, line, next)
			return
		}
	}
	// No L1 copies remain.
	if info.dirty() && l.remote.HomeIsLocal(line) {
		l.Stats.WritebacksToMem++
		l.mems[b.idx].Write(now, line.Addr())
	} else if info.dirty() {
		// Dirty line homed remotely: the remote engine writes it back.
		l.Stats.WritebacksToMem++
		l.remote.Writeback(now, line)
	}
	b.info.Delete(line)
}

// dropIfGone removes the bookkeeping when no on-chip copy remains.
//
//piranha:hotpath
func (l *L2) dropIfGone(b *Bank, line cache.LineAddr, info *lineInfo) {
	if info.sharers == 0 && !info.inL2() {
		b.info.Delete(line)
	}
}
