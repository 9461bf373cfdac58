// Package fault implements the deterministic fault-injection engine that
// exercises Piranha's §2.7 reliability story inside live timing runs:
// CRC-protected links with piggyback retransmission (internal/link),
// 256-bit SECDED memory ECC (internal/ecc), memory-mirroring failover
// (internal/ras), and timeout-based TSRF transaction recovery: a lost
// message holds its TSRF entry until RecoverTime, the first sweep tick
// past the timeout (pe's loseAndRecover).
//
// A Plan holds per-class rates; an Injector compiled from a plan is the
// live per-run engine that components consult at their natural fault
// points — the fabric per packet, the memory controllers per line read,
// the protocol engines per transaction leg. Every decision is drawn from
// sim.RNG streams split off one seeded base generator, so a fixed
// (plan, run-seed) pair replays the identical fault schedule no matter
// how many experiments run concurrently around it. A zero-rate plan
// compiles to a disabled injector whose every hook is a no-op, keeping
// fault-free runs bit-identical to runs that never heard of this
// package.
package fault

import (
	"fmt"

	"piranha/internal/cache"
	"piranha/internal/ecc"
	"piranha/internal/link"
	"piranha/internal/sim"
	"piranha/internal/stats"
)

// MaxLossRetries bounds how many consecutive message losses one protocol
// transaction will absorb (each costing a full TSRF timeout recovery)
// before the transaction is allowed through unconditionally, so even a
// pathological loss rate cannot livelock a run.
const MaxLossRetries = 4

// maxFrameRetries is the link-level go-back-N retry budget per packet.
const maxFrameRetries = 8

// scratchBytes bounds the synthetic frame used for the link encode/
// decode path; it covers the largest protocol packet (header + line).
const scratchBytes = 128

// NodeFailure schedules one deterministic fail-stop node death: chip
// Node stops executing and serving memory at absolute simulated time At
// (t=0 is run start, so warm-phase onsets are expressible). Fail-stop
// deaths are scheduled, not drawn from an RNG stream, so a chaos grid's
// fault-rate axis scales the transient classes while the death schedule
// stays fixed.
type NodeFailure struct {
	Node int
	At   sim.Time
}

// Plan describes one deterministic fault-injection campaign: per-class
// rates plus the recovery parameters. The zero value is the perfect
// machine — Enabled() is false and an injector built from it injects
// nothing.
type Plan struct {
	// Seed perturbs every fault stream; it is mixed with the run seed so
	// the same plan produces independent schedules across seeds but the
	// identical schedule across reruns.
	Seed uint64

	// LinkBER is the per-wire-bit corruption probability applied to every
	// 22-bit word a packet's frame transmits (the ber of link.NewChannel).
	LinkBER float64
	// MsgLoss is the probability one protocol transaction leg loses a
	// message entirely — beyond what link-level retransmission heals —
	// forcing timeout-based TSRF recovery.
	MsgLoss float64
	// MemFlip is the probability a memory line read observes flipped
	// bits and runs through the SECDED decode path.
	MemFlip float64
	// MemDoubleFrac is the fraction of memory flips that hit two bits
	// (uncorrectable by SECDED) rather than one.
	MemDoubleFrac float64
	// StallProb is the probability a message arrival finds its
	// destination node transiently stalled.
	StallProb float64

	// StallTime is the duration of a transient node stall.
	StallTime sim.Time
	// ScrubLatency is charged per correctable ECC error (the controller
	// rewrites the corrected line).
	ScrubLatency sim.Time
	// Mirrored escalates uncorrectable memory errors to mirroring
	// failover instead of counting them unrecoverable.
	Mirrored bool
	// MirrorLatency is the cost of a read the mirror serves: an
	// uncorrectable error when Mirrored is set, or a fail-stopped home's
	// line.
	MirrorLatency sim.Time
	// SweepPeriod is the cadence of the recovery sweep's ticks, and
	// sets the run watchdog's interval.
	SweepPeriod sim.Time
	// Timeout is the TSRF timer: a lost transaction's entry is reclaimed
	// at the first sweep tick where its age exceeds it (RecoverTime).
	Timeout sim.Time

	// FailStop schedules deterministic fail-stop node deaths. Requires a
	// multi-chip system: the dead chip's home memory fails over to its
	// RAS mirror and the survivors keep serving in degraded mode.
	FailStop []NodeFailure
	// DetectLatency is the onset→detection delay: the time between a
	// node dying and the survivors beginning recovery.
	DetectLatency sim.Time
	// RedispatchPenalty is charged per process migrated off a dead node
	// before it becomes runnable on its new CPU.
	RedispatchPenalty sim.Time
}

// Enabled reports whether any fault class has a nonzero rate.
func (p Plan) Enabled() bool {
	return p.LinkBER > 0 || p.MsgLoss > 0 || p.MemFlip > 0 ||
		p.StallProb > 0 || len(p.FailStop) > 0
}

// Scaled returns a copy with every rate multiplied by m — the campaign
// grid axis. Durations, seed and mirroring are unchanged; probabilities
// saturate at 1. The fail-stop schedule is not a rate: any positive
// multiplier keeps it verbatim, while m = 0 (the grid's baseline cell)
// drops it so the zero cell stays a genuinely fault-free run.
func (p Plan) Scaled(m float64) Plan {
	p.LinkBER = capProb(p.LinkBER * m)
	p.MsgLoss = capProb(p.MsgLoss * m)
	p.MemFlip = capProb(p.MemFlip * m)
	p.StallProb = capProb(p.StallProb * m)
	if m <= 0 {
		p.FailStop = nil
	}
	return p
}

func capProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// withDefaults fills the duration parameters a zero-valued plan leaves
// open.
func (p Plan) withDefaults() Plan {
	if p.StallTime <= 0 {
		p.StallTime = 1 * sim.Microsecond
	}
	if p.ScrubLatency <= 0 {
		p.ScrubLatency = 80 * sim.Nanosecond
	}
	if p.MirrorLatency <= 0 {
		p.MirrorLatency = 120 * sim.Nanosecond
	}
	if p.SweepPeriod <= 0 {
		p.SweepPeriod = 50 * sim.Microsecond
	}
	if p.Timeout <= 0 {
		p.Timeout = 20 * sim.Microsecond
	}
	if p.DetectLatency <= 0 {
		p.DetectLatency = 10 * sim.Microsecond
	}
	if p.RedispatchPenalty <= 0 {
		p.RedispatchPenalty = 5 * sim.Microsecond
	}
	p.MemDoubleFrac = capProb(p.MemDoubleFrac)
	return p
}

// Stats is the counter block a fault campaign reports (Result.Faults).
// All fields are scalars so the struct stays comparable with == for
// determinism checks.
type Stats struct {
	// Injected totals the fault events that fired across all classes.
	Injected uint64
	// LinkWordErrors counts corrupted wire words the link layer detected
	// (weight violations plus CRC catches).
	LinkWordErrors uint64
	// Retransmits counts link frames resent by the go-back-N handshake.
	Retransmits uint64
	// MessagesLost counts protocol messages dropped outright.
	MessagesLost uint64
	// Recovered counts lost transactions healed by TSRF timeout
	// recovery (every loss either recovers or exhausts MaxLossRetries).
	Recovered uint64
	// SweepReclaims counts TSRF entries a sweep tick reclaimed; every
	// loss is reclaimed at its RecoverTime, so it equals Recovered.
	SweepReclaims uint64
	// MemFlips counts line reads that saw injected bit flips.
	MemFlips uint64
	// MemCorrected counts flips SECDED corrected (scrub charged).
	MemCorrected uint64
	// MemFailovers counts uncorrectable errors served from the mirror.
	MemFailovers uint64
	// MemUnrecoverable counts uncorrectable errors with no mirror.
	MemUnrecoverable uint64
	// Stalls counts transient node stalls.
	Stalls uint64
	// RecoveryLatency is the total simulated time transactions spent
	// waiting on TSRF timeout recovery.
	RecoveryLatency sim.Time
	// NodesFailed counts fail-stop node deaths.
	NodesFailed uint64
	// ProcsMigrated counts processes the kernel moved off dead nodes.
	ProcsMigrated uint64
	// DirSharersDropped counts directory entries the reconstruction
	// sweep purged a dead sharer from.
	DirSharersDropped uint64
	// DirOwnerReclaims counts exclusive entries whose dead owner the
	// sweep reclaimed (data restored from the RAS mirror).
	DirOwnerReclaims uint64
	// HomesAdopted counts dead-homed directory entries the mirror node
	// adopted.
	HomesAdopted uint64
	// MirrorReads counts dead-home memory reads served by the mirror.
	MirrorReads uint64
	// MTTRTotal is the summed onset→restored-capacity time over all
	// fail-stop events.
	MTTRTotal sim.Time
}

// String renders the counter block on one line.
func (s Stats) String() string {
	out := fmt.Sprintf(
		"faults: injected=%d link[words=%d retrans=%d] lost=%d recovered=%d sweeps=%d recovery=%.1fus mem[flips=%d corrected=%d failover=%d fatal=%d] stalls=%d",
		s.Injected, s.LinkWordErrors, s.Retransmits, s.MessagesLost,
		s.Recovered, s.SweepReclaims,
		float64(s.RecoveryLatency)/float64(sim.Microsecond),
		s.MemFlips, s.MemCorrected, s.MemFailovers, s.MemUnrecoverable,
		s.Stalls)
	if s.NodesFailed > 0 {
		out += fmt.Sprintf(" failstop[nodes=%d migrated=%d dropped=%d reclaimed=%d adopted=%d mirror-reads=%d mttr=%.1fus]",
			s.NodesFailed, s.ProcsMigrated, s.DirSharersDropped,
			s.DirOwnerReclaims, s.HomesAdopted, s.MirrorReads,
			float64(s.MTTRTotal)/float64(sim.Microsecond))
	}
	return out
}

// RecoveryEvent is the timeline of one fail-stop node death: when it
// happened, when the survivors noticed, when full (degraded-mode)
// serving capacity was restored, and what the reconstruction touched.
type RecoveryEvent struct {
	Node     int
	Onset    sim.Time
	Detect   sim.Time
	Restored sim.Time

	Migrated       int // processes moved off the dead node
	SharersDropped int // directory entries purged of the dead sharer
	OwnerReclaims  int // exclusive entries reclaimed from the dead owner
	HomesAdopted   int // dead-homed entries the mirror adopted
}

// MTTR is the onset→restored-capacity time for this event.
func (e RecoveryEvent) MTTR() sim.Time { return e.Restored - e.Onset }

// Recovery is the fail-stop recovery log a run reports (Result.Recovery,
// schema v3). CapacityFrac is the fraction of CPU capacity still alive
// after the last recorded failure (1 when nothing died).
type Recovery struct {
	Events       []RecoveryEvent
	MTTRTotal    sim.Time
	CapacityFrac float64
}

// Injector is one run's live fault engine. It is not safe for concurrent
// use; RunBatch isolation comes from each experiment building its own.
// The nil *Injector is the disabled engine: every hook is a nil-safe
// no-op, mirroring the *trace.Tracer and *stats.Series idiom, so wired
// components hold a possibly-nil pointer and consult it unconditionally.
type Injector struct {
	plan Plan

	loss    *sim.RNG
	mem     *sim.RNG
	stall   *sim.RNG
	chans   map[uint64]*link.Channel
	seedW   uint64 // Weyl constant mixing source IDs into channel seeds
	icClock sim.Clock
	scratch []byte
	series  *stats.Series
	recov   Recovery

	// Adopt, when non-nil, tells the RAS mirror it has taken over n
	// directory-resident lines of a fail-stopped home (ras.Failover.
	// Takeover, wired by the layer that owns the failover target, since
	// fault cannot import ras).
	Adopt func(n int)

	// Stats accumulates the non-link counters live; Collect folds the
	// link channels' counters in.
	Stats Stats
}

// New compiles a plan into an injector. runSeed is the experiment's
// workload seed, mixed in so campaigns over seeds draw independent fault
// schedules. A disabled plan still compiles (all hooks no-op).
func New(p Plan, runSeed uint64) *Injector {
	p = p.withDefaults()
	base := sim.NewRNG(p.Seed ^ (runSeed * 0x9e3779b97f4a7c15) ^ 0xfa017bedb601a7e5)
	j := &Injector{
		plan:    p,
		loss:    base.Split(1),
		mem:     base.Split(2),
		stall:   base.Split(3),
		chans:   make(map[uint64]*link.Channel),
		seedW:   base.Uint64() | 1,
		icClock: sim.MHz(500),
		scratch: make([]byte, scratchBytes),
	}
	// Fixed pseudo-random frame payload: the content only feeds the
	// DC-balance weight check of the word code, never a measurement.
	pat := base.Split(4)
	for i := range j.scratch {
		j.scratch[i] = byte(pat.Uint64())
	}
	return j
}

// Enabled reports whether the injector injects anything.
func (j *Injector) Enabled() bool { return j != nil && j.plan.Enabled() }

// Plan returns the effective plan (defaults applied).
func (j *Injector) Plan() Plan {
	if j == nil {
		return Plan{}
	}
	return j.plan
}

// AttachSeries directs recovery-latency samples into the run's interval
// sampler (nil detaches).
func (j *Injector) AttachSeries(s *stats.Series) {
	if j == nil {
		return
	}
	j.series = s
}

// channel returns src's link channel, creating it deterministically: the
// seed is a fixed function of the base stream and the source ID, so the
// schedule does not depend on first-use order.
func (j *Injector) channel(src uint64) *link.Channel {
	ch := j.chans[src]
	if ch == nil {
		ch = link.NewChannel(j.plan.LinkBER, j.seedW*(src+0x9e3779b9)+0x2545f4914f6cdd1d)
		j.chans[src] = ch
	}
	return ch
}

// frame returns the synthetic payload for an n-byte packet.
func (j *Injector) frame(n int) []byte {
	if n > len(j.scratch) {
		n = len(j.scratch)
	}
	if n < 1 {
		n = 1
	}
	return j.scratch[:n]
}

// HopRetransmits rolls wire corruption for one packet of n payload bytes
// leaving src: the frame runs through link.Channel's real 22-bit encode/
// decode and CRC path at the plan's BER, and the result is how many extra
// frame transmissions the go-back-N handshake needed. A frame that
// exhausts the retry budget still delivers — sustained outright loss is
// the MsgLoss class — but pays the whole budget.
func (j *Injector) HopRetransmits(src uint64, bytes int) int {
	if j == nil || j.plan.LinkBER <= 0 {
		return 0
	}
	attempts, err := j.channel(src).Transmit(j.frame(bytes), maxFrameRetries)
	if err != nil {
		return maxFrameRetries
	}
	return attempts - 1
}

// LinkDelay is HopRetransmits expressed as retransmit latency: each
// resent frame re-occupies the channel for the packet's transfer time
// plus the trailing CRC word.
func (j *Injector) LinkDelay(src uint64, bytes int) sim.Time {
	n := j.HopRetransmits(src, bytes)
	if n == 0 {
		return 0
	}
	return sim.Time(n) * link.TransferTime(bytes+2, j.icClock)
}

// StallDelay rolls a transient stall of the receiving node against one
// message arrival.
func (j *Injector) StallDelay(node uint64) sim.Time {
	if j == nil || j.plan.StallProb <= 0 {
		return 0
	}
	_ = node
	if !j.stall.Bool(j.plan.StallProb) {
		return 0
	}
	j.Stats.Stalls++
	return j.plan.StallTime
}

// LoseMessage rolls protocol-message loss for one transaction leg and
// counts a hit.
func (j *Injector) LoseMessage() bool {
	if j == nil || j.plan.MsgLoss <= 0 {
		return false
	}
	if !j.loss.Bool(j.plan.MsgLoss) {
		return false
	}
	j.Stats.MessagesLost++
	return true
}

// RecoverTime returns when the recovery sweep reclaims the TSRF entry of
// a lost transaction that claimed it at start: the first multiple of the
// plan's SweepPeriod at which the entry's age strictly exceeds the plan
// Timeout.
func (j *Injector) RecoverTime(start sim.Time) sim.Time {
	if j == nil {
		return start
	}
	p := j.plan.SweepPeriod
	return ((start+j.plan.Timeout)/p + 1) * p
}

// NoteRecovery accounts one lost transaction whose TSRF entry a sweep
// tick reclaimed at recoverAt.
func (j *Injector) NoteRecovery(now, recoverAt sim.Time) {
	if j == nil {
		return
	}
	j.Stats.Recovered++
	j.Stats.SweepReclaims++
	j.Stats.RecoveryLatency += recoverAt - now
	j.series.AddRecovery(recoverAt, recoverAt-now)
}

// FailoverPenalty charges one dead-home memory read served from the RAS
// mirror: the deterministic mirror-read latency (plan MirrorLatency,
// defaulted), counted in MirrorReads.
func (j *Injector) FailoverPenalty(now sim.Time) sim.Time {
	if j == nil {
		return 0
	}
	_ = now
	j.Stats.MirrorReads++
	return j.plan.MirrorLatency
}

// NoteFailStop records one completed fail-stop recovery: the event joins
// the run's recovery log, the scalar counters absorb its totals, and the
// restored instant lands in the interval sampler's recovery track.
func (j *Injector) NoteFailStop(ev RecoveryEvent) {
	if j == nil {
		return
	}
	j.recov.Events = append(j.recov.Events, ev)
	j.recov.MTTRTotal += ev.MTTR()
	j.Stats.NodesFailed++
	j.Stats.ProcsMigrated += uint64(ev.Migrated)
	j.Stats.DirSharersDropped += uint64(ev.SharersDropped)
	j.Stats.DirOwnerReclaims += uint64(ev.OwnerReclaims)
	j.Stats.HomesAdopted += uint64(ev.HomesAdopted)
	j.Stats.MTTRTotal += ev.MTTR()
	if j.Adopt != nil {
		j.Adopt(ev.HomesAdopted)
	}
	j.series.AddRecovery(ev.Restored, ev.MTTR())
}

// SetCapacityFrac records the alive-CPU fraction after fail-stop deaths
// (the degraded-mode serving capacity the recovery block reports).
func (j *Injector) SetCapacityFrac(frac float64) {
	if j == nil {
		return
	}
	j.recov.CapacityFrac = frac
}

// Recovery returns the fail-stop recovery log accumulated so far.
func (j *Injector) Recovery() Recovery {
	if j == nil {
		return Recovery{}
	}
	return j.recov
}

// Diagnostic renders the live fault/recovery counters for the
// watchdog's failure message.
func (j *Injector) Diagnostic() string {
	if j == nil {
		return "faults: disabled"
	}
	return j.Collect().String()
}

// MemRead rolls a memory fault against one line read at address a and
// returns the extra latency the read pays. A fault builds a line image,
// encodes it with the real SECDED code, flips one bit (anywhere in the
// codeword) or two data bits per MemDoubleFrac, and decodes: correctable
// outcomes charge the scrub, uncorrectable ones fail over to the mirror
// (plan Mirrored, at MirrorLatency) or count unrecoverable.
func (j *Injector) MemRead(now sim.Time, a cache.Addr) sim.Time {
	if j == nil || j.plan.MemFlip <= 0 {
		return 0
	}
	if !j.mem.Bool(j.plan.MemFlip) {
		return 0
	}
	j.Stats.MemFlips++
	var w ecc.Word
	for i := range w {
		w[i] = j.mem.Uint64()
	}
	w[0] ^= uint64(a)
	cw := ecc.Encode(w)
	if j.mem.Bool(j.plan.MemDoubleFrac) {
		// Two distinct data bits: uncorrectable by SECDED.
		b1 := j.mem.Intn(ecc.DataBits)
		b2 := j.mem.Intn(ecc.DataBits - 1)
		if b2 >= b1 {
			b2++
		}
		cw.Data = cw.Data.Flip(b1).Flip(b2)
	} else {
		// One bit, anywhere in the stored codeword: data or check
		// storage (the latter exercises the corrected-check path).
		pos := j.mem.Intn(ecc.DataBits + ecc.CheckBits)
		if pos < ecc.DataBits {
			cw.Data = cw.Data.Flip(pos)
		} else {
			cw.Check ^= 1 << uint(pos-ecc.DataBits)
		}
	}
	_, res := ecc.Decode(cw)
	switch res {
	case ecc.OK:
		return 0
	case ecc.CorrectedData, ecc.CorrectedCheck:
		j.Stats.MemCorrected++
		return j.plan.ScrubLatency
	case ecc.DoubleError:
		if j.plan.Mirrored {
			j.Stats.MemFailovers++
			return j.plan.MirrorLatency
		}
		j.Stats.MemUnrecoverable++
		return 0
	}
	return 0
}

// ResetStats zeroes the counters at the warm/measure boundary, including
// every link channel's counters (Channel.Reset), so warm-up corruption
// never pollutes measured-phase statistics. The RNG streams keep their
// positions: the fault schedule is one continuous sequence.
func (j *Injector) ResetStats() {
	if j == nil {
		return
	}
	j.Stats = Stats{}
	// Warm-phase fail-stop events leave the measured window's log, but
	// the degraded capacity fraction persists — the machine is still
	// short those nodes.
	j.recov.Events = nil
	j.recov.MTTRTotal = 0
	for _, ch := range j.chans {
		ch.Reset()
	}
}

// Collect folds the per-source link channel counters into the stats
// block and totals Injected. The map fold is commutative, so the result
// is iteration-order independent.
func (j *Injector) Collect() Stats {
	if j == nil {
		return Stats{}
	}
	s := j.Stats
	for _, ch := range j.chans {
		cs := ch.Stats()
		s.LinkWordErrors += cs.WordErrors + cs.CRCErrors
		s.Retransmits += cs.Retransmits
	}
	s.Injected = s.LinkWordErrors + s.MessagesLost + s.MemFlips + s.Stalls + s.NodesFailed
	return s
}
