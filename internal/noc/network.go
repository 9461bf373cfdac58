package noc

import (
	"fmt"
	"math/bits"

	"piranha/internal/fault"
	"piranha/internal/sim"
)

// Packet kinds and sizes (paper §2.6.1).
const (
	// ShortCycles is the channel occupancy of a 128-bit packet.
	ShortCycles = 2
	// LongCycles is the occupancy of a header + 64-byte-data packet.
	LongCycles = 10
	// Priorities supported by the OQ and IQ.
	Priorities = 4
)

// Packet is one interconnect packet in flight.
type Packet struct {
	ID   uint64
	Src  int
	Dst  int
	Prio int // 0 (lowest) .. 3
	Long bool

	// Telemetry.
	InjectCycle  int64
	DeliverCycle int64
	Hops         int
	Deflections  int
	age          int
}

func (p *Packet) cycles() int64 {
	if p.Long {
		return LongCycles
	}
	return ShortCycles
}

// bytes is the payload the link layer frames for this packet: a 128-bit
// header for short packets, header + 64-byte line for long ones.
func (p *Packet) bytes() int {
	if p.Long {
		return 80
	}
	return 16
}

// Config tunes the routers.
type Config struct {
	// BufferPool is the shared packet buffer capacity per router,
	// across all lanes and priorities (the S-Connect common pool).
	BufferPool int
	// OQDepth bounds locally-injected packets waiting for the router;
	// the fall-through path is a single cycle when the router is ready.
	OQDepth int
}

// DefaultConfig matches the prototype's modest buffering.
func DefaultConfig() Config { return Config{BufferPool: 16, OQDepth: 8} }

// router is one node's RT with its IQ and OQ.
type router struct {
	id int
	// neigh caches Topology.Neighbors(id): arbitration consults it every
	// cycle, and several Topology implementations build the slice fresh
	// per call.
	neigh []int
	pool  []*Packet // shared buffer pool (transit packets)
	oq    []*Packet // locally injected, waiting
	// linkFree[i] is the cycle at which channel i is next available.
	linkFree []int64

	// Arbitration scratch, reused every cycle so the steady-state
	// router loop performs no allocation.
	taken []bool
	order []int
	keep  []*Packet

	MaxPool uint64
	Refused uint64 // injections deferred because transit had priority
}

// minWheelSlots is the smallest arrival-wheel horizon. A fault-free hop
// completes within LongCycles (10) cycles, so 256 cycles of lookahead
// covers small machines with room to spare; larger topologies size the
// wheel from their diameter (see wheelSlots) so steady-state traffic
// never spills past the horizon. Anything beyond the horizon — extreme
// retransmit chains, mostly — lands in the sorted overflow list.
const minWheelSlots = 1 << 8

// wheelSlots sizes the arrival wheel for a topology: enough power-of-two
// slots to cover a full-diameter journey of long packets with a 2x
// margin for channel occupancy and moderate retransmission, floored at
// minWheelSlots. A 32x32 torus (diameter 32) gets 1024 slots where the
// old fixed 256-cycle ring forced every distant hop of a large machine
// through the linear-scan overflow path.
func wheelSlots(hops [][]int) int {
	diam := 0
	for _, row := range hops {
		for _, h := range row {
			if h > diam {
				diam = h
			}
		}
	}
	need := diam * LongCycles * 2
	slots := minWheelSlots
	for slots < need {
		slots <<= 1
	}
	return slots
}

// wheelBucket is one slot of the arrival wheel: the cycle it currently
// holds arrivals for plus the arrivals themselves. The backing array is
// reused across wheel laps, so steady-state hop delivery allocates
// nothing.
type wheelBucket struct {
	cycle int64
	arr   []arrival
}

// Network is a cycle-driven simulation of the whole interconnect.
type Network struct {
	cfg   Config
	topo  Topology
	next  [][][]int
	hops  [][]int
	rts   []*router
	rng   *sim.RNG
	cycle int64
	seq   uint64

	inFlight int
	// Hop completions are held in a ring-indexed bucket wheel: bucket
	// cycle&mask holds the arrivals for that cycle. Step visits every
	// cycle in order, so a bucket is always drained before its slot is
	// needed for a cycle one lap ahead; the rare beyond-horizon insert
	// lands in overflow, kept sorted by (cycle, seq) so draining takes a
	// prefix instead of rescanning the whole spill, and bucket and prefix
	// are merged by arrival sequence so delivery order is identical to
	// the old per-cycle append order.
	wheel    []wheelBucket
	overflow []arrival // past-horizon arrivals, sorted by (cycle, seq)
	ovHead   int       // first pending overflow entry (drained prefix)
	due      []arrival // per-cycle merge scratch, reused
	arrSeq   uint64    // global arrival insertion sequence

	// Sparse activation: bit i of active marks router i as holding
	// buffered or locally-queued work. Step's arbitration walks only set
	// bits — a quiescent router's arbitrate is a no-op that consumes no
	// RNG, so skipping it is byte-identical and the per-cycle cost is
	// O(active routers), not O(N).
	active      []uint64
	activeCount int

	// FastForwarded counts cycles skipped across globally idle windows
	// (no active routers, all in-flight packets riding links).
	FastForwarded int64

	Delivered []*Packet

	flt *fault.Injector // nil when fault injection is off
}

type arrival struct {
	pkt   *Packet
	at    int
	cycle int64 // arrival cycle (used by overflow draining)
	seq   uint64
}

// NewNetwork builds the interconnect over a topology.
func NewNetwork(cfg Config, topo Topology, seed uint64) (*Network, error) {
	next, hops, err := routes(topo)
	if err != nil {
		return nil, err
	}
	n := &Network{
		cfg:    cfg,
		topo:   topo,
		next:   next,
		hops:   hops,
		rng:    sim.NewRNG(seed),
		wheel:  make([]wheelBucket, wheelSlots(hops)),
		active: make([]uint64, (topo.Nodes()+63)/64),
	}
	for i := 0; i < topo.Nodes(); i++ {
		neigh := topo.Neighbors(i)
		n.rts = append(n.rts, &router{
			id:       i,
			neigh:    neigh,
			linkFree: make([]int64, len(neigh)),
			taken:    make([]bool, len(neigh)),
		})
	}
	return n, nil
}

// SetFaults attaches a fault injector (nil disables): every hop runs the
// packet's frame through the link-layer encode/decode path at the plan's
// bit-error rate, and corrupted frames re-occupy the output channel for
// each retransmission.
func (n *Network) SetFaults(inj *fault.Injector) { n.flt = inj }

// Cycle returns the current interconnect cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// Hops returns the BFS hop-distance table computed at construction.
// Callers that need distances alongside a Network (e.g. latency
// calibration) should use this instead of recomputing Routes, which
// costs an O(N^2) BFS per call. The table is shared, not copied.
func (n *Network) Hops() [][]int { return n.hops }

// InFlight returns the number of undelivered packets.
func (n *Network) InFlight() int { return n.inFlight }

// Inject queues a packet for transmission from src.
func (n *Network) Inject(src, dst, prio int, long bool) *Packet {
	if src == dst {
		panic("noc: self-injection")
	}
	n.seq++
	p := &Packet{ID: n.seq, Src: src, Dst: dst, Prio: prio, Long: long, InjectCycle: n.cycle}
	rt := n.rts[src]
	rt.oq = append(rt.oq, p)
	n.inFlight++
	n.activate(src)
	return p
}

// activate marks router id as holding work so Step's sparse arbitration
// walk visits it.
//
//piranha:hotpath
func (n *Network) activate(id int) {
	w := uint(id) >> 6
	m := uint64(1) << (uint(id) & 63)
	if n.active[w]&m == 0 {
		n.active[w] |= m
		n.activeCount++
	}
}

// schedule queues an arrival for cycle at: the wheel bucket when the
// cycle is within the horizon and its slot is free (or already claimed
// by the same cycle), the overflow list otherwise. Overflow stays
// sorted by (cycle, seq) — the upper-bound binary insert keeps the
// monotone seq order stable within a cycle, a sustained burst of
// ascending-cycle spills degenerates to a plain append, and drainDue
// consumes a prefix instead of rescanning the whole list every cycle.
//
//piranha:hotpath
func (n *Network) schedule(at int64, pkt *Packet, rcv int) {
	n.arrSeq++
	a := arrival{pkt: pkt, at: rcv, cycle: at, seq: n.arrSeq}
	b := &n.wheel[at&int64(len(n.wheel)-1)]
	if len(b.arr) == 0 {
		b.cycle = at
		b.arr = append(b.arr, a)
		return
	}
	if b.cycle == at {
		b.arr = append(b.arr, a)
		return
	}
	lo, hi := n.ovHead, len(n.overflow)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.overflow[mid].cycle <= at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	n.overflow = append(n.overflow, arrival{})
	copy(n.overflow[lo+1:], n.overflow[lo:])
	n.overflow[lo] = a
}

// drainDue collects this cycle's arrivals into n.due in insertion-seq
// order, merging the wheel bucket with the overflow's due prefix. Both
// sources are individually seq-sorted (the bucket by appends, the
// prefix because same-cycle overflow entries keep insertion order), so
// a linear merge restores the exact order the old per-cycle append list
// had.
//
//piranha:hotpath
func (n *Network) drainDue() []arrival {
	n.due = n.due[:0]
	var bucket []arrival
	b := &n.wheel[n.cycle&int64(len(n.wheel)-1)]
	if len(b.arr) > 0 && b.cycle == n.cycle {
		bucket = b.arr
	}
	// Due overflow entries form a sorted prefix starting at ovHead;
	// consuming it is O(due) regardless of how much later spill waits
	// behind it.
	if n.ovHead >= len(n.overflow) || n.overflow[n.ovHead].cycle > n.cycle {
		if bucket == nil {
			return nil
		}
		n.due = append(n.due, bucket...)
		b.arr = b.arr[:0]
		return n.due
	}
	end := n.ovHead
	for end < len(n.overflow) && n.overflow[end].cycle <= n.cycle {
		end++
	}
	i := 0
	for _, a := range n.overflow[n.ovHead:end] {
		for i < len(bucket) && bucket[i].seq < a.seq {
			n.due = append(n.due, bucket[i])
			i++
		}
		n.due = append(n.due, a)
	}
	n.due = append(n.due, bucket[i:]...)
	n.ovHead = end
	if n.ovHead == len(n.overflow) {
		n.overflow = n.overflow[:0]
		n.ovHead = 0
	}
	if bucket != nil {
		b.arr = b.arr[:0]
	}
	return n.due
}

// Step advances the network one interconnect cycle.
func (n *Network) Step() {
	n.cycle++
	// 1. Hop completions land in the receiving router's pool or IQ.
	for _, a := range n.drainDue() {
		p := a.pkt
		p.Hops++
		if a.at == p.Dst {
			p.DeliverCycle = n.cycle
			n.Delivered = append(n.Delivered, p)
			n.inFlight--
			continue
		}
		rt := n.rts[a.at]
		rt.pool = append(rt.pool, p)
		if u := uint64(len(rt.pool)); u > rt.MaxPool {
			rt.MaxPool = u
		}
		n.activate(a.at)
	}

	// 2. Each active router arbitrates its output channels: transit
	// traffic first (by priority then age — the OQ accepts new packets
	// only when the router has room), then local injections. The walk
	// visits set bits in ascending id order — the same order as the old
	// dense 0..N-1 loop, so RNG consumption and packet outcomes are
	// byte-identical. Arbitration never activates another router within
	// the same cycle (sends land in the wheel for future cycles), so
	// clearing bits mid-walk is safe.
	for w := 0; w < len(n.active); w++ {
		set := n.active[w]
		for set != 0 {
			bit := set & -set
			set &^= bit
			rt := n.rts[w<<6+bits.TrailingZeros64(bit)]
			n.arbitrate(rt)
			if len(rt.pool) == 0 && len(rt.oq) == 0 {
				n.active[w] &^= bit
				n.activeCount--
			}
		}
	}
}

// nextArrival returns the earliest pending arrival cycle: the minimum
// stamp over occupied wheel buckets (a free slot accepts any future
// cycle, so an occupied bucket may sit laps ahead — the scan must read
// stamps, not walk cycles) or the overflow head, whichever is sooner.
// O(wheel slots), paid only when the network is globally idle.
func (n *Network) nextArrival() (int64, bool) {
	next := int64(-1)
	if n.ovHead < len(n.overflow) {
		next = n.overflow[n.ovHead].cycle
	}
	for i := range n.wheel {
		b := &n.wheel[i]
		if len(b.arr) > 0 && (next < 0 || b.cycle < next) {
			next = b.cycle
		}
	}
	if next < 0 {
		return 0, false
	}
	return next, true
}

// FastForward advances the clock across a globally idle window: when no
// router holds work, every in-flight packet is riding a link and the
// cycles until the next arrival provably change no state and consume no
// RNG — ticking them one by one would only burn host time. The jump
// stops one cycle short so the following Step lands exactly on the
// arrival. Returns the number of cycles skipped (0 when any router is
// active, nothing is in flight, or the next arrival is due anyway).
func (n *Network) FastForward() int64 {
	if n.activeCount != 0 || n.inFlight == 0 {
		return 0
	}
	next, ok := n.nextArrival()
	if !ok || next <= n.cycle+1 {
		return 0
	}
	skip := next - 1 - n.cycle
	n.cycle = next - 1
	n.FastForwarded += skip
	return skip
}

// arbitrate assigns packets to free output channels of one router.
func (n *Network) arbitrate(rt *router) {
	neigh := rt.neigh
	taken := rt.taken
	for i, f := range rt.linkFree {
		taken[i] = f > n.cycle
	}

	// Order transit packets by (priority+age) descending, then age.
	order := rt.order[:0]
	for i := range rt.pool {
		order = append(order, i)
	}
	rt.order = order
	eff := func(p *Packet) int { return p.Prio + p.age }
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && eff(rt.pool[order[j]]) > eff(rt.pool[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	remaining := rt.keep[:0]
	channelOf := func(target int) int {
		for i, v := range neigh {
			if v == target {
				return i
			}
		}
		return -1
	}

	sendOut := func(p *Packet, ch int) {
		occ := p.cycles()
		if r := n.flt.HopRetransmits(uint64(rt.id), p.bytes()); r > 0 {
			// Each go-back-N resend re-occupies the channel for the full
			// packet and delays the hop's arrival by the same amount.
			occ += int64(r) * p.cycles()
		}
		rt.linkFree[ch] = n.cycle + occ
		n.schedule(n.cycle+occ, p, neigh[ch])
	}

	for _, idx := range order {
		p := rt.pool[idx]
		// Preferred: any shortest-path channel that is free. Start the
		// scan at a random offset so equal-cost paths share the load
		// (adaptive routing).
		sent := false
		pref := n.next[rt.id][p.Dst]
		off := 0
		if len(pref) > 1 {
			off = n.rng.Intn(len(pref))
		}
		for k := range pref {
			hop := pref[(k+off)%len(pref)]
			if ch := channelOf(hop); ch >= 0 && !taken[ch] {
				taken[ch] = true
				sendOut(p, ch)
				sent = true
				break
			}
		}
		if sent {
			continue
		}
		// Hot potato: deflect out of any free channel, aging the packet
		// so it wins arbitration downstream.
		if len(rt.pool) > n.cfg.BufferPool {
			for ch := range neigh {
				if !taken[ch] {
					taken[ch] = true
					p.age++
					p.Deflections++
					sendOut(p, ch)
					sent = true
					break
				}
			}
		}
		if !sent {
			// Waiting in the buffer also ages the packet, so starved
			// traffic eventually outranks everything else.
			p.age++
			remaining = append(remaining, p)
		}
	}
	// Swap the survivor list into pool; the old pool array becomes next
	// cycle's scratch.
	rt.keep = rt.pool[:0]
	rt.pool = remaining

	// 3. Local injections only when transit traffic left room (the OQ
	// gives priority to transit). Highest priority first; low priority
	// must not block high priority.
	for i := 1; i < len(rt.oq); i++ {
		for j := i; j > 0 && rt.oq[j].Prio > rt.oq[j-1].Prio; j-- {
			rt.oq[j], rt.oq[j-1] = rt.oq[j-1], rt.oq[j]
		}
	}
	// Compact refused injections in place: writes trail reads, so the
	// survivor prefix never clobbers an unvisited entry.
	oqLeft := rt.oq[:0]
	for _, p := range rt.oq {
		sent := false
		for _, hop := range n.next[rt.id][p.Dst] {
			if ch := channelOf(hop); ch >= 0 && !taken[ch] {
				taken[ch] = true
				sendOut(p, ch)
				sent = true
				break
			}
		}
		if !sent {
			rt.Refused++
			oqLeft = append(oqLeft, p)
		}
	}
	rt.oq = oqLeft
}

// Run steps until all injected packets are delivered or maxCycles pass,
// fast-forwarding across globally idle windows. Every packet's delivery
// cycle, hop count and deflection count is identical to a cycle-by-cycle
// drain; only host time changes.
func (n *Network) Run(maxCycles int64) error {
	for limit := n.cycle + maxCycles; n.inFlight > 0; {
		if n.cycle >= limit {
			return fmt.Errorf("noc: %d packets undelivered after %d cycles", n.inFlight, maxCycles)
		}
		n.FastForward()
		n.Step()
	}
	return nil
}

// Stats summarizes delivered-packet telemetry.
type NetStats struct {
	Delivered    int
	AvgLatency   float64 // cycles
	MaxLatency   int64
	AvgHops      float64
	Deflections  uint64
	MaxPoolDepth uint64
	// FastForwarded is the number of cycles Run skipped across globally
	// idle windows (sparse activation's fast-forward).
	FastForwarded int64
}

// Stats computes summary statistics over delivered packets.
func (n *Network) Stats() NetStats {
	s := NetStats{Delivered: len(n.Delivered), FastForwarded: n.FastForwarded}
	var totLat, totHops int64
	for _, p := range n.Delivered {
		lat := p.DeliverCycle - p.InjectCycle
		totLat += lat
		if lat > s.MaxLatency {
			s.MaxLatency = lat
		}
		totHops += int64(p.Hops)
		s.Deflections += uint64(p.Deflections)
	}
	if s.Delivered > 0 {
		s.AvgLatency = float64(totLat) / float64(s.Delivered)
		s.AvgHops = float64(totHops) / float64(s.Delivered)
	}
	for _, rt := range n.rts {
		if rt.MaxPool > s.MaxPoolDepth {
			s.MaxPoolDepth = rt.MaxPool
		}
	}
	return s
}
