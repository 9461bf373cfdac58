package pe

import (
	"piranha/internal/cache"
	"piranha/internal/directory"
	"piranha/internal/fault"
	"piranha/internal/l2"
	"piranha/internal/protocol"
	"piranha/internal/sim"
	"piranha/internal/trace"
)

// Engine units for trace events: home engine 0, remote engine 1.
const (
	unitHE = int16(0)
	unitRE = int16(1)
)

// NodeProto adapts one node's protocol engines to the l2.Remote interface.
type NodeProto struct {
	f  *Fabric
	id NodeID
}

var _ l2.Remote = (*NodeProto)(nil)

// HomeIsLocal implements l2.Remote.
func (p *NodeProto) HomeIsLocal(line cache.LineAddr) bool {
	return p.f.HomeOf(line) == p.id
}

// LocalDirState implements l2.Remote: the partial interpretation of the
// 44-bit entry the L2 controller performs itself.
func (p *NodeProto) LocalDirState(line cache.LineAddr) l2.RemoteState {
	e := p.f.dirEntry(p.f.nodes[p.id], line)
	switch e.State {
	case directory.Uncached:
		return l2.RemoteNone
	case directory.Exclusive:
		return l2.RemoteExclusive
	case directory.Shared, directory.SharedCoarse:
		return l2.RemoteShared
	}
	return l2.RemoteNone
}

// wantsExclusive and replySize defer to the declarative protocol table
// (internal/protocol), the single source of truth for request
// semantics; the model checker in internal/mcheck explores the same
// table, so what the engines execute is what the checker verified.
func wantsExclusive(kind l2.Kind) bool {
	return protocol.WantsExclusive(kind)
}

// replySize is the reply packet size for a request the home services:
// data-carrying replies are a full line, while upgrades and
// exclusive-no-data grants need only the header.
func replySize(kind l2.Kind) int {
	if protocol.ReplyCarriesData(kind) {
		return LongPacket
	}
	return ShortPacket
}

// Fetch implements l2.Remote: it runs a full inter-node transaction.
func (p *NodeProto) Fetch(now sim.Time, kind l2.Kind, line cache.LineAddr) (sim.Time, l2.Svc, bool) {
	f := p.f
	r := f.nodes[p.id]
	h := f.nodes[f.HomeOf(line)]
	wantEx := wantsExclusive(kind)

	if h == r {
		// Home-local line currently owned exclusively by a remote node:
		// the home engine forwards to the owner.
		return f.homeLocalOwnerFetch(now, r, kind, line)
	}

	// Remote home: the remote engine owns the transaction for its whole
	// duration (a TSRF entry in waiting state). A lost message holds
	// the entry until the recovery sweep tick past its timeout; the
	// retry restarts the transaction from that tick.
	for try := 0; try < fault.MaxLossRetries && f.inj.LoseMessage(); try++ {
		now = f.loseAndRecover(r.remote, now)
	}
	hold := r.remote.tsrf.Hold(now)
	r.remote.Stats.Occupancy += f.cfg.RemoteOccupancy
	start := hold.Start() + f.cfg.RemoteOccupancy

	// Request travels to the home on the low-priority lane.
	arrive := r.remote.send(f, start, r.id, h.id, ShortPacket, prioLow)
	done, svc, excl := f.atHome(arrive, h, r.id, kind, line, wantEx)
	r.remote.tsrf.Release(hold, done)
	f.tr.Span(trace.PE, trace.KRemoteTx, uint8(r.id), unitRE, uint64(line.Addr()), now, done, uint32(kind))
	return done, svc, excl
}

// Message priorities (virtual lanes L and H; I/O has its own lane).
const (
	prioLow  = 1
	prioHigh = 2
)

// homeLocalOwnerFetch: the requester is the home; the directory says a
// remote node owns the line. Forward, collect the reply, update the
// directory (immediately — no confirmation message needed).
func (f *Fabric) homeLocalOwnerFetch(now sim.Time, h *node, kind l2.Kind, line cache.LineAddr) (sim.Time, l2.Svc, bool) {
	entry := f.dirEntry(h, line)
	if entry.State != directory.Exclusive {
		// The directory no longer shows a remote owner (e.g. it wrote
		// back in the meantime); the caller's memory data is current.
		return now, l2.SvcLocalMem, entry.State == directory.Uncached
	}
	o := f.nodes[entry.Owner]
	wantEx := wantsExclusive(kind)

	for try := 0; try < fault.MaxLossRetries && f.inj.LoseMessage(); try++ {
		now = f.loseAndRecover(h.home, now)
	}
	hold := h.home.tsrf.Hold(now)
	h.home.Stats.Occupancy += f.cfg.HomeOccupancy
	start := hold.Start() + f.cfg.HomeOccupancy

	fwd := h.home.send(f, start, h.id, o.id, ShortPacket, prioHigh)
	supplied := f.ownerServe(fwd, o, line, wantEx)
	reply := o.remote.send(f, supplied, o.id, h.id, LongPacket, prioHigh)
	f.ThreeHop++

	if wantEx {
		f.setDir(h, line, directory.Clear())
	} else {
		// Owner retains a shared copy; home memory was updated.
		f.setDir(h, line, directory.AddSharer(f.dcfg, directory.Clear(), o.id))
		f.DirtyShares++
	}
	h.home.tsrf.Release(hold, reply)
	f.tr.Span(trace.PE, trace.KHomeTx, uint8(h.id), unitHE, uint64(line.Addr()), now, reply, uint32(kind))
	return reply, l2.SvcRemoteDirty, wantEx
}

// ownerServe runs the owner-side of a forwarded request: the owner's
// remote engine receives it and the owner chip supplies/invalidates.
// Per the no-NAK design the owner can always service the request.
func (f *Fabric) ownerServe(now sim.Time, o *node, line cache.LineAddr, exclusive bool) sim.Time {
	done := o.remote.process(now)
	if o.l2 != nil {
		if onChip, _, t := o.l2.ServeRemote(done, line, exclusive); onChip {
			return t
		}
	}
	return done
}

// baselineRetryDelay is the DASH-style baseline's NAK retry backoff.
const baselineRetryDelay = 100 * sim.Nanosecond

// atHome executes the home side of a remote node's request.
func (f *Fabric) atHome(arrive sim.Time, h *node, req NodeID, kind l2.Kind, line cache.LineAddr, wantEx bool) (sim.Time, l2.Svc, bool) {
	if f.cfg.Baseline {
		// DASH-style: NAK when the home engine is saturated; the
		// requester retries after a backoff.
		for h.home.tsrf.InUse(arrive) >= h.home.tsrf.Size() {
			h.home.Stats.NAKs++
			h.home.Stats.Retries++
			// NAK back + retry request later.
			back := f.send(arrive, h.id, req, ShortPacket, prioHigh)
			arrive = f.send(back+baselineRetryDelay, req, h.id, ShortPacket, prioLow)
		}
	}
	hold := h.home.tsrf.Hold(arrive)
	h.home.Stats.Occupancy += f.cfg.HomeOccupancy
	start := hold.Start() + f.cfg.HomeOccupancy

	entry := f.dirEntry(h, line)

	// Three-hop case: a remote owner (other than the requester) holds it.
	if entry.State == directory.Exclusive && entry.Owner != req {
		o := f.nodes[entry.Owner]
		fwd := h.home.send(f, start, h.id, o.id, ShortPacket, prioHigh)
		// The home's directory update completes immediately; its TSRF
		// entry frees as soon as the forward is sent (key occupancy
		// advantage over the baseline).
		if wantEx {
			f.setDir(h, line, directory.SetExclusive(directory.Entry{}, req))
		} else {
			e := directory.AddSharer(f.dcfg, directory.Clear(), o.id)
			e = directory.AddSharer(f.dcfg, e, req)
			f.setDir(h, line, e)
			f.DirtyShares++
		}
		supplied := f.ownerServe(fwd, o, line, wantEx)
		homeDone := fwd
		if f.cfg.Baseline {
			// Ownership-change confirmation: the owner notifies the
			// home, whose entry stays live until it arrives.
			homeDone = o.remote.send(f, supplied, o.id, h.id, ShortPacket, prioHigh)
		}
		h.home.tsrf.Release(hold, homeDone)
		// Reply forwarding: owner replies straight to the requester.
		reply := o.remote.send(f, supplied, o.id, req, LongPacket, prioHigh)
		f.ThreeHop++
		f.tr.Span(trace.PE, trace.KHomeTx, uint8(h.id), unitHE, uint64(line.Addr()), arrive, homeDone, uint32(kind))
		return reply, l2.SvcRemoteDirty, wantEx
	}

	// The home services the request itself. Obtain the data: from the
	// home chip's caches when present, else from home memory (which also
	// yields the directory's authoritative copy — same DRAM line).
	// ServeRemote changes nothing when the chip does not hold the line.
	var dataReady sim.Time
	suppliedByChip := false
	if h.l2 != nil {
		suppliedByChip, _, dataReady = h.l2.ServeRemote(start, line, wantEx)
	}
	if !suppliedByChip {
		dataReady = start + f.cfg.MemLatency + f.mirrorExtra(start, h, line)
	}

	excl := wantEx
	var ackTime sim.Time
	if wantEx {
		// Invalidate all other remote sharers; eager exclusive reply:
		// the grant does not wait for acknowledgments (they gather at
		// the requester).
		sharers := f.sharersExcept(entry, req)
		ackTime = f.invalidate(start, h, req, line, sharers, entry.State == directory.SharedCoarse)
		if f.cfg.Baseline && ackTime > dataReady {
			// The baseline is strict request-reply: exclusivity waits.
			dataReady = ackTime
		}
		f.setDir(h, line, directory.SetExclusive(directory.Entry{}, req))
	} else {
		if entry.State == directory.Uncached && !suppliedByChip {
			// Clean-exclusive optimization: no other copy exists, so
			// grant E and record the requester as exclusive owner (it
			// may silently dirty the line).
			excl = true
			f.setDir(h, line, directory.SetExclusive(directory.Entry{}, req))
		} else {
			f.setDir(h, line, directory.AddSharer(f.dcfg, entry, req))
		}
	}

	reply := h.home.send(f, dataReady, h.id, req, replySize(kind), prioHigh)
	h.home.tsrf.Release(hold, dataReady)
	svc := l2.SvcRemote
	f.tr.Span(trace.PE, trace.KHomeTx, uint8(h.id), unitHE, uint64(line.Addr()), arrive, reply, uint32(kind))
	return reply, svc, excl
}

// sharersExcept lists a directory entry's nodes excluding skip, in
// ascending order. After a fail-stop, dead nodes are filtered out: the
// reconstruction sweep purges precise pointers, but a coarse vector's
// group bits can still cover the dead node, and no message may ever
// target a dead chip. The returned slice is the fabric's reused scratch
// (valid until the next call), so the cost is O(sharers), not O(nodes)
// plus an allocation per invalidation.
func (f *Fabric) sharersExcept(e directory.Entry, skip NodeID) []NodeID {
	out := f.sharerScratch[:0]
	switch e.State {
	case directory.Uncached:
		// No copies exist anywhere; nothing to invalidate.
	case directory.Exclusive:
		if e.Owner != skip && !(f.anyDead && f.nodes[e.Owner].dead) {
			out = append(out, e.Owner)
		}
	case directory.Shared, directory.SharedCoarse:
		out = e.AppendSharers(f.dcfg, out)
		kept := out[:0]
		for _, n := range out {
			if n != skip && !(f.anyDead && f.nodes[n].dead) {
				kept = append(kept, n)
			}
		}
		out = kept
	}
	f.sharerScratch = out
	return out
}

// cmiFanout is the number of cruise-missile invalidation messages
// injected per write.
const cmiFanout = 4

// invalidate sends invalidations to the given sharer nodes and returns
// the time the final acknowledgment reaches the requesting node. With
// cruise-missile invalidates, only ceil(k/cmiFanout) messages are injected;
// each visits its subset of nodes serially and the last node of each
// route acknowledges. Without CMI the home injects one message per
// sharer (serialized at the home engine) and every sharer acknowledges.
// coarse marks a coarse-vector entry: a visited node with no on-chip
// copy then counts as an over-invalidation (group-granular bookkeeping
// named it a sharer when it never was one).
func (f *Fabric) invalidate(now sim.Time, h *node, req NodeID, line cache.LineAddr, sharers []NodeID, coarse bool) sim.Time {
	if len(sharers) == 0 {
		return now
	}
	f.InvalsSent += uint64(len(sharers))
	var ackTime sim.Time

	visit := func(t sim.Time, n NodeID) sim.Time {
		tgt := f.nodes[n]
		done := tgt.remote.process(t)
		if tgt.l2 != nil {
			if onChip, _, _ := tgt.l2.ServeRemote(done, line, true); !onChip && coarse {
				f.OverInvals++
			}
		}
		return done
	}

	if f.cfg.UseCMI && !f.cfg.Baseline {
		missiles := (len(sharers) + cmiFanout - 1) / cmiFanout
		per := (len(sharers) + missiles - 1) / missiles
		for m := 0; m < missiles; m++ {
			route := sharers[m*per:]
			if len(route) > per {
				route = route[:per]
			}
			if len(route) == 0 {
				continue
			}
			f.InvalMsgs++
			t := h.home.send(f, now, h.id, route[0], ShortPacket, prioHigh)
			t = visit(t, route[0])
			for _, n := range route[1:] {
				t = f.send(t, route[0], n, ShortPacket, prioHigh)
				t = visit(t, n)
			}
			// The final node on the route acknowledges the requester.
			t = f.send(t, route[len(route)-1], req, ShortPacket, prioHigh)
			f.InvalAcks++
			if t > ackTime {
				ackTime = t
			}
		}
		return ackTime
	}

	// Home-broadcast: one message per sharer, injected back-to-back from
	// the home engine, each acknowledged to the requester.
	inject := now
	for _, n := range sharers {
		inject += f.cfg.HomeOccupancy
		f.InvalMsgs++
		t := h.home.send(f, inject, h.id, n, ShortPacket, prioHigh)
		t = visit(t, n)
		t = f.send(t, n, req, ShortPacket, prioHigh)
		f.InvalAcks++
		if t > ackTime {
			ackTime = t
		}
	}
	return ackTime
}

// Invalidate implements l2.Remote: a home-local write must invalidate
// remote sharers. With eager exclusive replies the grant returns after
// the home engine dispatches the invalidations; the acknowledgments
// gather at the requester in the background.
func (p *NodeProto) Invalidate(now sim.Time, line cache.LineAddr) sim.Time {
	f := p.f
	h := f.nodes[p.id]
	entry := f.dirEntry(h, line)
	sharers := f.sharersExcept(entry, p.id)
	if len(sharers) == 0 {
		f.setDir(h, line, directory.Clear())
		return now
	}
	hold := h.home.tsrf.Hold(now)
	h.home.Stats.Occupancy += f.cfg.HomeOccupancy
	start := hold.Start() + f.cfg.HomeOccupancy
	ack := f.invalidate(start, h, p.id, line, sharers, entry.State == directory.SharedCoarse)
	f.setDir(h, line, directory.Clear())
	grant := start
	if f.cfg.Baseline {
		grant = ack // strict request-reply: wait for all acks
	}
	h.home.tsrf.Release(hold, grant)
	return grant
}

// Writeback implements l2.Remote: a dirty remote-homed line leaves the
// chip. The writer holds a valid copy until the home acknowledges, which
// is what guarantees forwarded requests never NAK; the latency is off the
// critical path.
func (p *NodeProto) Writeback(now sim.Time, line cache.LineAddr) {
	f := p.f
	r := f.nodes[p.id]
	h := f.nodes[f.HomeOf(line)]
	for try := 0; try < fault.MaxLossRetries && f.inj.LoseMessage(); try++ {
		now = f.loseAndRecover(r.remote, now)
	}
	hold := r.remote.tsrf.Hold(now)
	start := hold.Start() + f.cfg.RemoteOccupancy
	arrive := r.remote.send(f, start, r.id, h.id, LongPacket, prioHigh)
	done := h.home.process(arrive)
	// Home acknowledges; the writer's copy (and TSRF entry) persists
	// until then.
	ackBack := h.home.send(f, done, h.id, r.id, ShortPacket, prioHigh)
	r.remote.tsrf.Release(hold, ackBack)
	f.tr.Span(trace.PE, trace.KRemoteTx, uint8(r.id), unitRE, uint64(line.Addr()), now, ackBack, 0)

	e := f.dirEntry(h, line)
	if e.State == directory.Exclusive && e.Owner == r.id {
		f.setDir(h, line, directory.Clear())
	}
}
