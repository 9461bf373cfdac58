// Package mcheck is a bounded model checker for the protocol tables of
// internal/protocol: it exhaustively enumerates the
// reachable states of an N-node micro-system (2–4 nodes, one cache
// line, home at node 0) under all message interleavings and proves the
// §3.5 safety claims — NAK-freedom (every reception is specified),
// deadlock-freedom, no stale-data reads, and TSRF occupancy bounds —
// that the simulator's recovery sweep can only spot-check dynamically.
//
// The abstract machine follows the Guarded Action Language approach:
// protocol state is (directory entry, per-node line kind + abstract
// data version, in-flight messages, TSRF occupancy), and a rule firing
// is atomic. Data is a version counter: every store increments the
// global version, so "a reader always observes the last writer's
// value" becomes an equality check at each supply and fill. The
// directory entry is carried in its *encoded* 44-bit form, decoded once
// per expanded state and round-tripped on every write, so exploration
// also exercises the Encode/Decode codec across every sharer-bitset
// shape it can reach.
//
// Messages travel on per-(src,dst) FIFO channels, matching the fabric's
// ordered virtual lanes: messages between the same pair never reorder,
// while messages on different channels interleave arbitrarily. That is
// exactly the race surface the protocol's absorb rules (stale
// invalidations, stale writebacks, early forwards) exist for.
package mcheck

import (
	"fmt"
	"strings"

	"piranha/internal/directory"
	"piranha/internal/l2"
	"piranha/internal/protocol"
)

// maxNodes is the largest micro-system the checker explores. The state
// arrays are sized for it; Config.Nodes selects the live prefix.
const maxNodes = 4

// home is the node index holding the line's directory and memory.
const home = 0

// msg is one in-flight protocol message.
type msg struct {
	kind      protocol.MsgKind
	src, dst  uint8
	req       l2.Kind // request kind (MsgReq, MsgFwd only)
	requester uint8   // reply/ack target (MsgReq, MsgFwd, MsgInval)
	val       uint8   // data version carried (replies, writebacks)
	hasData   bool
	excl      bool // reply grants exclusivity
}

func (m msg) String() string {
	s := fmt.Sprintf("%v %d->%d", m.kind, m.src, m.dst)
	switch m.kind {
	case protocol.MsgReq, protocol.MsgFwd:
		s += fmt.Sprintf(" %s for n%d", protocol.KindSlug(m.req), m.requester)
	case protocol.MsgInval:
		s += fmt.Sprintf(" ack to n%d", m.requester)
	case protocol.MsgReply:
		if m.hasData {
			s += fmt.Sprintf(" data v%d", m.val)
		} else {
			s += " grant"
		}
		if m.excl {
			s += " excl"
		}
	case protocol.MsgWB, protocol.MsgShareWB:
		s += fmt.Sprintf(" v%d", m.val)
	}
	return s
}

// nodeState is one node's slice of the protocol state.
type nodeState struct {
	line    protocol.LineKind
	val     uint8 // data version held (meaningful when line != invalid)
	pend    l2.Kind
	hasPend bool  // a fill transaction is outstanding
	wb      bool  // a writeback awaits its ack
	inv     bool  // the pending shared fill was overtaken by an invalidation
	acks    uint8 // invalidation acks still owed to this node
	tsrf    uint8 // occupied TSRF entries
}

// maxMsgs is the most messages a state holds in flight, over all its
// channels: twice the most any check reaches (7, at 4 nodes and 4 or 5
// operations, at 3 nodes and 6 or 7, and under every cataloged mutation
// at 2–4 nodes). A send past it is the InvMsgCapacity violation.
const maxMsgs = 16

// state is one configuration of the micro-system. It holds no pointer,
// so a successor is a plain assignment of its parent. The directory
// entry is stored encoded (44 bits), so every reachable entry is decoded
// and every written one round-trips the codec.
type state struct {
	dir   uint64
	mem   uint8 // memory's data version
	cur   uint8 // latest written version (abstract global clock)
	ops   uint8 // processor operations consumed (bounds the space)
	nodes [maxNodes]nodeState
	// counts[channel(src, dst)] is the number of messages on the FIFO
	// channel between a node pair.
	counts [maxNodes * maxNodes]uint8
	// msgs holds the messages in flight channel after channel, in
	// channel order (source-major, as the key lists them), each channel
	// head first. Slots past the last message may hold stale messages:
	// nothing reads them.
	msgs [maxMsgs]msg
}

// channel returns the index of the channel from src to dst in
// state.counts.
func channel(src, dst int) int { return src*maxNodes + dst }

// inFlight returns the number of messages in flight.
func (s *state) inFlight() int {
	n := 0
	for _, c := range s.counts {
		n += int(c)
	}
	return n
}

// push appends m to the tail of its channel, moving the later channels'
// messages one slot up. A state with maxMsgs messages in flight takes
// no more: push returns an InvMsgCapacity violation and leaves s alone.
func (s *state) push(m msg) error {
	c := channel(int(m.src), int(m.dst))
	end, total := 0, 0
	for i, n := range s.counts {
		total += int(n)
		if i == c {
			end = total
		}
	}
	if total == maxMsgs {
		return &violationErr{InvMsgCapacity,
			fmt.Sprintf("node %d cannot send %v: %d messages are in flight, as many as a state holds", m.src, m, total)}
	}
	copy(s.msgs[end+1:total+1], s.msgs[end:total])
	s.msgs[end] = m
	s.counts[c]++
	return nil
}

// pop removes the head of channel c, which lies at slot off, moving the
// later messages one slot down.
func (s *state) pop(c, off int) {
	copy(s.msgs[off:], s.msgs[off+1:])
	s.counts[c]--
}

// Flag bits of the canonical key's node and message flag bytes.
const (
	keyPend    = 1 // nodeState.hasPend
	keyWB      = 2 // nodeState.wb
	keyPoison  = 4 // nodeState.inv
	keyHasData = 1 // msg.hasData
	keyExcl    = 2 // msg.excl
)

// appendKey appends the state's canonical byte form to b: the 6-byte
// directory entry, mem, cur and ops, 6 bytes per node, then per channel
// (src-major) a length byte and 7 bytes per message. Field order is
// fixed, so equal states produce equal keys and the visited set is
// deterministic. The key is the explorer's only stored copy of a visited
// state: decode inverts it exactly.
func (s *state) appendKey(b []byte, nodes int) []byte {
	b = append(b,
		byte(s.dir), byte(s.dir>>8), byte(s.dir>>16), byte(s.dir>>24),
		byte(s.dir>>32), byte(s.dir>>40),
		s.mem, s.cur, s.ops)
	for n := 0; n < nodes; n++ {
		nd := &s.nodes[n]
		flags := byte(0)
		if nd.hasPend {
			flags |= keyPend
		}
		if nd.wb {
			flags |= keyWB
		}
		if nd.inv {
			flags |= keyPoison
		}
		b = append(b, byte(nd.line), nd.val, byte(nd.pend), flags, nd.acks, nd.tsrf)
	}
	off := 0
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			n := int(s.counts[channel(src, dst)])
			b = append(b, byte(n))
			for _, m := range s.msgs[off : off+n] {
				flags := byte(0)
				if m.hasData {
					flags |= keyHasData
				}
				if m.excl {
					flags |= keyExcl
				}
				b = append(b, byte(m.kind), m.src, m.dst, byte(m.req), m.requester, m.val, flags)
			}
			off += n
		}
	}
	return b
}

// decode overwrites s with the state whose canonical key (built by
// appendKey for the same node count) is k; k is only read. Message slots
// past the last message keep what they held.
func (s *state) decode(k []byte, nodes int) {
	s.dir = uint64(k[0]) | uint64(k[1])<<8 | uint64(k[2])<<16 |
		uint64(k[3])<<24 | uint64(k[4])<<32 | uint64(k[5])<<40
	s.mem, s.cur, s.ops = k[6], k[7], k[8]
	k = k[9:]
	for n := 0; n < nodes; n++ {
		s.nodes[n] = nodeState{
			line: protocol.LineKind(k[0]), val: k[1], pend: l2.Kind(k[2]),
			hasPend: k[3]&keyPend != 0, wb: k[3]&keyWB != 0, inv: k[3]&keyPoison != 0,
			acks: k[4], tsrf: k[5],
		}
		k = k[6:]
	}
	s.counts = [maxNodes * maxNodes]uint8{}
	off := 0
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			s.counts[channel(src, dst)] = k[0]
			count := int(k[0])
			k = k[1:]
			for i := 0; i < count; i++ {
				s.msgs[off] = msg{
					kind: protocol.MsgKind(k[0]), src: k[1], dst: k[2], req: l2.Kind(k[3]),
					requester: k[4], val: k[5],
					hasData: k[6]&keyHasData != 0, excl: k[6]&keyExcl != 0,
				}
				off++
				k = k[7:]
			}
		}
	}
}

// quiescent reports whether no messages are in flight.
func (s *state) quiescent() bool {
	return s.counts == [maxNodes * maxNodes]uint8{}
}

// invalInFlightTo reports whether any channel carries an invalidation
// addressed to node n.
func (s *state) invalInFlightTo(n int) bool {
	for _, m := range s.msgs[:s.inFlight()] {
		if m.kind == protocol.MsgInval && int(m.dst) == n {
			return true
		}
	}
	return false
}

// summary renders the state for counterexample steps.
func (s *state) summary(nodes int, dcfg directory.Config) string {
	e := directory.Decode(dcfg, s.dir)
	var sb strings.Builder
	switch e.State {
	case directory.Exclusive:
		fmt.Fprintf(&sb, "dir=E(n%d)", e.Owner)
	case directory.Shared, directory.SharedCoarse:
		fmt.Fprintf(&sb, "dir=%v%v", e.State, e.AppendSharers(dcfg, nil))
	default:
		sb.WriteString("dir=uncached")
	}
	fmt.Fprintf(&sb, " mem=v%d cur=v%d", s.mem, s.cur)
	for n := 0; n < nodes; n++ {
		nd := &s.nodes[n]
		fmt.Fprintf(&sb, " n%d=%v", n, nd.line)
		if nd.line != protocol.LineInvalid {
			fmt.Fprintf(&sb, "/v%d", nd.val)
		}
		if nd.hasPend {
			fmt.Fprintf(&sb, "+pend:%s", protocol.KindSlug(nd.pend))
		}
		if nd.wb {
			sb.WriteString("+wb")
		}
		if nd.inv {
			sb.WriteString("+poison")
		}
		if nd.acks > 0 {
			fmt.Fprintf(&sb, "+acks:%d", nd.acks)
		}
	}
	if msgs := s.inFlight(); msgs > 0 {
		fmt.Fprintf(&sb, " msgs=%d", msgs)
	}
	return sb.String()
}

// violationErr carries an invariant violation out of the interpreter.
type violationErr struct {
	invariant string
	detail    string
}

func (v *violationErr) Error() string { return v.invariant + ": " + v.detail }

// Invariant identifiers, shared with the mutation self-test catalog in
// internal/protocol.
const (
	InvUnspecified  = "unspecified-reception"
	InvReachedHole  = "reached-hole"
	InvDeadlock     = "deadlock"
	InvStaleSupply  = "stale-supply"
	InvStaleFill    = "stale-fill"
	InvStaleSharer  = "stale-sharer"
	InvMultiWriter  = "multiple-writers"
	InvWriteGrant   = "write-not-granted"
	InvTSRFBound    = "tsrf-bound"
	InvTSRFLeak     = "tsrf-leak"
	InvAckAccount   = "ack-accounting"
	InvMemStale     = "mem-stale"
	InvCodec        = "directory-codec"
	InvLostTransact = "lost-transaction"
	InvMsgCapacity  = "message-capacity"
)

// interp probes one rule's guard on the current state, then applies
// the rule to the successor (st moves to it). m is nil for spontaneous
// rules; actor is the node the rule fires at. It returns delayed=true
// when the rule elected to leave the message in place (OpDelay).
type interp struct {
	cfg  *Config
	st   *state
	rule *protocol.Rule
	act  int
	m    *msg

	entry     *directory.Entry // directory at rule entry, read-only
	requester uint8
	reqKind   l2.Kind
	data      uint8
	hasData   bool
	cleanEx   bool
}

func (in *interp) node() *nodeState { return &in.st.nodes[in.act] }

func (in *interp) setDir(e directory.Entry) error {
	bits, err := directory.Encode(in.cfg.dcfg, e)
	if err != nil {
		return &violationErr{InvCodec, fmt.Sprintf("encoding %+v: %v", e, err)}
	}
	back := directory.Decode(in.cfg.dcfg, bits)
	if back.State != e.State {
		return &violationErr{InvCodec, fmt.Sprintf("entry %+v decoded as state %v", e, back.State)}
	}
	in.st.dir = bits
	return nil
}

// run applies the rule's opcodes in order. A returned violationErr
// aborts at the faulting opcode; the partially-applied state is the
// violation's final trace step.
func (in *interp) run() (delayed bool, err error) {
	s, nd := in.st, in.node()
	for _, op := range in.rule.Do {
		switch op {
		case protocol.OpSendReq:
			err = s.push(msg{kind: protocol.MsgReq, src: uint8(in.act), dst: home,
				req: in.reqKind, requester: uint8(in.act)})
			nd.pend, nd.hasPend = in.reqKind, true

		case protocol.OpReserveTSRF:
			if int(nd.tsrf) >= in.cfg.TSRFEntries {
				return false, &violationErr{InvTSRFBound,
					fmt.Sprintf("node %d exceeds %d TSRF entries", in.act, in.cfg.TSRFEntries)}
			}
			nd.tsrf++

		case protocol.OpReleaseTSRF:
			if nd.tsrf == 0 {
				return false, &violationErr{InvTSRFBound,
					fmt.Sprintf("node %d releases an unreserved TSRF entry", in.act)}
			}
			nd.tsrf--

		case protocol.OpSupplyHome:
			if s.nodes[home].line != protocol.LineInvalid {
				in.data = s.nodes[home].val
			} else {
				in.data = s.mem
			}
			in.hasData = true
			if in.data != s.cur {
				return false, &violationErr{InvStaleSupply,
					fmt.Sprintf("home supplies v%d but the last write is v%d", in.data, s.cur)}
			}

		case protocol.OpSupplyOwn:
			in.data, in.hasData = nd.val, true
			if in.data != s.cur {
				return false, &violationErr{InvStaleSupply,
					fmt.Sprintf("owner n%d supplies v%d but the last write is v%d", in.act, in.data, s.cur)}
			}

		case protocol.OpReplyData:
			err = s.push(msg{kind: protocol.MsgReply, src: uint8(in.act), dst: in.requester,
				val: in.data, hasData: true,
				excl: protocol.WantsExclusive(in.reqKind) || in.cleanEx})

		case protocol.OpReplyGrant:
			err = s.push(msg{kind: protocol.MsgReply, src: uint8(in.act), dst: in.requester,
				excl: true})

		case protocol.OpForwardReq:
			err = s.push(msg{kind: protocol.MsgFwd, src: uint8(in.act), dst: uint8(in.entry.Owner),
				req: in.reqKind, requester: in.requester})
			if in.m == nil {
				// The home itself is the requester (home-local miss on a
				// remotely-owned line): it waits for the owner's reply.
				nd.pend, nd.hasPend = in.reqKind, true
			}

		case protocol.OpInvalSharers:
			var buf [maxNodes]directory.NodeID
			for _, sh := range in.sharersExceptRequester(buf[:]) {
				if err = s.push(msg{kind: protocol.MsgInval, src: uint8(in.act), dst: uint8(sh),
					requester: in.requester}); err != nil {
					break
				}
				s.nodes[in.requester].acks++
			}

		case protocol.OpInvalHome:
			s.nodes[home].line = protocol.LineInvalid

		case protocol.OpDowngradeHome:
			if s.nodes[home].line == protocol.LineExclusive {
				// A dirty home copy writes through on downgrade: home data
				// and directory live in the same local DRAM line, so the
				// home chip's dirty share refreshes memory as it is read —
				// without this, a later silent eviction of the home's
				// shared copy would strand the only current value.
				s.mem = s.nodes[home].val
				s.nodes[home].line = protocol.LineShared
			}

		case protocol.OpDirReadGrant:
			var e directory.Entry
			if in.entry.State == directory.Uncached && s.nodes[home].line == protocol.LineInvalid {
				// Clean-exclusive optimization: no copy exists anywhere.
				e = directory.SetExclusive(directory.Entry{}, directory.NodeID(in.requester))
				in.cleanEx = true
			} else {
				e = directory.AddSharer(in.cfg.dcfg, *in.entry, directory.NodeID(in.requester))
			}
			err = in.setDir(e)

		case protocol.OpDirSetExclusiveReq:
			err = in.setDir(directory.SetExclusive(directory.Entry{}, directory.NodeID(in.requester)))

		case protocol.OpDirShareOwnerReq:
			e := directory.AddSharer(in.cfg.dcfg, directory.Clear(), in.entry.Owner)
			if in.requester != home {
				e = directory.AddSharer(in.cfg.dcfg, e, directory.NodeID(in.requester))
			}
			err = in.setDir(e)

		case protocol.OpDirClear:
			err = in.setDir(directory.Clear())

		case protocol.OpFill:
			err = in.fill()

		case protocol.OpInvalidateLine:
			nd.line = protocol.LineInvalid

		case protocol.OpDowngradeLine:
			if nd.line == protocol.LineExclusive {
				nd.line = protocol.LineShared
			}

		case protocol.OpAckRequester:
			err = s.push(msg{kind: protocol.MsgInvAck, src: uint8(in.act), dst: in.requester})

		case protocol.OpGatherAck:
			if nd.acks == 0 {
				return false, &violationErr{InvAckAccount,
					fmt.Sprintf("node %d received an invalidation ack with none owed", in.act)}
			}
			nd.acks--

		case protocol.OpUpdateMem:
			if in.m != nil && (in.m.kind == protocol.MsgWB || in.m.kind == protocol.MsgShareWB) {
				s.mem = in.m.val
			} else {
				s.mem = nd.val
			}

		case protocol.OpSendWB:
			err = s.push(msg{kind: protocol.MsgWB, src: uint8(in.act), dst: home,
				val: nd.val, hasData: true})
			nd.wb = true

		case protocol.OpSendShareWB:
			err = s.push(msg{kind: protocol.MsgShareWB, src: uint8(in.act), dst: home,
				val: nd.val, hasData: true})

		case protocol.OpAckWB:
			err = s.push(msg{kind: protocol.MsgWBAck, src: uint8(in.act), dst: in.m.src})

		case protocol.OpWriteLocal:
			if nd.line != protocol.LineExclusive {
				return false, &violationErr{InvWriteGrant,
					fmt.Sprintf("node %d writes a %v line", in.act, nd.line)}
			}
			s.cur++
			nd.val = s.cur

		case protocol.OpComplete:
			if in.m != nil && in.m.kind == protocol.MsgWBAck {
				nd.wb = false
				break
			}
			pendK := nd.pend
			nd.hasPend, nd.pend = false, 0
			if protocol.WantsExclusive(pendK) {
				// The store that motivated the miss retires now.
				if nd.line != protocol.LineExclusive {
					return false, &violationErr{InvWriteGrant,
						fmt.Sprintf("node %d completes %s holding a %v line", in.act, protocol.KindSlug(pendK), nd.line)}
				}
				s.cur++
				nd.val = s.cur
			}

		case protocol.OpDelay:
			return true, nil

		case protocol.OpPoisonFill:
			nd.inv = true

		default:
			return false, &violationErr{InvUnspecified, fmt.Sprintf("unknown opcode %v", op)}
		}
		if err != nil {
			return false, err
		}
	}
	return false, nil
}

// fill installs a grant or data at the acting node. Two contexts: a
// reply reception, or a home-local (spontaneous) miss service.
func (in *interp) fill() error {
	nd := in.node()
	if in.m != nil {
		// Reply reception: the pending kind says what the fill means.
		pendK := nd.pend
		if in.m.hasData {
			nd.val = in.m.val
			if in.m.excl {
				nd.line = protocol.LineExclusive
			} else {
				nd.line = protocol.LineShared
			}
			if nd.inv {
				// An invalidation overtook this fill: the data satisfies
				// the pending load once and is not cached.
				nd.line = protocol.LineInvalid
				nd.inv = false
			}
			return nil
		}
		// Header-only grant.
		switch pendK {
		case l2.Upgrade:
			if nd.line != protocol.LineShared {
				return &violationErr{InvStaleFill,
					fmt.Sprintf("node %d holds no copy but its upgrade was granted without data", in.act)}
			}
			if nd.val != in.st.cur {
				return &violationErr{InvStaleFill,
					fmt.Sprintf("node %d promotes a stale v%d copy to exclusive (last write v%d)", in.act, nd.val, in.st.cur)}
			}
			nd.line = protocol.LineExclusive
		case l2.ReadExNoData:
			// The requester overwrites the whole line; the completion
			// write supplies the value.
			nd.line = protocol.LineExclusive
		default:
			return &violationErr{InvStaleFill,
				fmt.Sprintf("node %d asked for data (%s) but was granted none", in.act, protocol.KindSlug(pendK))}
		}
		return nil
	}
	// Home-local miss service (no message): the directory state at rule
	// entry decides the local fill kind, as the L2's duplicate tags do.
	if in.hasData {
		nd.val = in.data
	}
	if in.reqKind == l2.Read {
		if in.entry.State == directory.Uncached {
			nd.line = protocol.LineExclusive // local clean-exclusive
		} else {
			nd.line = protocol.LineShared
		}
		return nil
	}
	if in.reqKind == l2.Upgrade && nd.val != in.st.cur {
		return &violationErr{InvStaleFill,
			fmt.Sprintf("home promotes a stale v%d copy to exclusive (last write v%d)", nd.val, in.st.cur)}
	}
	nd.line = protocol.LineExclusive
	return nil
}

// sharersExceptRequester lists the directory's nodes minus the
// requester, in ascending order (invalidation fan-out order), in buf.
func (in *interp) sharersExceptRequester(buf []directory.NodeID) []directory.NodeID {
	out := buf[:0]
	switch in.entry.State {
	case directory.Uncached:
	case directory.Exclusive:
		if in.entry.Owner != directory.NodeID(in.requester) {
			out = append(out, in.entry.Owner)
		}
	case directory.Shared, directory.SharedCoarse:
		out = in.entry.AppendSharers(in.cfg.dcfg, out)
		kept := out[:0]
		for _, n := range out {
			if n != directory.NodeID(in.requester) {
				kept = append(kept, n)
			}
		}
		out = kept
	}
	return out
}

// guardHolds evaluates a rule's guard against the current state.
func (in *interp) guardHolds() bool {
	nd := in.node()
	switch in.rule.When {
	case protocol.GAlways:
		return true
	case protocol.GReqIsSharer:
		return in.entry.HasSharer(in.cfg.dcfg, directory.NodeID(in.requester))
	case protocol.GReqNotSharer:
		return !in.entry.HasSharer(in.cfg.dcfg, directory.NodeID(in.requester))
	case protocol.GOwnerNotReq:
		return in.entry.Owner != directory.NodeID(in.requester)
	case protocol.GSenderIsOwner:
		return in.entry.State == directory.Exclusive && in.entry.Owner == directory.NodeID(in.m.src)
	case protocol.GSenderNotOwner:
		return in.entry.State != directory.Exclusive || in.entry.Owner != directory.NodeID(in.m.src)
	case protocol.GNoPending:
		return !nd.hasPend && !nd.wb && nd.tsrf == 0
	case protocol.GPendingFill:
		return nd.hasPend
	case protocol.GPendingWB:
		return nd.wb
	case protocol.GEngineBusy:
		return nd.tsrf > 0
	case protocol.GPendingShareFill:
		return nd.hasPend && !protocol.WantsExclusive(nd.pend)
	}
	return false
}
