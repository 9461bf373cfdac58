// The shipped protocol: Piranha's NAK-free invalidation-based directory
// protocol (ISCA 2000 §2.5, §3.5) as a declarative table. The rules are
// extracted one-for-one from the dispatch in internal/pe/transactions.go:
//
//   - reply forwarding: a request that hits a remote exclusive owner is
//     forwarded once and the owner replies straight to the requester
//     (three hops, never four);
//   - eager exclusive replies: exclusivity is granted before the
//     invalidation acks return; the acks gather at the requester;
//   - clean-exclusive optimization: a read of an uncached line with no
//     home-chip copy is granted exclusively;
//   - no NAKs: the directory is updated eagerly at the forward point, a
//     replaced exclusive line is held by its writer until the home
//     acknowledges the writeback, and a forwarded request that races
//     ahead of its target's fill is delayed, not bounced.
//
// One deliberate refinement over pe's timing model: pe sizes every
// upgrade reply as a header-only packet (it models no data), but an
// upgrade whose requester has dropped out of the sharer set — the copy
// was invalidated or silently evicted while the upgrade was in flight —
// must be answered with data (q-upgrade-miss-*). The model checker
// proves why: a no-data grant landing on an invalid line is a stale
// read, exactly the bug the wrong-reply-kind mutation plants.
package protocol

import (
	"piranha/internal/directory"
	"piranha/internal/l2"
)

// WantsExclusive maps a request kind to whether the transaction must
// end with the requester holding the line exclusively. The switch is
// exhaustive over l2.Kind so that adding a request kind without
// deciding its ownership semantics fails piranha-vet's protocol-table
// check rather than silently defaulting; internal/pe drives its
// dispatch off this predicate.
func WantsExclusive(kind l2.Kind) bool {
	switch kind {
	case l2.Read:
		return false
	case l2.ReadEx, l2.Upgrade, l2.ReadExNoData:
		return true
	}
	panic("protocol: unknown request kind")
}

// ReplyCarriesData reports whether the home's reply to a request it
// services itself carries the full line: reads and read-exclusives do,
// while upgrades and write-hint grants are header-only. pe maps this to
// its long/short packet sizes.
func ReplyCarriesData(kind l2.Kind) bool {
	switch kind {
	case l2.Read, l2.ReadEx:
		return true
	case l2.Upgrade, l2.ReadExNoData:
		return false
	}
	panic("protocol: unknown request kind")
}

// KindSlug is the request kind's name inside rule identifiers: the
// protocol's view (write/upgrade/wh64) rather than the cache's
// (ReadEx/Upgrade/ReadExNoData).
func KindSlug(kind l2.Kind) string {
	switch kind {
	case l2.Read:
		return "read"
	case l2.ReadEx:
		return "write"
	case l2.Upgrade:
		return "upgrade"
	case l2.ReadExNoData:
		return "wh64"
	}
	panic("protocol: unknown request kind")
}

// dirSlug names a directory state inside rule identifiers.
func dirSlug(dir directory.State) string {
	switch dir {
	case directory.Uncached:
		return "uncached"
	case directory.Shared:
		return "shared"
	case directory.SharedCoarse:
		return "shared-coarse"
	case directory.Exclusive:
		return "owned"
	}
	panic("protocol: unknown directory state")
}

// Piranha builds a fresh copy of the shipped protocol's table. Callers
// that want to mutate it (the mcheck self-test) get their own instance;
// the package's Spec holds another.
func Piranha() *Table {
	t := &Table{}
	t.Rules = append(t.Rules, issueRules()...)
	// The §3.5 deferral: while the home engine holds a TSRF entry for
	// the line (a forwarded transaction's sharing writeback or reply is
	// still due), same-line requests wait in their channel. This rule
	// precedes every q-* rule so reception dispatch hits it first.
	t.Rules = append(t.Rules, Rule{
		Name: "q-defer", Role: RoleHome, Dir: DirAny, Line: LineAny,
		Msg: MsgReq, Req: ReqAny, When: GEngineBusy, Do: []Op{OpDelay},
	})
	for _, dir := range DirStates {
		t.Rules = append(t.Rules, homeIssueRules(dir)...)
		t.Rules = append(t.Rules, homeRequestRules(dir)...)
	}
	t.Rules = append(t.Rules, forwardRules()...)
	t.Rules = append(t.Rules, invalRules()...)
	t.Rules = append(t.Rules, replyRules()...)
	t.Rules = append(t.Rules, writebackRules()...)
	t.Holes = holes()
	return t
}

// issueRules are the processor-driven starts at a node that is not the
// line's home: misses reserve a remote-engine TSRF entry and send the
// request; hits and evictions act locally. An exclusive eviction sends
// a writeback but holds the copy until the home's ack (§3.5) — that
// hold is what lets forwardRules serve every forwarded request.
func issueRules() []Rule {
	var out []Rule
	for _, req := range RequestKinds {
		line := LineInvalid
		if req == l2.Upgrade {
			line = LineShared
		}
		out = append(out, Rule{
			Name: "issue-" + KindSlug(req), Role: RoleRemote,
			Dir: DirAny, Line: line, Msg: MsgNone, Req: req, When: GNoPending,
			Do: []Op{OpReserveTSRF, OpSendReq},
		})
	}
	return append(out,
		Rule{Name: "write-hit", Role: RoleAny, Dir: DirAny, Line: LineExclusive,
			Msg: MsgNone, Req: ReqAny, When: GNoPending, Do: []Op{OpWriteLocal}},
		Rule{Name: "evict-shared", Role: RoleAny, Dir: DirAny, Line: LineShared,
			Msg: MsgNone, Req: ReqAny, When: GNoPending, Do: []Op{OpInvalidateLine}},
		Rule{Name: "evict-exclusive", Role: RoleRemote, Dir: DirAny, Line: LineExclusive,
			Msg: MsgNone, Req: ReqAny, When: GNoPending, Do: []Op{OpReserveTSRF, OpSendWB}},
		Rule{Name: "evict-exclusive-home", Role: RoleHome, Dir: DirAny, Line: LineExclusive,
			Msg: MsgNone, Req: ReqAny, When: GNoPending, Do: []Op{OpUpdateMem, OpInvalidateLine}},
	)
}

// homeIssueRules are the same processor-driven starts at the home node,
// where the directory is a local lookup and no request message exists:
// the home services itself (its own copies are never recorded in the
// directory, §2.5.2), invalidates remote sharers with the acks
// gathering locally, or — when a remote node owns the line — becomes a
// requester itself and forwards (pe's homeLocalOwnerFetch).
func homeIssueRules(dir directory.State) []Rule {
	slug := dirSlug(dir)
	switch dir {
	case directory.Uncached:
		return []Rule{
			{Name: "h-read-" + slug, Role: RoleHome, Dir: dir, Line: LineInvalid,
				Msg: MsgNone, Req: l2.Read, When: GNoPending,
				Do: []Op{OpSupplyHome, OpFill}},
			{Name: "h-write-" + slug, Role: RoleHome, Dir: dir, Line: LineInvalid,
				Msg: MsgNone, Req: l2.ReadEx, When: GNoPending,
				Do: []Op{OpSupplyHome, OpFill, OpWriteLocal}},
			{Name: "h-upgrade-" + slug, Role: RoleHome, Dir: dir, Line: LineShared,
				Msg: MsgNone, Req: l2.Upgrade, When: GNoPending,
				Do: []Op{OpFill, OpWriteLocal}},
			{Name: "h-wh64-" + slug, Role: RoleHome, Dir: dir, Line: LineInvalid,
				Msg: MsgNone, Req: l2.ReadExNoData, When: GNoPending,
				Do: []Op{OpFill, OpWriteLocal}},
		}
	case directory.Shared, directory.SharedCoarse:
		return []Rule{
			{Name: "h-read-" + slug, Role: RoleHome, Dir: dir, Line: LineInvalid,
				Msg: MsgNone, Req: l2.Read, When: GNoPending,
				Do: []Op{OpSupplyHome, OpFill}},
			{Name: "h-write-" + slug, Role: RoleHome, Dir: dir, Line: LineInvalid,
				Msg: MsgNone, Req: l2.ReadEx, When: GNoPending,
				Do: []Op{OpSupplyHome, OpInvalSharers, OpDirClear, OpFill, OpWriteLocal}},
			{Name: "h-upgrade-" + slug, Role: RoleHome, Dir: dir, Line: LineShared,
				Msg: MsgNone, Req: l2.Upgrade, When: GNoPending,
				Do: []Op{OpInvalSharers, OpDirClear, OpFill, OpWriteLocal}},
			{Name: "h-wh64-" + slug, Role: RoleHome, Dir: dir, Line: LineInvalid,
				Msg: MsgNone, Req: l2.ReadExNoData, When: GNoPending,
				Do: []Op{OpInvalSharers, OpDirClear, OpFill, OpWriteLocal}},
		}
	case directory.Exclusive:
		var out []Rule
		for _, req := range RequestKinds {
			line := LineInvalid
			if req == l2.Upgrade {
				line = LineShared
			}
			do := []Op{OpReserveTSRF, OpForwardReq, OpDirClear}
			if !WantsExclusive(req) {
				// The remote owner keeps a shared copy; the home's own
				// copy-to-be is not recorded.
				do = []Op{OpReserveTSRF, OpForwardReq, OpDirShareOwnerReq}
			}
			out = append(out, Rule{
				Name: "h-" + KindSlug(req) + "-" + slug, Role: RoleHome,
				Dir: dir, Line: line, Msg: MsgNone, Req: req, When: GNoPending,
				Do: do,
			})
		}
		return out
	}
	panic("protocol: unknown directory state")
}

// homeRequestRules service a remote node's request at the home. The
// directory is updated eagerly — at the reply or forward point — so the
// home engine's occupancy ends here; subsequent races are absorbed by
// the forward/inval/reply rules, never NAKed.
func homeRequestRules(dir directory.State) []Rule {
	slug := dirSlug(dir)
	switch dir {
	case directory.Uncached:
		return []Rule{
			{Name: "q-read-" + slug, Dir: dir, Line: LineAny, Msg: MsgReq, Req: l2.Read,
				When: GAlways,
				Do:   []Op{OpSupplyHome, OpDowngradeHome, OpDirReadGrant, OpReplyData}},
			{Name: "q-write-" + slug, Dir: dir, Line: LineAny, Msg: MsgReq, Req: l2.ReadEx,
				When: GAlways,
				Do:   []Op{OpSupplyHome, OpInvalHome, OpDirSetExclusiveReq, OpReplyData}},
			// An upgrade that finds the line uncached lost every race: the
			// requester's copy (and everyone else's) is gone, so the grant
			// must carry data.
			{Name: "q-upgrade-racer", Dir: dir, Line: LineAny, Msg: MsgReq, Req: l2.Upgrade,
				When: GAlways,
				Do:   []Op{OpSupplyHome, OpInvalHome, OpDirSetExclusiveReq, OpReplyData}},
			{Name: "q-wh64-" + slug, Dir: dir, Line: LineAny, Msg: MsgReq, Req: l2.ReadExNoData,
				When: GAlways,
				Do:   []Op{OpInvalHome, OpDirSetExclusiveReq, OpReplyGrant}},
		}
	case directory.Shared, directory.SharedCoarse:
		return []Rule{
			{Name: "q-read-" + slug, Dir: dir, Line: LineAny, Msg: MsgReq, Req: l2.Read,
				When: GAlways,
				Do:   []Op{OpSupplyHome, OpDowngradeHome, OpDirReadGrant, OpReplyData}},
			{Name: "q-write-" + slug, Dir: dir, Line: LineAny, Msg: MsgReq, Req: l2.ReadEx,
				When: GAlways,
				Do:   []Op{OpSupplyHome, OpInvalHome, OpInvalSharers, OpDirSetExclusiveReq, OpReplyData}},
			{Name: "q-upgrade-hit-" + slug, Dir: dir, Line: LineAny, Msg: MsgReq, Req: l2.Upgrade,
				When: GReqIsSharer,
				Do:   []Op{OpInvalHome, OpInvalSharers, OpDirSetExclusiveReq, OpReplyGrant}},
			// The refinement documented atop this file: the requester fell
			// out of the sharer set while its upgrade was in flight, so a
			// header-only grant would fill nothing — send the line.
			{Name: "q-upgrade-miss-" + slug, Dir: dir, Line: LineAny, Msg: MsgReq, Req: l2.Upgrade,
				When: GReqNotSharer,
				Do:   []Op{OpSupplyHome, OpInvalHome, OpInvalSharers, OpDirSetExclusiveReq, OpReplyData}},
			{Name: "q-wh64-" + slug, Dir: dir, Line: LineAny, Msg: MsgReq, Req: l2.ReadExNoData,
				When: GAlways,
				Do:   []Op{OpInvalHome, OpInvalSharers, OpDirSetExclusiveReq, OpReplyGrant}},
		}
	case directory.Exclusive:
		var out []Rule
		for _, req := range RequestKinds {
			do := []Op{OpForwardReq, OpDirSetExclusiveReq}
			if !WantsExclusive(req) {
				// A read forward opens the window in which the directory
				// says shared but memory is stale until the owner's sharing
				// writeback lands: the home engine keeps a TSRF entry for
				// the transaction and q-defer holds same-line requests
				// until MsgShareWB releases it. Exclusive forwards need no
				// entry — the new owner itself delays early requests
				// (f-early rules) until its fill arrives.
				do = []Op{OpReserveTSRF, OpForwardReq, OpDirShareOwnerReq}
			}
			out = append(out, Rule{
				Name: "q-" + KindSlug(req) + "-" + slug,
				Dir:  dir, Line: LineAny, Msg: MsgReq, Req: req, When: GOwnerNotReq,
				Do: do,
			})
		}
		return out
	}
	panic("protocol: unknown directory state")
}

// forwardRules run at the node a request was forwarded to. The no-NAK
// guarantee lives here: the owner either still holds the copy (it is
// held through an in-flight writeback) and serves, or the forward
// outran the fill that will make it the owner and is delayed in place
// until that fill lands — never bounced.
func forwardRules() []Rule {
	out := []Rule{
		{Name: "f-serve-read", Dir: DirAny, Line: LineExclusive, Msg: MsgFwd, Req: l2.Read,
			When: GAlways,
			// A dirty share: the owner downgrades, replies straight to the
			// requester (reply forwarding) and sends the sharing writeback
			// that refreshes home memory and closes the home engine's
			// read-forward window.
			Do: []Op{OpSupplyOwn, OpSendShareWB, OpDowngradeLine, OpReplyData}},
	}
	for _, req := range RequestKinds {
		if !WantsExclusive(req) {
			continue
		}
		out = append(out, Rule{
			Name: "f-serve-" + KindSlug(req),
			Dir:  DirAny, Line: LineExclusive, Msg: MsgFwd, Req: req, When: GAlways,
			// Dirty ownership moves to the requester; memory stays stale
			// until the new owner writes back.
			Do: []Op{OpSupplyOwn, OpInvalidateLine, OpReplyData}})
	}
	return append(out,
		Rule{Name: "f-early-invalid", Dir: DirAny, Line: LineInvalid, Msg: MsgFwd,
			Req: ReqAny, When: GPendingFill, Do: []Op{OpDelay}},
		Rule{Name: "f-early-shared", Dir: DirAny, Line: LineShared, Msg: MsgFwd,
			Req: ReqAny, When: GPendingFill, Do: []Op{OpDelay}},
	)
}

// invalRules run at a sharer receiving an invalidation. The ack is owed
// to the *requester* named in the message (eager exclusive replies
// gather acks there). Copies can already be gone (silent shared
// eviction) or already belong to a newer epoch (the owner's reply beat
// the home's invalidation across channels) — both absorb the message
// and ack without touching the line.
func invalRules() []Rule {
	return []Rule{
		{Name: "i-shared", Dir: DirAny, Line: LineShared, Msg: MsgInval, Req: ReqAny,
			When: GAlways, Do: []Op{OpInvalidateLine, OpAckRequester}},
		// The invalidation overtook a shared fill still in flight on the
		// owner's channel: it was serialized after the read, so the fill
		// serves the pending load once and is not cached (GS320-style
		// early invalidation, legal under the relaxed model).
		{Name: "i-racing-fill", Dir: DirAny, Line: LineInvalid, Msg: MsgInval, Req: ReqAny,
			When: GPendingShareFill, Do: []Op{OpPoisonFill, OpAckRequester}},
		{Name: "i-invalid", Dir: DirAny, Line: LineInvalid, Msg: MsgInval, Req: ReqAny,
			When: GAlways, Do: []Op{OpAckRequester}},
		{Name: "i-exclusive", Dir: DirAny, Line: LineExclusive, Msg: MsgInval, Req: ReqAny,
			When: GAlways, Do: []Op{OpAckRequester}},
	}
}

// replyRules run at a requester: the fill completes the transaction and
// frees its TSRF entry; invalidation acks are gathered as they trickle
// in (exclusivity was granted eagerly, so completion never waits).
func replyRules() []Rule {
	return []Rule{
		{Name: "a-gather", Dir: DirAny, Line: LineAny, Msg: MsgInvAck, Req: ReqAny,
			When: GAlways, Do: []Op{OpGatherAck}},
		{Name: "recv-reply", Dir: DirAny, Line: LineAny, Msg: MsgReply, Req: ReqAny,
			When: GPendingFill, Do: []Op{OpFill, OpReleaseTSRF, OpComplete}},
	}
}

// writebackRules run at the home when a replaced exclusive line
// returns. Ownership may have been forwarded away while the writeback
// was in flight; a stale writeback is acked but must not touch memory
// or the directory (the data already moved through the forward path).
func writebackRules() []Rule {
	out := []Rule{
		{Name: "w-owner", Dir: directory.Exclusive, Line: LineAny, Msg: MsgWB, Req: ReqAny,
			When: GSenderIsOwner, Do: []Op{OpUpdateMem, OpDirClear, OpAckWB}},
		{Name: "w-stale-owned", Dir: directory.Exclusive, Line: LineAny, Msg: MsgWB, Req: ReqAny,
			When: GSenderNotOwner, Do: []Op{OpAckWB}},
	}
	for _, dir := range DirStates {
		if dir == directory.Exclusive {
			continue
		}
		out = append(out, Rule{
			Name: "w-stale-" + dirSlug(dir),
			Dir:  dir, Line: LineAny, Msg: MsgWB, Req: ReqAny,
			When: GAlways, Do: []Op{OpAckWB}})
	}
	// The sharing writeback arrives while the directory is shared (the
	// forward point put it there) and the home engine holds the
	// read-forward TSRF entry. When the home was itself the requester
	// (h-read-owned) its pending fill owns the entry and the reply —
	// queued behind the sharing writeback on the owner's ordered channel
	// — releases it instead.
	for _, dir := range DirStates {
		if dir == directory.Uncached || dir == directory.Exclusive {
			continue
		}
		out = append(out,
			Rule{Name: "ws-own-fill-" + dirSlug(dir), Role: RoleHome, Dir: dir, Line: LineAny,
				Msg: MsgShareWB, Req: ReqAny, When: GPendingFill, Do: []Op{OpUpdateMem}},
			Rule{Name: "ws-share-" + dirSlug(dir), Role: RoleHome, Dir: dir, Line: LineAny,
				Msg: MsgShareWB, Req: ReqAny, When: GAlways, Do: []Op{OpUpdateMem, OpReleaseTSRF}},
		)
	}
	return append(out,
		Rule{Name: "wb-done", Dir: DirAny, Line: LineAny, Msg: MsgWBAck, Req: ReqAny,
			When: GPendingWB, Do: []Op{OpInvalidateLine, OpReleaseTSRF, OpComplete}},
	)
}

// holes declare the combinations the protocol promises never happen.
// The model checker proves each promise: reaching one is a violation
// with a counterexample, exactly as a stale //piranha:unreachable
// ledger entry is a lint finding.
func holes() []Hole {
	return []Hole{
		{Dir: directory.Exclusive, Line: LineAny, Msg: MsgReq, Req: ReqAny,
			Reason: "owner is the requester: a node never requests a line the directory records it owning — issue rules require an invalid or shared copy, grants synchronize through the reply, and writebacks hold the copy"},
		{Dir: DirAny, Line: LineInvalid, Msg: MsgFwd, Req: ReqAny,
			Reason: "forward to a node with no copy and no fill in flight: ownership is only redirected eagerly toward a requester whose fill is already on the wire, and a writing-back owner holds its copy until the home's ack"},
		{Dir: DirAny, Line: LineShared, Msg: MsgFwd, Req: ReqAny,
			Reason: "forward to a shared copy with no fill in flight: a shared holder is only the forward target while its upgrade grant races the forward"},
		{Dir: DirAny, Line: LineAny, Msg: MsgReply, Req: ReqAny,
			Reason: "reply with no transaction outstanding: replies pair one-to-one with reserved TSRF entries"},
		{Dir: DirAny, Line: LineAny, Msg: MsgWBAck, Req: ReqAny,
			Reason: "writeback ack with no writeback outstanding: acks pair one-to-one with writebacks"},
		{Dir: directory.Uncached, Line: LineAny, Msg: MsgShareWB, Req: ReqAny,
			Reason: "sharing writeback with the line uncached: the forward point records the owner and requester as sharers and q-defer holds every request that could clear them until the writeback lands"},
		{Dir: directory.Exclusive, Line: LineAny, Msg: MsgShareWB, Req: ReqAny,
			Reason: "sharing writeback with the line exclusively owned: the read-forward window the writeback closes keeps the directory shared until it arrives"},
	}
}

// piranhaSpec is the shipped protocol. Its table is built and validated
// once, when the package initializes.
var piranhaSpec = func() Spec {
	t := Piranha()
	if err := t.Validate(); err != nil {
		panic(err)
	}
	return Spec{
		Name: "piranha",
		Files: []string{
			"internal/protocol/piranha.go",
			"internal/pe/transactions.go",
		},
		StatePkg: "internal/directory", StateName: "State",
		MsgPkg: "internal/l2", MsgName: "Kind",
		Table: t,
	}
}()
