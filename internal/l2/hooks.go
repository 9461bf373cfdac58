package l2

import (
	"fmt"

	"piranha/internal/cache"
	"piranha/internal/sim"
	"piranha/internal/stats"
)

// ServeRemote is the home-engine hook: a remote node requested a line
// whose home is this chip, and the line may be cached here. It performs
// the on-chip state changes (downgrade for a remote read, invalidation
// for a remote exclusive request) and reports whether the chip supplied
// the data and whether the on-chip copy was dirty.
//
// For a remote read the line becomes shared between this chip and the
// requester (the home's partial directory state is updated so later local
// writes know to invalidate remotely). For an exclusive request every
// on-chip copy is invalidated.
func (l *L2) ServeRemote(now sim.Time, line cache.LineAddr, exclusive bool) (onChip, dirty bool, done sim.Time) {
	b := l.BankOf(line)
	info := b.info.Ref(line)
	if info == nil {
		return false, false, now
	}
	start := b.occupy(l, now, line)
	done = start + l.cfg.FwdLatency
	dirty = info.dirty()
	if exclusive {
		l.invalidateSharers(b, line, info, -1)
		if info.inL2() {
			b.arr.Invalidate(line)
		}
		b.info.Delete(line)
	} else {
		for id := 0; id < len(l.l1s); id++ {
			if info.sharers&(1<<uint(id)) != 0 {
				l.l1s[id].Downgrade(line)
			}
		}
		info.remote = RemoteShared
		// The reply also updates home memory, so the on-chip copy is
		// no longer the only up-to-date one.
		info.flags &^= lineDirty
	}
	b.block(line, done)
	return true, dirty, done
}

// HasLine reports whether any on-chip cache holds the line. Only tests
// and perfbench's L2 lookup rig call it.
//
//piranha:hotpath
func (l *L2) HasLine(line cache.LineAddr) bool {
	return l.BankOf(line).info.Ref(line) != nil
}

// LineDirty reports the dirty status of an on-chip line.
//
//piranha:hotpath
func (l *L2) LineDirty(line cache.LineAddr) bool {
	if info := l.BankOf(line).info.Ref(line); info != nil {
		return info.dirty()
	}
	return false
}

// PendingLines returns how many same-line blocks the banks hold that end
// after the engine clock (every block a standalone chip holds): the
// blocks that can still delay an access.
func (l *L2) PendingLines() int {
	n := 0
	for _, b := range l.banks {
		n += b.blocks.live(b.clock())
	}
	return n
}

// MissBreakdown returns the Figure-6(b) decomposition of L1 misses.
// Upgrades are excluded: the line is already present in the L1, so no
// miss is being served.
func (l *L2) MissBreakdown() stats.MissBreakdown {
	return stats.MissBreakdown{
		L2Hit:  l.Stats.Hits,
		L2Fwd:  l.Stats.Fwds,
		L2Miss: l.Stats.LocalMem + l.Stats.Remote + l.Stats.RemoteDirty,
	}
}

// ResetStats clears the chip-level counters (after warmup).
func (l *L2) ResetStats() {
	l.Stats = Stats{}
	for _, b := range l.banks {
		b.PendWait = 0
		b.PendConflicts = 0
	}
}

// QueueStats reports queueing telemetry: total same-line pending-entry
// wait, total bank-controller wait, and total outstanding-entry wait.
func (l *L2) QueueStats() (pendWait, ctlWait, tsrfWait sim.Time, conflicts uint64) {
	for _, b := range l.banks {
		pendWait += b.PendWait
		ctlWait += b.ctl.WaitTime
		tsrfWait += sim.Time(b.tsrf.WaitTime)
		conflicts += b.PendConflicts
	}
	return
}

// CheckInvariants validates the structural invariants the design relies
// on. It is exercised heavily by tests and cheap enough to run after
// randomized workloads:
//
//  1. Duplicate tags are exact: a bank's sharer bitmask for a line equals
//     the set of L1s that actually hold it.
//  2. Single ownership: every tracked line has exactly one owner, and the
//     owner actually holds a copy (the L2 array if owner==L2).
//  3. At most one L1 holds a line in E or M, and then no other L1 holds
//     it at all and the L2 array does not hold it (non-inclusion of
//     exclusive lines).
//  4. Line info exists exactly for lines resident somewhere on chip:
//     every valid L1 line and every valid way of a bank's array has a
//     record in its bank, and every record names a resident copy.
//  5. A record's residency bit says whether its bank's array holds the
//     line, which is what the service paths read instead of the array.
//
// It allocates nothing unless it reports a violation: one walk finds
// each L1 line's record and its bit, a second each bank array line's
// record, and a third checks each record against the L1s it names and
// the bank's array. Array and table order are pure functions of the
// run, so the first violation reported is deterministic.
func (l *L2) CheckInvariants() error {
	var err error
	for i := 0; err == nil && i < len(l.l1s); i++ {
		c := l.l1s[i]
		c.Range(func(ln cache.Line) bool {
			switch info := l.BankOf(ln.Tag).info.Ref(ln.Tag); {
			case info == nil:
				err = fmt.Errorf("line %#x held by L1s %#x but untracked", ln.Tag, l.holders(ln.Tag))
			case info.sharers&(1<<uint(c.ID)) == 0:
				err = fmt.Errorf("line %#x dup tags %#x, actual %#x", ln.Tag, info.sharers, l.holders(ln.Tag))
			}
			return err == nil
		})
	}
	for i := 0; err == nil && i < len(l.banks); i++ {
		b := l.banks[i]
		b.arr.Range(func(ln cache.Line) bool {
			if b.info.Ref(ln.Tag) == nil {
				err = fmt.Errorf("line %#x valid in L2 bank %d but untracked", ln.Tag, b.idx)
			}
			return err == nil
		})
	}
	for i := 0; err == nil && i < len(l.banks); i++ {
		b := l.banks[i]
		b.info.Range(func(line cache.LineAddr, info *lineInfo) bool {
			err = l.checkRecord(b, line, info)
			return err == nil
		})
	}
	return err
}

// holders returns the mask of L1s that hold line (for violation reports).
func (l *L2) holders(line cache.LineAddr) (mask uint32) {
	for _, c := range l.l1s {
		if c.State(line).Valid() {
			mask |= 1 << uint(c.ID)
		}
	}
	return mask
}

// checkRecord checks one of bank b's records against the L1s it names
// and the bank's array.
func (l *L2) checkRecord(b *Bank, line cache.LineAddr, info *lineInfo) error {
	var mask uint32 // named L1s that hold the line
	held, excl := 0, 0
	for id, c := range l.l1s {
		if info.sharers&(1<<uint(id)) == 0 {
			continue
		}
		if st := c.State(line); st.Valid() {
			mask |= 1 << uint(id)
			held++
			if st.CanWrite() {
				excl++
			}
		}
	}
	if mask != info.sharers {
		return fmt.Errorf("line %#x dup tags %#x, actual %#x", line, info.sharers, l.holders(line))
	}
	if excl > 1 {
		return fmt.Errorf("line %#x exclusive in %d L1s", line, excl)
	}
	if excl == 1 && held > 1 {
		return fmt.Errorf("line %#x exclusive alongside sharers", line)
	}
	inL2 := b.arr.Has(line)
	if l.cfg.Inclusive {
		// Inclusion invariant: every L1-held line has an L2 tag.
		if mask != 0 && !inL2 {
			return fmt.Errorf("line %#x held by L1s but absent from the inclusive L2", line)
		}
	} else if excl == 1 && inL2 {
		return fmt.Errorf("line %#x exclusive in an L1 and valid in L2", line)
	}
	if !inL2 && mask == 0 {
		return fmt.Errorf("line %#x tracked but resident nowhere", line)
	}
	if info.owner == ownerL2 {
		if !inL2 {
			return fmt.Errorf("line %#x owned by L2 but not in L2", line)
		}
	} else {
		if mask&(1<<uint(info.owner)) == 0 {
			return fmt.Errorf("line %#x owner L1 %d does not hold it", line, info.owner)
		}
		if inL2 && !l.cfg.Inclusive {
			return fmt.Errorf("line %#x in L2 but owned by L1 %d", line, info.owner)
		}
	}
	if info.inL2() != inL2 {
		return fmt.Errorf("line %#x residency bit %t, in L2 array %t", line, info.inL2(), inL2)
	}
	return nil
}
