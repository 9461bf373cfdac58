package pe

import (
	"piranha/internal/cache"
	"piranha/internal/directory"
	"piranha/internal/l2"
	"piranha/internal/sim"
)

// InvalidateStudy invalidates a synthetic line shared by k remote nodes
// (home is node 0, requester the last node) and returns the number of
// invalidation messages injected and the time until the final
// acknowledgment reaches the requester. Used for the §2.5.3
// cruise-missile-invalidate comparison.
func (f *Fabric) InvalidateStudy(k int) (uint64, sim.Time) {
	h := f.nodes[0]
	entry := directory.Clear()
	var sharers []NodeID
	for i := 1; i <= k && i < f.cfg.Nodes-1; i++ {
		n := NodeID(i)
		sharers = append(sharers, n)
		entry = directory.AddSharer(f.dcfg, entry, n)
	}
	f.setDir(h, 0x40, entry)
	ack := f.invalidate(0, h, NodeID(f.cfg.Nodes-1), 0x40, sharers, entry.State == directory.SharedCoarse)
	return f.InvalMsgs, ack
}

// SeedDirectory installs count synthetic shared-line entries in node
// 0's home directory (each shared by node 1) and returns the lines, in
// insertion order. It warms the dense directory table before
// DirectoryDispatch is timed or checked for allocations.
func (f *Fabric) SeedDirectory(count int) []cache.LineAddr {
	h := f.nodes[0]
	lines := make([]cache.LineAddr, count)
	for i := range lines {
		line := cache.LineAddr(i)
		lines[i] = line
		f.setDir(h, line, directory.AddSharer(f.dcfg, directory.Clear(), 1))
	}
	return lines
}

// DirectoryDispatch performs, for each line, the directory half of a
// home-engine dispatch: decode the stored entry, fold in a sharer, and
// encode it back. Against a table warmed by SeedDirectory every store
// is an overwrite, so the loop is the steady-state directory path and
// allocates nothing (TestDirectoryDispatchAllocatesNothing). Returns the
// number of entries touched so the work cannot be optimized away.
func (f *Fabric) DirectoryDispatch(lines []cache.LineAddr) int {
	h := f.nodes[0]
	touched := 0
	for _, line := range lines {
		e := f.dirEntry(h, line)
		e = directory.AddSharer(f.dcfg, e, 1)
		f.setDir(h, line, e)
		touched++
	}
	return touched
}

// ContentionStudy drives a conflict-heavy transaction mix (alternating
// exclusive requests to a few hot home-local lines, so three-hop
// forwards and directory conflicts are frequent) against a fabric with
// small TSRFs, and reports total protocol messages, home-engine
// occupancy, NAKs and retries. It is the §2.5.3 NAK-free-vs-DASH
// ablation harness.
func ContentionStudy(baseline bool, nodes, txns int) (msgs uint64, occ sim.Time, naks, retries uint64, n int) {
	cfg := DefaultConfig(nodes)
	cfg.Baseline = baseline
	cfg.UseCMI = !baseline
	cfg.TSRFEntries = 4 // small, so bursts saturate the home engine
	f := NewFabric(cfg, NewFlatNetworkN(25*sim.Nanosecond, cfg.Nodes))
	rng := sim.NewRNG(99)
	now := sim.Time(0)
	for i := 0; i < txns; i++ {
		req := NodeID(1 + rng.Intn(nodes-1))
		line := cache.LineAddr(rng.Intn(8)) // 8 hot lines, all homed at 0
		kind := l2.ReadEx
		if rng.Bool(0.4) {
			kind = l2.Read
		}
		f.Proto(req).Fetch(now, kind, line)
		now += sim.Time(20+rng.Intn(30)) * sim.Nanosecond
	}
	for _, nd := range f.nodes {
		msgs += nd.home.Stats.Messages + nd.remote.Stats.Messages
		occ += nd.home.Stats.Occupancy
		naks += nd.home.Stats.NAKs
		retries += nd.home.Stats.Retries
	}
	return msgs, occ, naks, retries, txns
}
