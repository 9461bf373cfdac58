package pe

import (
	"testing"

	"piranha/internal/cache"
	"piranha/internal/directory"
	"piranha/internal/fault"
	"piranha/internal/ics"
	"piranha/internal/l1"
	"piranha/internal/l2"
	"piranha/internal/sim"
	"piranha/internal/trace"
)

// fakeMem mirrors the l2 test double.
type fakeMem struct{ reads, writes int }

func (m *fakeMem) Read(now sim.Time, _ cache.Addr) (sim.Time, sim.Time) {
	m.reads++
	return now + 60*sim.Nanosecond, now + 90*sim.Nanosecond
}
func (m *fakeMem) Write(now sim.Time, _ cache.Addr) sim.Time {
	m.writes++
	return now + 40*sim.Nanosecond
}

// chipRig is one chip bound into a fabric.
type chipRig struct {
	l2 *l2.L2
	d  []*l1.Cache
}

// newSystem builds n chips (4 CPUs each) over a flat network.
func newSystem(t testing.TB, n int, baseline bool) (*Fabric, []*chipRig) {
	t.Helper()
	cfg := DefaultConfig(n)
	cfg.Baseline = baseline
	cfg.UseCMI = !baseline
	f := NewFabric(cfg, NewFlatNetworkN(25*sim.Nanosecond, cfg.Nodes))
	clock := sim.MHz(500)
	var chips []*chipRig
	for i := 0; i < n; i++ {
		c := &chipRig{}
		var l1s []*l1.Cache
		for cpu := 0; cpu < 4; cpu++ {
			d := l1.New(l1.Data, cpu, cpu*2, l1.DefaultConfig())
			ic := l1.New(l1.Instruction, cpu, cpu*2+1, l1.DefaultConfig())
			c.d = append(c.d, d)
			l1s = append(l1s, d, ic)
		}
		var mems []l2.Memory
		for b := 0; b < 8; b++ {
			mems = append(mems, &fakeMem{})
		}
		c.l2 = l2.New(l2.DefaultConfig(), clock, l1s, mems, ics.New(ics.DefaultConfig(clock)), f.Proto(NodeID(i)))
		f.BindL2(NodeID(i), c.l2)
		chips = append(chips, c)
	}
	return f, chips
}

// lineHomedAt returns an address whose home is the given node.
func lineHomedAt(f *Fabric, node NodeID) cache.Addr {
	for page := uint64(0); ; page++ {
		a := cache.Addr(page << cache.PageShift)
		if f.HomeOf(a.Line()) == node {
			return a
		}
	}
}

func TestHomeOfInterleave(t *testing.T) {
	f := NewFabric(DefaultConfig(4), NewFlatNetworkN(25*sim.Nanosecond, 4))
	// Consecutive 8 KB pages round-robin across nodes; lines within a
	// page share a home.
	a := cache.Addr(0)
	if f.HomeOf(a.Line()) != f.HomeOf((a + 8191).Line()) {
		t.Fatal("same page, different homes")
	}
	if f.HomeOf(a.Line()) == f.HomeOf((a + 8192).Line()) {
		t.Fatal("adjacent pages should map to different homes")
	}
	seen := map[NodeID]bool{}
	for p := 0; p < 4; p++ {
		seen[f.HomeOf(cache.Addr(p<<cache.PageShift).Line())] = true
	}
	if len(seen) != 4 {
		t.Fatalf("4 pages hit %d homes", len(seen))
	}
}

func TestRemoteCleanReadLatency(t *testing.T) {
	f, chips := newSystem(t, 2, false)
	a := lineHomedAt(f, 1) // homed at chip 1, requested by chip 0
	done, svc := chips[0].l2.Access(0, chips[0].d[0], l2.Read, a)
	if svc != l2.SvcRemote {
		t.Fatalf("svc %v, want remote", svc)
	}
	// Table 1 calibration: ~120 ns remote clean.
	if done < 100*sim.Nanosecond || done > 160*sim.Nanosecond {
		t.Fatalf("remote clean latency %d ns, want ~120", done/sim.Nanosecond)
	}
	// Clean-exclusive optimization: sole system-wide copy gets E.
	if st := chips[0].d[0].State(a.Line()); st != cache.Exclusive {
		t.Fatalf("state %v, want E (clean-exclusive)", st)
	}
}

func TestRemoteDirtyThreeHop(t *testing.T) {
	f, chips := newSystem(t, 3, false)
	a := lineHomedAt(f, 1)
	// Chip 2 dirties the line (homed at 1); chip 0 then reads it.
	chips[2].l2.Access(0, chips[2].d[0], l2.ReadEx, a)
	now := 10 * sim.Microsecond
	done, svc := chips[0].l2.Access(now, chips[0].d[0], l2.Read, a)
	if svc != l2.SvcRemoteDirty {
		t.Fatalf("svc %v, want remote-dirty", svc)
	}
	if lat := done - now; lat < 140*sim.Nanosecond || lat > 240*sim.Nanosecond {
		t.Fatalf("3-hop latency %d ns, want ~180", lat/sim.Nanosecond)
	}
	if f.ThreeHop == 0 {
		t.Fatal("three-hop counter not incremented")
	}
	// Prior owner downgraded to shared; directory shows both sharers.
	if st := chips[2].d[0].State(a.Line()); st != cache.Shared {
		t.Fatalf("owner state %v, want S", st)
	}
	e := f.dirEntry(f.nodes[1], a.Line())
	if e.State != directory.Shared || !e.HasSharer(f.dcfg, 0) || !e.HasSharer(f.dcfg, 2) {
		t.Fatalf("directory after dirty share: %+v", e)
	}
}

func TestWriteInvalidatesRemoteSharers(t *testing.T) {
	f, chips := newSystem(t, 3, false)
	a := lineHomedAt(f, 0)
	// Chips 1 and 2 read the line homed at 0.
	chips[1].l2.Access(0, chips[1].d[0], l2.Read, a)
	chips[2].l2.Access(1*sim.Microsecond, chips[2].d[0], l2.Read, a)
	// Chip 0 (the home) writes: remote copies must die.
	chips[0].l2.Access(2*sim.Microsecond, chips[0].d[0], l2.ReadEx, a)
	if chips[1].l2.HasLine(a.Line()) || chips[2].l2.HasLine(a.Line()) {
		t.Fatal("remote sharers survived a home write")
	}
	if f.InvalsSent == 0 {
		t.Fatal("no invalidations sent")
	}
	e := f.dirEntry(f.nodes[0], a.Line())
	if e.State != directory.Uncached {
		t.Fatalf("directory %v after home write, want uncached", e.State)
	}
}

func TestRemoteWriteTracksExclusive(t *testing.T) {
	f, chips := newSystem(t, 2, false)
	a := lineHomedAt(f, 0)
	chips[1].l2.Access(0, chips[1].d[0], l2.ReadEx, a)
	e := f.dirEntry(f.nodes[0], a.Line())
	if e.State != directory.Exclusive || e.Owner != 1 {
		t.Fatalf("directory %+v, want exclusive@1", e)
	}
	// A local (home) read must now fetch from the remote owner.
	now := 10 * sim.Microsecond
	done, svc := chips[0].l2.Access(now, chips[0].d[0], l2.Read, a)
	if svc != l2.SvcRemoteDirty {
		t.Fatalf("svc %v, want remote-dirty", svc)
	}
	if lat := done - now; lat < 150*sim.Nanosecond {
		t.Fatalf("home read of remote-dirty line too fast: %d ns", lat/sim.Nanosecond)
	}
}

func TestUpgradeOfRemoteHomedSharedLine(t *testing.T) {
	f, chips := newSystem(t, 2, false)
	a := lineHomedAt(f, 1)
	// Both chips read (chip 0 remote, chip 1 local home).
	chips[0].l2.Access(0, chips[0].d[0], l2.Read, a)
	chips[1].l2.Access(1*sim.Microsecond, chips[1].d[0], l2.Read, a)
	// Chip 0 upgrades its shared copy: must revoke chip 1's.
	now := 10 * sim.Microsecond
	chips[0].l2.Access(now, chips[0].d[0], l2.Upgrade, a)
	if chips[0].d[0].State(a.Line()) != cache.Modified {
		t.Fatal("upgrader not M")
	}
	if chips[1].l2.HasLine(a.Line()) {
		t.Fatal("home chip copy survived remote upgrade")
	}
	e := f.dirEntry(f.nodes[1], a.Line())
	if e.State != directory.Exclusive || e.Owner != 0 {
		t.Fatalf("directory %+v, want exclusive@0", e)
	}
}

func TestWritebackClearsDirectory(t *testing.T) {
	f, chips := newSystem(t, 2, false)
	a := lineHomedAt(f, 1)
	chips[0].l2.Access(0, chips[0].d[0], l2.ReadEx, a) // dirty at chip 0
	p := f.Proto(0)
	p.Writeback(1*sim.Microsecond, a.Line())
	e := f.dirEntry(f.nodes[1], a.Line())
	if e.State != directory.Uncached {
		t.Fatalf("directory %v after writeback", e.State)
	}
}

func TestCMIBoundsInjectedMessages(t *testing.T) {
	// 16 sharers, fanout 4: at most 4 injected invalidation messages
	// and 4 acks — the paper's bounded-buffering argument.
	cfg := DefaultConfig(20)
	f := NewFabric(cfg, NewFlatNetworkN(25*sim.Nanosecond, cfg.Nodes))
	h := f.nodes[0]
	var sharers []NodeID
	entry := directory.Clear()
	for i := 1; i <= 16; i++ {
		sharers = append(sharers, NodeID(i))
		entry = directory.AddSharer(f.dcfg, entry, NodeID(i))
	}
	f.setDir(h, 0, entry)
	ack := f.invalidate(0, h, 19, 0, sharers, entry.State == directory.SharedCoarse)
	if f.InvalMsgs != 4 {
		t.Fatalf("CMI injected %d messages for 16 sharers, want 4", f.InvalMsgs)
	}
	if f.InvalAcks != 4 {
		t.Fatalf("CMI acks %d, want 4", f.InvalAcks)
	}
	if f.InvalsSent != 16 {
		t.Fatalf("invalidated %d sharers", f.InvalsSent)
	}
	if ack <= 0 {
		t.Fatal("no ack time")
	}
}

func TestCoarseOverInvalCount(t *testing.T) {
	// 50 nodes is not a multiple of the 42-bit vector width, so each
	// coarse group spans two nodes and naming one sharer names its
	// sibling too. The invalidation must still visit the sibling (the
	// vector is a superset) but count the visit as an over-invalidation.
	f, chips := newSystem(t, 50, false)
	a := lineHomedAt(f, 0)
	readers := []int{2, 4, 6, 8, 10, 12}
	for _, i := range readers {
		chips[i].l2.Access(0, chips[i].d[0], l2.Read, a)
	}
	if e := f.dirEntry(f.nodes[0], a.Line()); e.State != directory.SharedCoarse {
		t.Fatalf("directory %v after %d sharers, want SharedCoarse", e.State, len(readers))
	}
	chips[1].l2.Access(10*sim.Microsecond, chips[1].d[0], l2.ReadEx, a)
	if f.OverInvals == 0 {
		t.Fatal("coarse invalidation visited no non-holders; over-invalidations not counted")
	}
	if f.OverInvals >= f.InvalsSent {
		t.Fatalf("OverInvals %d >= InvalsSent %d: true sharers misclassified", f.OverInvals, f.InvalsSent)
	}
}

func TestBroadcastVsCMIMessageCounts(t *testing.T) {
	mk := func(useCMI bool) *Fabric {
		cfg := DefaultConfig(40)
		cfg.UseCMI = useCMI
		return NewFabric(cfg, NewFlatNetworkN(25*sim.Nanosecond, cfg.Nodes))
	}
	var sharers []NodeID
	for i := 1; i <= 32; i++ {
		sharers = append(sharers, NodeID(i))
	}
	cmi := mk(true)
	cmi.invalidate(0, cmi.nodes[0], 39, 0, sharers, false)
	bc := mk(false)
	bc.invalidate(0, bc.nodes[0], 39, 0, sharers, false)
	if cmi.InvalMsgs >= bc.InvalMsgs {
		t.Fatalf("CMI (%d msgs) should inject fewer than broadcast (%d)", cmi.InvalMsgs, bc.InvalMsgs)
	}
	if bc.InvalMsgs != 32 || bc.InvalAcks != 32 {
		t.Fatalf("broadcast counts %d/%d", bc.InvalMsgs, bc.InvalAcks)
	}
}

func TestBaselineSendsMoreMessages(t *testing.T) {
	// Same 3-hop dirty-read sequence under both protocols; the DASH
	// baseline must emit the extra ownership-change confirmation.
	run := func(baseline bool) uint64 {
		f, chips := newSystem(t, 3, baseline)
		a := lineHomedAt(f, 1)
		chips[2].l2.Access(0, chips[2].d[0], l2.ReadEx, a)
		chips[0].l2.Access(10*sim.Microsecond, chips[0].d[0], l2.Read, a)
		var msgs uint64
		for i := 0; i < 3; i++ {
			he, re := f.Engines(NodeID(i))
			msgs += he.Stats.Messages + re.Stats.Messages
		}
		return msgs
	}
	nonak := run(false)
	nak := run(true)
	if nak <= nonak {
		t.Fatalf("baseline messages %d should exceed no-NAK %d", nak, nonak)
	}
}

func TestBaselineNAKsUnderSaturation(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Baseline = true
	cfg.UseCMI = false
	cfg.TSRFEntries = 2
	f := NewFabric(cfg, NewFlatNetworkN(25*sim.Nanosecond, cfg.Nodes))
	h := f.nodes[1]
	// Saturate the home engine's two TSRF entries far into the future.
	_, rel1 := h.home.tsrf.Reserve(0)
	_, rel2 := h.home.tsrf.Reserve(0)
	done, _, _ := f.atHome(0, h, 0, l2.Read, 0x40, false)
	rel1(1 * sim.Millisecond)
	rel2(1 * sim.Millisecond)
	if h.home.Stats.NAKs == 0 {
		t.Fatal("saturated baseline home did not NAK")
	}
	if done <= 0 {
		t.Fatal("request never completed")
	}
}

func TestNoNAKQueuesInsteadOfNAKing(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.TSRFEntries = 2
	f := NewFabric(cfg, NewFlatNetworkN(25*sim.Nanosecond, cfg.Nodes))
	h := f.nodes[1]
	_, rel1 := h.home.tsrf.Reserve(0)
	_, rel2 := h.home.tsrf.Reserve(0)
	rel1(200 * sim.Nanosecond)
	rel2(200 * sim.Nanosecond)
	done, _, _ := f.atHome(0, h, 0, l2.Read, 0x40, false)
	if h.home.Stats.NAKs != 0 {
		t.Fatal("no-NAK protocol NAKed")
	}
	if done < 200*sim.Nanosecond {
		t.Fatal("request should have waited for a TSRF entry")
	}
}

func TestCrossChipInvariantStress(t *testing.T) {
	_, chips := newSystem(t, 4, false)
	rng := sim.NewRNG(77)
	now := sim.Time(0)
	for i := 0; i < 8000; i++ {
		chip := chips[rng.Intn(4)]
		cpu := rng.Intn(4)
		// A shared hot region spanning pages homed at all nodes.
		a := cache.Addr(rng.Intn(512)) * cache.LineBytes
		if rng.Bool(0.5) {
			a += cache.Addr(rng.Intn(4)) << cache.PageShift
		}
		now += sim.Time(rng.Intn(500)) * sim.Nanosecond
		d := chip.d[cpu]
		st := d.State(a.Line())
		if rng.Bool(0.6) {
			if st == cache.Invalid {
				chip.l2.Access(now, d, l2.Read, a)
			}
		} else {
			switch st {
			case cache.Invalid:
				chip.l2.Access(now, d, l2.ReadEx, a)
			case cache.Shared:
				chip.l2.Access(now, d, l2.Upgrade, a)
			default:
				d.SetState(a.Line(), cache.Modified)
			}
		}
		if i%2000 == 1999 {
			for ci, c := range chips {
				if err := c.l2.CheckInvariants(); err != nil {
					t.Fatalf("step %d chip %d: %v", i, ci, err)
				}
			}
		}
	}
	// System-wide single-writer invariant: a line Modified on one chip
	// must not be valid anywhere else.
	for _, c := range chips {
		for cpu := 0; cpu < 4; cpu++ {
			for _, ln := range c.d[cpu].Contents() {
				if ln.State != cache.Modified && ln.State != cache.Exclusive {
					continue
				}
				for _, o := range chips {
					if o == c {
						continue
					}
					if o.l2.HasLine(ln.Tag) {
						t.Fatalf("line %#x exclusive on one chip, cached on another", ln.Tag)
					}
				}
			}
		}
	}
}

// TestLostMessageHoldsEntryUntilSweepTick: under a plan that loses every
// message, a remote read loses MaxLossRetries in a row. Each loss holds
// the remote engine's TSRF entry until the next RecoverTime, when the
// retry resumes, so the read completes exactly as a loss-free read sent
// at the fourth chained RecoverTime, its entry was busy for the whole
// wait, and no entry stays held.
func TestLostMessageHoldsEntryUntilSweepTick(t *testing.T) {
	const now = 3 * sim.Microsecond
	f, _ := newSystem(t, 2, false)
	inj := fault.New(fault.Plan{MsgLoss: 1}, 1)
	f.SetFaults(inj)
	line := lineHomedAt(f, 1).Line()
	done, svc, _ := f.Proto(0).Fetch(now, l2.Read, line)

	retryAt := now
	for i := 0; i < fault.MaxLossRetries; i++ {
		retryAt = inj.RecoverTime(retryAt)
	}
	ref, _ := newSystem(t, 2, false)
	wantDone, wantSvc, _ := ref.Proto(0).Fetch(retryAt, l2.Read, line)
	if done != wantDone || svc != wantSvc {
		t.Fatalf("lossy read = (%d, %v), want the loss-free read sent at %d: (%d, %v)", done, svc, retryAt, wantDone, wantSvc)
	}

	_, re := f.Engines(0)
	_, refRE := ref.Engines(0)
	if held := re.tsrf.BusyTime - refRE.tsrf.BusyTime; held != retryAt-now {
		t.Errorf("lost legs held the remote TSRF for %d ps, want %d (from the read to the last RecoverTime)", held, retryAt-now)
	}
	if n := re.tsrf.InUse(done); n != 0 {
		t.Errorf("%d remote TSRF entries still held after the read", n)
	}
	st := inj.Collect()
	if st.MessagesLost != fault.MaxLossRetries || st.Recovered != st.MessagesLost || st.SweepReclaims != st.MessagesLost {
		t.Errorf("lost/recovered/reclaimed = %d/%d/%d, want %d each", st.MessagesLost, st.Recovered, st.SweepReclaims, fault.MaxLossRetries)
	}
}

// TestWarmFetchAllocatesNothing: once the homes' directory tables hold
// the lines, a remote-home transaction (TSRF holds, directory lookup and
// update, network sends) allocates nothing.
func TestWarmFetchAllocatesNothing(t *testing.T) {
	const n = 4
	f, _ := newSystem(t, n, false)
	var lines []cache.LineAddr
	for home := NodeID(1); home < n; home++ {
		a := lineHomedAt(f, home)
		for i := 0; i < 16; i++ {
			lines = append(lines, (a + cache.Addr(i)*cache.LineBytes).Line())
		}
	}
	protos := make([]*NodeProto, n)
	for i := range protos {
		protos[i] = f.Proto(NodeID(i))
	}
	now := sim.Time(0)
	fetchAll := func() {
		for i, l := range lines {
			now += 50 * sim.Nanosecond
			from := NodeID(i % n)
			if from == f.HomeOf(l) {
				from = (from + 1) % n
			}
			protos[from].Fetch(now, l2.Read, l)
		}
	}
	fetchAll()
	if allocs := testing.AllocsPerRun(20, fetchAll); allocs != 0 {
		t.Fatalf("warm fetches allocate %.1f objects per %d transactions", allocs, len(lines))
	}
}

// TestDirectoryDispatchAllocatesNothing: against a directory table warmed
// by SeedDirectory, the directory half of a home-engine dispatch (decode,
// add a sharer, re-encode, store) allocates nothing — on 8 nodes with
// pointer entries, and on 1,024 nodes with coarse entries whose every
// group bit is set, the largest entry the codec decodes.
func TestDirectoryDispatchAllocatesNothing(t *testing.T) {
	for _, nodes := range []int{8, 1024} {
		f := NewFabric(DefaultConfig(nodes), NewFlatNetworkN(25*sim.Nanosecond, nodes))
		lines := f.SeedDirectory(4096)
		if nodes == 1024 {
			everyGroup := directory.Clear()
			for n := 0; n < nodes; n++ {
				everyGroup = directory.AddSharer(f.dcfg, everyGroup, NodeID(n))
			}
			for _, line := range lines {
				f.setDir(f.nodes[0], line, everyGroup)
			}
		}
		if got := f.DirectoryDispatch(lines); got != len(lines) {
			t.Fatalf("%d nodes: touched %d entries, want %d", nodes, got, len(lines))
		}
		if allocs := testing.AllocsPerRun(20, func() { f.DirectoryDispatch(lines) }); allocs != 0 {
			t.Fatalf("%d nodes: directory dispatch allocates %.1f objects per %d lines", nodes, allocs, len(lines))
		}
		if nodes == 1024 {
			if e := f.dirEntry(f.nodes[0], lines[0]); e.State != directory.SharedCoarse || !e.HasSharer(f.dcfg, 1023) {
				t.Fatalf("1024 nodes: dispatch left %+v, want every group shared", e)
			}
		}
	}
}

// TestHopSpanCoversFaultDelay: on a faulted and traced fabric, a
// message's hop span runs from its send to its arrival, link retransmits
// and the receiver's stall included, whichever of SetFaults and
// SetTracer is called first.
func TestHopSpanCoversFaultDelay(t *testing.T) {
	plan := fault.Plan{LinkBER: 1e-2, StallProb: 1, StallTime: 300 * sim.Nanosecond}
	const now = 100 * sim.Nanosecond
	ref := fault.New(plan, 1)
	link := ref.LinkDelay(0, LongPacket)
	if link == 0 {
		t.Fatal("the plan corrupts no frame: the test would not see the link delay")
	}
	want := NewFlatNetworkN(25*sim.Nanosecond, 2).Send(now+link, 0, 1, LongPacket, prioHigh) + ref.StallDelay(1)
	for _, faultsFirst := range []bool{true, false} {
		f := NewFabric(DefaultConfig(2), NewFlatNetworkN(25*sim.Nanosecond, 2))
		tr := trace.New(16)
		inj := fault.New(plan, 1)
		if faultsFirst {
			f.SetFaults(inj)
			f.SetTracer(tr)
		} else {
			f.SetTracer(tr)
			f.SetFaults(inj)
		}
		done := f.send(now, 0, 1, LongPacket, prioHigh)
		evs := tr.Events(nil)
		if done != want || len(evs) != 1 {
			t.Fatalf("faults first %v: arrival %d with %d events, want %d with one hop span", faultsFirst, done, len(evs), want)
		}
		if e := evs[0]; e.Kind != trace.KHop || e.Start != now || e.End != want || e.Node != 0 || e.Arg != 1 {
			t.Fatalf("faults first %v: span %+v, want a hop from node 0 to 1 over [%d, %d]", faultsFirst, e, now, want)
		}
	}
}
