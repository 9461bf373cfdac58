package noc

import (
	"sort"
	"testing"

	"piranha/internal/sim"
)

// TestOverflowBurstDeliveryOrder schedules a burst of arrivals far past
// the wheel horizon — the overflow path — in scrambled cycle order and
// asserts they deliver in exactly the order the old linear-rescan merge
// produced: ascending cycle, insertion sequence within a cycle.
func TestOverflowBurstDeliveryOrder(t *testing.T) {
	topo := Ring{N: 4}
	net, err := NewNetwork(DefaultConfig(), topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	horizon := int64(len(net.wheel))
	if horizon < minWheelSlots {
		t.Fatalf("wheel horizon %d below minimum %d", horizon, minWheelSlots)
	}

	// Occupy a spread of near-term buckets, then schedule arrivals whose
	// cycles collide with those slots one or more wheel laps out: every
	// one must take the overflow path. Cycles are deliberately scrambled
	// so the sorted insert is exercised off the append fast path.
	type want struct {
		cycle int64
		seq   uint64
		id    uint64
	}
	var wants []want
	mk := func(id uint64, at int64) {
		p := &Packet{ID: id, Src: 0, Dst: 1}
		net.schedule(at, p, 1)
		net.inFlight++
		wants = append(wants, want{cycle: at, seq: net.arrSeq, id: id})
	}
	// Near-term occupants claim their buckets (these deliver first).
	for i := int64(0); i < 8; i++ {
		mk(uint64(100+i), 10+i*3)
	}
	// Past-horizon burst: same buckets, 1..3 laps later, shuffled order.
	laps := []int64{2, 1, 3, 1, 2, 3, 1, 2}
	for i, lap := range laps {
		mk(uint64(200+i), 10+int64(i)*3+lap*horizon)
	}
	if net.ovHead != 0 || len(net.overflow) != len(laps) {
		t.Fatalf("expected %d overflow entries, got %d (head %d)", len(laps), len(net.overflow), net.ovHead)
	}
	for i := 1; i < len(net.overflow); i++ {
		a, b := net.overflow[i-1], net.overflow[i]
		if a.cycle > b.cycle || (a.cycle == b.cycle && a.seq > b.seq) {
			t.Fatalf("overflow not sorted at %d: (%d,%d) before (%d,%d)", i, a.cycle, a.seq, b.cycle, b.seq)
		}
	}

	if err := net.Run(8 * horizon); err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(wants, func(i, j int) bool {
		if wants[i].cycle != wants[j].cycle {
			return wants[i].cycle < wants[j].cycle
		}
		return wants[i].seq < wants[j].seq
	})
	if len(net.Delivered) != len(wants) {
		t.Fatalf("delivered %d of %d", len(net.Delivered), len(wants))
	}
	for i, p := range net.Delivered {
		if p.ID != wants[i].id {
			t.Fatalf("delivery %d: packet %d, want %d", i, p.ID, wants[i].id)
		}
		if p.DeliverCycle != wants[i].cycle {
			t.Fatalf("delivery %d: cycle %d, want %d", i, p.DeliverCycle, wants[i].cycle)
		}
	}
}

// TestWheelSizedFromDiameter: a 32x32 torus (diameter 32, so a
// full-diameter long-packet journey spans 320 cycles) must get a wheel
// horizon past the old fixed 256 slots, while small machines keep it.
func TestWheelSizedFromDiameter(t *testing.T) {
	small, err := NewNetwork(DefaultConfig(), Torus{W: 4, H: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(small.wheel); got != minWheelSlots {
		t.Fatalf("4x4 torus wheel %d slots, want %d", got, minWheelSlots)
	}
	big, err := NewNetwork(DefaultConfig(), Torus{W: 32, H: 32}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(big.wheel); got != 1024 {
		t.Fatalf("32x32 torus wheel %d slots, want 1024", got)
	}
}

// runTraffic drives uniform random traffic and a drain; forceDense
// re-activates every router before each step, turning the sparse walk
// back into the old dense 0..N-1 loop. Sparse activation claims skipping
// quiescent routers changes nothing — this is that claim, tested.
func runTraffic(t *testing.T, forceDense bool) NetStats {
	t.Helper()
	topo := Torus{W: 4, H: 4}
	net, err := NewNetwork(Config{BufferPool: 4}, topo, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(99)
	n := topo.Nodes()
	dense := func() {
		if !forceDense {
			return
		}
		for i := 0; i < n; i++ {
			net.activate(i)
		}
	}
	for c := 0; c < 2000; c++ {
		for node := 0; node < n; node++ {
			if rng.Float64() < 0.35 {
				dst := rng.Intn(n)
				if dst == node {
					continue
				}
				net.Inject(node, dst, rng.Intn(Priorities), rng.Bool(0.3))
			}
		}
		dense()
		net.Step()
	}
	for net.InFlight() > 0 {
		dense()
		net.Step()
	}
	return net.Stats()
}

// TestSparseActivationMatchesDense asserts byte-identical outcomes
// between the sparse worklist walk and a forced dense walk over every
// router: same deliveries, latencies, hops, deflections and buffer
// depths under contended random traffic.
func TestSparseActivationMatchesDense(t *testing.T) {
	sparse := runTraffic(t, false)
	dense := runTraffic(t, true)
	if sparse != dense {
		t.Fatalf("sparse run diverged from dense run:\nsparse: %+v\ndense:  %+v", sparse, dense)
	}
}

// TestFastForwardSkipsIdleWindow: with every router quiescent and one
// arrival far in the future, Run must jump the clock instead of ticking
// through the window, and the packet's delivery cycle must be exactly
// the scheduled one.
func TestFastForwardSkipsIdleWindow(t *testing.T) {
	net, err := NewNetwork(DefaultConfig(), Ring{N: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const far = int64(1 << 20)
	p := &Packet{ID: 1, Src: 0, Dst: 2}
	net.schedule(far, p, 2)
	net.inFlight++
	if err := net.Run(2 * far); err != nil {
		t.Fatal(err)
	}
	if p.DeliverCycle != far {
		t.Fatalf("delivered at %d, want %d", p.DeliverCycle, far)
	}
	if net.FastForwarded < far-minWheelSlots {
		t.Fatalf("fast-forwarded only %d of ~%d idle cycles", net.FastForwarded, far)
	}
}

// TestFastForwardWindowIsNotAWedge co-simulates the interconnect under
// a progress watchdog: each engine tick grants the network a bounded
// step budget, and the watchdog trips after maxIdle intervals without a
// delivery. A far-future arrival is a legitimate globally idle window —
// with fast-forward the first tick reaches it and the watchdog stays
// quiet; the control run (same driver, fast-forward withheld) burns its
// whole budget ticking empty cycles and must trip, proving the watchdog
// would have seen the window as a wedge.
func TestFastForwardWindowIsNotAWedge(t *testing.T) {
	drive := func(fastForward bool) (wedged bool, delivered int) {
		net, err := NewNetwork(DefaultConfig(), Ring{N: 4}, 1)
		if err != nil {
			t.Fatal(err)
		}
		const far = int64(1 << 20)
		p := &Packet{ID: 1, Src: 0, Dst: 2}
		net.schedule(far, p, 2)
		net.inFlight++

		eng := sim.NewEngine()
		wd := sim.NewWatchdog(eng, sim.Microsecond, 3,
			func() uint64 { return uint64(len(net.Delivered)) },
			func(string) { wedged = true })
		var tick func()
		ticks := 0
		tick = func() {
			if fastForward {
				net.FastForward()
			}
			for i := 0; i < 256 && net.InFlight() > 0; i++ {
				net.Step()
			}
			ticks++
			if net.InFlight() > 0 && ticks < 64 && !wedged {
				eng.After(sim.Microsecond, tick)
				return
			}
			wd.Stop()
		}
		eng.After(sim.Microsecond, tick)
		eng.Run()
		return wedged, len(net.Delivered)
	}

	wedged, delivered := drive(true)
	if wedged {
		t.Fatal("fast-forwarded idle window reported as a wedge")
	}
	if delivered != 1 {
		t.Fatalf("fast-forward run delivered %d packets, want 1", delivered)
	}
	wedged, delivered = drive(false)
	if !wedged {
		t.Fatal("control without fast-forward should trip the watchdog (else this test proves nothing)")
	}
	if delivered != 0 {
		t.Fatalf("control delivered %d packets inside its budget, want 0", delivered)
	}
}
