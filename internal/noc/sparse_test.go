package noc

import (
	"testing"

	"piranha/internal/sim"
)

// TestRingHorizonUnderLoad drives contended random traffic, long
// packets and deflections included, through a 32x32 torus: every packet
// arrives, so no hop was ever scheduled past the 16-bucket ring (that
// would panic).
func TestRingHorizonUnderLoad(t *testing.T) {
	topo := Torus{W: 32, H: 32}
	net, err := NewNetwork(Config{BufferPool: 2}, topo, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(17)
	n := topo.Nodes()
	injected := 0
	for c := 0; c < 40; c++ {
		for node := 0; node < n; node++ {
			if rng.Float64() < 0.1 {
				dst := rng.Intn(n)
				if dst == node {
					continue
				}
				net.Inject(node, dst, rng.Intn(Priorities), rng.Bool(0.5))
				injected++
			}
		}
		net.Step()
	}
	if err := net.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if st.Delivered != injected {
		t.Fatalf("delivered %d of %d", st.Delivered, injected)
	}
	if st.Deflections == 0 {
		t.Fatal("no deflections: the load never contended")
	}
}

// TestScheduleBeyondHorizonPanics: a hop scheduled into a bucket that
// still holds another cycle's arrivals panics instead of mixing the two.
func TestScheduleBeyondHorizonPanics(t *testing.T) {
	net, err := NewNetwork(DefaultConfig(), Ring{N: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	net.schedule(3, &Packet{ID: 1, Src: 0, Dst: 1}, 1)
	net.schedule(3, &Packet{ID: 2, Src: 0, Dst: 1}, 1) // same cycle: fine
	defer func() {
		if r := recover(); r != "noc: hop arrival beyond the ring's horizon" {
			t.Fatalf("recovered %v", r)
		}
	}()
	net.schedule(3+ringSlots, &Packet{ID: 3, Src: 0, Dst: 1}, 1)
	t.Fatal("no panic")
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
	if net.FastForwarded != far-1 {
		t.Fatalf("fast-forwarded %d of %d idle cycles", net.FastForwarded, far-1)
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
