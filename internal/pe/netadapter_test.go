package pe

import (
	"testing"

	"piranha/internal/cache"
	"piranha/internal/l2"
	"piranha/internal/noc"
	"piranha/internal/sim"
)

func TestTopologyNetworkCalibration(t *testing.T) {
	tn, err := NewTopologyNetwork(noc.Torus{W: 4, H: 4}, sim.MHz(500), 1)
	if err != nil {
		t.Fatal(err)
	}
	if tn.HopLatency() <= 0 {
		t.Fatal("no hop latency calibrated")
	}
	// Neighbor vs opposite corner: 1 hop vs 4 hops on a 4x4 torus.
	near := tn.Send(0, 0, 1, ShortPacket, prioHigh)
	far := tn.Send(0, 0, 10, ShortPacket, prioHigh)
	if far <= near {
		t.Fatalf("distance should cost: near=%d far=%d", near, far)
	}
	if d := far - near; d < 3*tn.HopLatency()-sim.Nanosecond || d > 3*tn.HopLatency()+sim.Nanosecond {
		t.Fatalf("latency delta %d, want ~3 hops (%d)", d, 3*tn.HopLatency())
	}
	// Self-sends are free.
	if tn.Send(100, 3, 3, ShortPacket, prioLow) != 100 {
		t.Fatal("self-send should be immediate")
	}
}

func TestTopologyNetworkDrivesProtocol(t *testing.T) {
	// A 4-node ring fabric: reads to an adjacent home must be faster
	// than reads to the two-hop-distant home.
	tn, err := NewTopologyNetwork(noc.Ring{N: 4}, sim.MHz(500), 2)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFabric(DefaultConfig(4), tn)
	// Node 0 fetches lines homed at node 1 (1 hop) and node 2 (2 hops).
	line1 := lineHomed(f, 1)
	line2 := lineHomed(f, 2)
	d1, _, _ := f.Proto(0).Fetch(0, l2.Read, line1)
	d2, _, _ := f.Proto(0).Fetch(0, l2.Read, line2)
	if d2 <= d1 {
		t.Fatalf("2-hop home (%d) should be slower than 1-hop (%d)", d2, d1)
	}
	if _, re := f.Engines(0); re.Stats.Messages == 0 {
		t.Fatal("no messages counted")
	}
}

// probeHopLatency is the calibration NewTopologyNetwork used to run:
// lone short packets from node 0 to up to calibrationProbes strided
// destinations, each run through the packet-level router to delivery,
// and the mean delivery cycles per hop, rounded down.
func probeHopLatency(t *testing.T, topo noc.Topology, clock sim.Clock) sim.Time {
	t.Helper()
	net, err := noc.NewNetwork(noc.DefaultConfig(), topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	hops, err := noc.Hops(topo)
	if err != nil {
		t.Fatal(err)
	}
	probes := min(topo.Nodes()-1, calibrationProbes)
	var totalCycles, totalHops int64
	for k := 0; k < probes; k++ {
		dst := 1 + k*(topo.Nodes()-1)/probes
		p := net.Inject(0, dst, 2, false)
		if err := net.Run(1 << 20); err != nil {
			t.Fatal(err)
		}
		totalCycles += p.DeliverCycle - p.InjectCycle
		totalHops += int64(hops[0][dst])
	}
	return clock.Cycles(totalCycles / totalHops)
}

// TestHopLatencyMatchesRouterProbes: the per-hop latency priced from
// noc.UncontendedCycles equals what probing the router measures, on
// every 2-D torus of 2 to 16 nodes (each ScaleOut shape among them) and
// on the 64-, 256- and (without -short) 1024-node ScaleOut tori.
func TestHopLatencyMatchesRouterProbes(t *testing.T) {
	var topos []noc.Torus
	for n := 2; n <= 16; n++ {
		for w := 1; w*w <= n; w++ {
			if n%w == 0 {
				topos = append(topos, noc.Torus{W: w, H: n / w})
			}
		}
	}
	topos = append(topos, noc.Torus{W: 8, H: 8}, noc.Torus{W: 16, H: 16})
	if !testing.Short() {
		topos = append(topos, noc.Torus{W: 32, H: 32})
	}
	clock := sim.MHz(500)
	for _, topo := range topos {
		tn, err := NewTopologyNetwork(topo, clock, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := probeHopLatency(t, topo, clock)
		if got := tn.HopLatency(); got != want {
			t.Fatalf("%dx%d torus: hop latency %d, router probes measure %d", topo.W, topo.H, got, want)
		}
		if n := topo.Nodes(); n >= 4 && tn.HopLatency() != 4*sim.Nanosecond {
			t.Fatalf("%dx%d torus: hop latency %d, want 4 ns", topo.W, topo.H, tn.HopLatency())
		}
	}
}

// lineHomed finds a line whose home is the given node.
func lineHomed(f *Fabric, n NodeID) cache.LineAddr {
	for page := uint64(0); ; page++ {
		cand := cache.LineAddr(page << 7) // 8 KB page = 128 lines
		if f.HomeOf(cand) == n {
			return cand
		}
	}
}
