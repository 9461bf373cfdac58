package noc

import (
	"testing"

	"piranha/internal/sim"
)

func TestTopologies(t *testing.T) {
	cases := []struct {
		name  string
		topo  Topology
		nodes int
		chans int // expected channels of node 0
	}{
		{"ring8", Ring{N: 8}, 8, 2},
		{"torus4x4", Torus{W: 4, H: 4}, 16, 4},
		{"mesh3x3-corner", Mesh{W: 3, H: 3}, 9, 2},
		{"full5", Full{N: 5}, 5, 4},
		{"table", Table{Adj: [][]int{{1}, {0, 2}, {1}}}, 3, 1},
	}
	for _, tc := range cases {
		if got := tc.topo.Nodes(); got != tc.nodes {
			t.Fatalf("%s: nodes %d, want %d", tc.name, got, tc.nodes)
		}
		if got := len(tc.topo.Neighbors(0)); got != tc.chans {
			t.Fatalf("%s: node 0 has %d channels, want %d", tc.name, got, tc.chans)
		}
	}
}

func TestTorusChannelCountMatchesPiranha(t *testing.T) {
	// Piranha processing nodes have exactly four channels; a 2D torus
	// uses all of them at every node.
	topo := Torus{W: 4, H: 4}
	for i := 0; i < topo.Nodes(); i++ {
		if len(topo.Neighbors(i)) != 4 {
			t.Fatalf("node %d has %d channels", i, len(topo.Neighbors(i)))
		}
	}
}

func TestRoutesShortestPath(t *testing.T) {
	_, hops, err := routes(Ring{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if hops[0][4] != 4 || hops[0][7] != 1 || hops[0][0] != 0 {
		t.Fatalf("ring distances wrong: %v", hops[0])
	}
	_, hops, err = routes(Torus{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Opposite corner of a 4x4 torus is 2+2 hops away.
	if hops[0][10] != 4 {
		t.Fatalf("torus distance 0->10 = %d, want 4", hops[0][10])
	}
}

func TestRoutesDisconnected(t *testing.T) {
	if _, _, err := routes(Table{Adj: [][]int{{1}, {0}, {}}}); err == nil {
		t.Fatal("disconnected topology accepted")
	}
}

func TestSinglePacketDelivery(t *testing.T) {
	n, err := NewNetwork(DefaultConfig(), Torus{W: 4, H: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := n.Inject(0, 10, 2, false)
	if err := n.Run(1000); err != nil {
		t.Fatal(err)
	}
	if p.DeliverCycle == 0 {
		t.Fatal("packet not delivered")
	}
	// 4 hops x 2 cycles, plus the injection cycle.
	if lat := p.DeliverCycle - p.InjectCycle; lat < 8 || lat > 12 {
		t.Fatalf("uncontended latency %d cycles, want ~9", lat)
	}
	if p.Hops != 4 {
		t.Fatalf("hops %d, want 4 (shortest path)", p.Hops)
	}
}

func TestLongPacketSlower(t *testing.T) {
	mk := func(long bool) int64 {
		n, _ := NewNetwork(DefaultConfig(), Ring{N: 4}, 1)
		p := n.Inject(0, 1, 0, long)
		if err := n.Run(100); err != nil {
			t.Fatal(err)
		}
		return p.DeliverCycle - p.InjectCycle
	}
	s, l := mk(false), mk(true)
	if l-s != LongCycles-ShortCycles {
		t.Fatalf("long-short latency delta %d, want %d", l-s, LongCycles-ShortCycles)
	}
}

func TestAllDeliveredUnderLoad(t *testing.T) {
	// Uniform random traffic at high load: every packet must still be
	// delivered exactly once (no loss, no duplication).
	n, err := NewNetwork(DefaultConfig(), Torus{W: 4, H: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(9)
	injected := 0
	for c := 0; c < 400; c++ {
		for k := 0; k < 4; k++ {
			src, dst := rng.Intn(16), rng.Intn(16)
			if src != dst {
				n.Inject(src, dst, rng.Intn(4), rng.Bool(0.3))
				injected++
			}
		}
		n.Step()
	}
	if err := n.Run(100000); err != nil {
		t.Fatal(err)
	}
	if len(n.Delivered) != injected {
		t.Fatalf("delivered %d of %d", len(n.Delivered), injected)
	}
	seen := map[uint64]bool{}
	for _, p := range n.Delivered {
		if seen[p.ID] {
			t.Fatalf("packet %d delivered twice", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestHotPotatoDeflectsUnderContention(t *testing.T) {
	// Funnel heavy traffic into one node of a ring with tiny buffers:
	// deflections must occur, and everything still arrives.
	cfg := Config{BufferPool: 1}
	n, err := NewNetwork(cfg, Torus{W: 4, H: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 16; i++ {
		for k := 0; k < 6; k++ {
			n.Inject(i, 0, 0, true)
		}
	}
	if err := n.Run(100000); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Delivered != 90 {
		t.Fatalf("delivered %d, want 90", st.Delivered)
	}
	if st.Deflections == 0 {
		t.Fatal("expected deflections under funnel contention")
	}
	if st.MaxPoolDepth > uint64(cfg.BufferPool)+8 {
		t.Fatalf("pool depth %d grew far past capacity %d", st.MaxPoolDepth, cfg.BufferPool)
	}
}

func TestPriorityWinsArbitration(t *testing.T) {
	// Two packets compete for the same single channel: the
	// high-priority one must go first.
	n, err := NewNetwork(DefaultConfig(), Ring{N: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Both from node 0 to node 1 (one channel toward 1).
	low := n.Inject(0, 1, 0, true)
	high := n.Inject(0, 1, 3, true)
	if err := n.Run(1000); err != nil {
		t.Fatal(err)
	}
	if high.DeliverCycle >= low.DeliverCycle {
		t.Fatalf("high prio delivered at %d, low at %d", high.DeliverCycle, low.DeliverCycle)
	}
}

func TestLowPriorityBypassesBlockedHigh(t *testing.T) {
	// IQ property: low priority may proceed when high priority is
	// blocked — here the low-priority packet goes the other way round
	// the ring while high waits for the busy channel.
	n, err := NewNetwork(DefaultConfig(), Ring{N: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate channel 0->1 with long transfers.
	n.Inject(0, 1, 3, true)
	n.Inject(0, 1, 3, true)
	// A low-priority packet for node 3 uses the reverse channel freely.
	low := n.Inject(0, 3, 0, false)
	if err := n.Run(1000); err != nil {
		t.Fatal(err)
	}
	if low.DeliverCycle-low.InjectCycle > 5 {
		t.Fatalf("low-priority packet blocked: %d cycles", low.DeliverCycle-low.InjectCycle)
	}
}

func TestAgingPreventsStarvation(t *testing.T) {
	// Keep injecting high-priority traffic across a node while one
	// low-priority packet transits it: the low packet must still get
	// through within bounded time thanks to age escalation.
	n, err := NewNetwork(DefaultConfig(), Ring{N: 8}, 5)
	if err != nil {
		t.Fatal(err)
	}
	victim := n.Inject(0, 4, 0, false)
	for c := 0; c < 300; c++ {
		n.Inject(1, 2, 3, false)
		n.Step()
		if victim.DeliverCycle != 0 {
			break
		}
	}
	n.Run(10000)
	if victim.DeliverCycle == 0 {
		t.Fatal("low-priority packet starved")
	}
}

func TestStatsSummary(t *testing.T) {
	n, _ := NewNetwork(DefaultConfig(), Full{N: 4}, 1)
	n.Inject(0, 1, 0, false)
	n.Inject(1, 2, 0, false)
	if err := n.Run(100); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Delivered != 2 || st.AvgHops != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.AvgLatency <= 0 {
		t.Fatal("no latency recorded")
	}
}

func BenchmarkTorusUniformTraffic(b *testing.B) {
	n, _ := NewNetwork(DefaultConfig(), Torus{W: 4, H: 4}, 11)
	rng := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := rng.Intn(16), rng.Intn(16)
		if src != dst {
			n.Inject(src, dst, rng.Intn(4), false)
		}
		n.Step()
	}
	n.Run(1 << 30)
}
