package noc

import "testing"

// TestHopBenchAllocatesNothing: once the arrival ring's buckets and the
// routers' queues have grown to their high-water marks, a HopBench round
// (output-queue arbitration, the ring, pool compaction) allocates
// nothing. Adaptive routing varies each round's arrival pattern, so the
// marks take a few hundred rounds to reach (a rare pattern can raise one
// later); 512 rounds warm both topologies.
func TestHopBenchAllocatesNothing(t *testing.T) {
	for _, topo := range []Topology{Ring{N: 8}, Torus{W: 8, H: 8}} {
		hb, err := NewHopBench(DefaultConfig(), topo, 1, 64)
		if err != nil {
			t.Fatal(err)
		}
		round := func() {
			n, err := hb.Round(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			if n != hb.Packets() {
				t.Fatalf("%+v: delivered %d of %d packets", topo, n, hb.Packets())
			}
		}
		for i := 0; i < 512; i++ {
			round()
		}
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Fatalf("%+v: a warm round allocates %.1f objects", topo, allocs)
		}
	}
}
