package noc

// HopBench drives the same pre-allocated packet batch through a network
// over and over, re-arming the packets between rounds instead of
// injecting fresh ones. Inject necessarily allocates one Packet per
// call, so a benchmark built on it can never show the delivery path's
// true allocation profile; HopBench isolates the steady-state hop
// machinery — output-queue arbitration, the arrival ring, pool
// compaction — which allocates nothing once warm
// (TestHopBenchAllocatesNothing).
type HopBench struct {
	Net  *Network
	pkts []*Packet
}

// NewHopBench builds a network over topo and a batch of packets spread
// round-robin across source nodes, each aimed at a distinct non-local
// destination with a mix of priorities and lengths.
func NewHopBench(cfg Config, topo Topology, seed uint64, packets int) (*HopBench, error) {
	net, err := NewNetwork(cfg, topo, seed)
	if err != nil {
		return nil, err
	}
	hb := &HopBench{Net: net}
	nodes := topo.Nodes()
	for i := 0; i < packets; i++ {
		src := i % nodes
		dst := (src + 1 + i%(nodes-1)) % nodes
		hb.pkts = append(hb.pkts, &Packet{
			ID:   uint64(i + 1),
			Src:  src,
			Dst:  dst,
			Prio: i % Priorities,
			Long: i%3 == 0,
		})
	}
	return hb, nil
}

// Packets returns the batch size (ops-per-round for throughput math).
func (hb *HopBench) Packets() int { return len(hb.pkts) }

// Round re-arms every packet, enqueues it at its source router, and
// steps the network until the whole batch drains, returning the number
// delivered. Delivered is re-sliced rather than reallocated, and every
// queue the batch flows through keeps its backing storage, so once the
// queues reach their high-water marks (a few hundred rounds) a round
// allocates nothing.
func (hb *HopBench) Round(maxCycles int64) (int, error) {
	n := hb.Net
	n.Delivered = n.Delivered[:0]
	for _, p := range hb.pkts {
		p.InjectCycle = n.cycle
		p.DeliverCycle = 0
		p.Hops = 0
		p.Deflections = 0
		p.age = 0
		n.rts[p.Src].oq = append(n.rts[p.Src].oq, p)
		n.inFlight++
		n.activate(p.Src)
	}
	if err := n.Run(maxCycles); err != nil {
		return 0, err
	}
	return len(n.Delivered), nil
}
