package pe

import (
	"fmt"

	"piranha/internal/noc"
	"piranha/internal/sim"
)

// TopologyNetwork backs the protocol fabric with a real interconnect
// topology: each message pays a fixed interface overhead, a per-hop
// latency over the topology's shortest path, and per-node egress
// occupancy. The per-hop latency comes from the packet-level router's
// uncontended timing (noc.UncontendedCycles). This keeps the fabric's
// synchronous interface while multi-chip experiments see non-uniform
// distance effects on topologies like rings and tori instead of the
// flat one-way constant.
type TopologyNetwork struct {
	hops    [][]int
	clock   sim.Clock
	hopLat  sim.Time // per-hop latency
	baseLat sim.Time // fixed wire/interface overhead per message
	egress  []*sim.Server
}

// calibrationProbes bounds how many destinations of node 0 the per-hop
// latency averages over on large machines.
const calibrationProbes = 64

// NewTopologyNetwork returns the adapter for the given topology. The
// interconnect clock is the router clock. The per-hop latency is the
// uncontended cycles a short packet from node 0 takes, per hop, averaged
// over up to calibrationProbes evenly strided destinations and rounded
// down. The seed is unused: an uncontended packet's latency does not
// depend on the router's random path choice.
func NewTopologyNetwork(topo noc.Topology, clock sim.Clock, seed uint64) (*TopologyNetwork, error) {
	hops, err := noc.Hops(topo)
	if err != nil {
		return nil, err
	}
	probes := topo.Nodes() - 1
	if probes > calibrationProbes {
		probes = calibrationProbes
	}
	var totalCycles, totalHops int64
	for k := 0; k < probes; k++ {
		h := hops[0][1+k*(topo.Nodes()-1)/probes]
		totalCycles += noc.UncontendedCycles(h, false)
		totalHops += int64(h)
	}
	if totalHops == 0 {
		return nil, fmt.Errorf("pe: degenerate topology")
	}
	t := &TopologyNetwork{
		hops:    hops,
		clock:   clock,
		hopLat:  clock.Cycles(totalCycles / totalHops),
		baseLat: 8 * sim.Nanosecond, // interface + synchronization
	}
	for i := 0; i < topo.Nodes(); i++ {
		t.egress = append(t.egress, sim.NewServer(len(topo.Neighbors(i))))
	}
	return t, nil
}

// HopLatency returns the per-hop latency.
func (t *TopologyNetwork) HopLatency() sim.Time { return t.hopLat }

// Send implements Network.
func (t *TopologyNetwork) Send(now sim.Time, from, to NodeID, bytes int, prio int) sim.Time {
	if from == to {
		return now
	}
	// Channel occupancy: 64 data bits per interconnect cycle.
	cycles := int64((bytes*8 + 63) / 64)
	sent := t.egress[from].Acquire(now, t.clock.Cycles(cycles))
	return sent + t.baseLat + sim.Time(t.hops[from][to])*t.hopLat
}
