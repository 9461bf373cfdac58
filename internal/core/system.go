package core

import (
	"fmt"

	"piranha/internal/cpu"
	"piranha/internal/fault"
	"piranha/internal/kernel"
	"piranha/internal/l2"
	"piranha/internal/noc"
	"piranha/internal/pe"
	"piranha/internal/sim"
	"piranha/internal/stats"
	"piranha/internal/trace"
)

// SystemConfig describes a complete machine: one or more Piranha chips
// on a glueless interconnect (paper Figure 3).
type SystemConfig struct {
	Chips int
	Chip  ChipConfig
	// PE configures the protocol engines and inter-node protocol; the
	// zero value takes pe.DefaultConfig.
	PE pe.Config
	// Topology, when set, backs the fabric with the packet-level router
	// model's calibrated distances instead of the flat netOneWay latency
	// (rings, meshes, tori — the glueless configurations of Figure 3).
	Topology noc.Topology
	// Kernel configures the OS model; zero takes kernel.DefaultConfig.
	Kernel kernel.Config
}

// netOneWay is the flat one-way inter-chip latency of a fabric without a
// Topology (calibrated to Table 1's 120/180 ns remote latencies).
const netOneWay = 25 * sim.Nanosecond

// System is an assembled machine with its event engine and kernel.
type System struct {
	Cfg    SystemConfig
	Engine *sim.Engine
	Chips  []*Chip
	Fabric *pe.Fabric // nil for single-chip systems
	Kern   *kernel.Kernel
	Cores  []*cpu.Core // flattened across chips
}

// Validate checks the structural constraints NewSystemErr enforces —
// a topology whose node count matches Chips and whose graph is
// connected — without building the machine. Command-line front ends
// run it before committing to construction so a typo'd flag combination
// is a one-line diagnostic instead of a mid-run failure.
func (cfg SystemConfig) Validate() error {
	if cfg.Topology == nil {
		return nil
	}
	chips := cfg.Chips
	if chips < 1 {
		chips = 1
	}
	if n := cfg.Topology.Nodes(); n != chips {
		return fmt.Errorf("topology has %d nodes but the system has %d chips", n, chips)
	}
	if _, _, err := noc.Routes(cfg.Topology); err != nil {
		return err
	}
	return nil
}

// NewSystem builds the machine. It panics if the configuration is
// invalid (e.g. a degenerate topology); callers that want to surface
// configuration mistakes as errors should use NewSystemErr.
func NewSystem(cfg SystemConfig) *System {
	s, err := NewSystemErr(cfg)
	if err != nil {
		panic("core: " + err.Error())
	}
	return s
}

// NewSystemErr builds the machine, returning an error instead of
// panicking when the configuration cannot be assembled — a topology
// whose node count disagrees with Chips, or one the router model
// rejects. Command-line front ends use this to print a diagnostic
// rather than a stack trace.
func NewSystemErr(cfg SystemConfig) (*System, error) {
	if cfg.Chips < 1 {
		cfg.Chips = 1
	}
	if cfg.Kernel == (kernel.Config{}) {
		cfg.Kernel = kernel.DefaultConfig()
	}
	s := &System{Cfg: cfg, Engine: sim.NewEngine()}

	if cfg.Chips == 1 {
		s.Chips = append(s.Chips, NewChip(cfg.Chip, l2.LocalOnly{}))
	} else {
		pcfg := cfg.PE
		if pcfg.Nodes == 0 {
			pcfg = pe.DefaultConfig(cfg.Chips)
		}
		pcfg.Nodes = cfg.Chips
		var net pe.Network
		if cfg.Topology != nil {
			if n := cfg.Topology.Nodes(); n != cfg.Chips {
				return nil, fmt.Errorf("topology has %d nodes but the system has %d chips", n, cfg.Chips)
			}
			tn, err := pe.NewTopologyNetwork(cfg.Topology, sim.MHz(500), 1)
			if err != nil {
				return nil, err
			}
			net = tn
		} else {
			net = pe.NewFlatNetworkN(netOneWay, cfg.Chips)
		}
		s.Fabric = pe.NewFabric(pcfg, net)
		for i := 0; i < cfg.Chips; i++ {
			chip := NewChip(cfg.Chip, s.Fabric.Proto(pe.NodeID(i)))
			s.Fabric.BindL2(pe.NodeID(i), chip.L2)
			s.Chips = append(s.Chips, chip)
		}
	}
	for _, chip := range s.Chips {
		chip.L2.BindEngine(s.Engine)
		s.Cores = append(s.Cores, chip.Cores...)
	}
	s.Kern = kernel.New(s.Engine, s.Cores, cfg.Kernel)
	return s, nil
}

// Attach wires a tracer and an interval sampler (either may be nil)
// through every component of the machine: cores, caches, L2 banks,
// switches, memory controllers, protocol engines, and the kernel.
func (s *System) Attach(tr *trace.Tracer, series *stats.Series) {
	for i, chip := range s.Chips {
		chip.Attach(tr, series, uint8(i))
	}
	if s.Fabric != nil {
		s.Fabric.SetTracer(tr)
	}
	s.Kern.SetTracer(tr)
}

// AttachFaults wires a fault injector through the machine: memory
// controllers roll ECC faults per line read, the protocol fabric rolls
// link corruption, stalls and message loss per message. A disabled
// injector leaves everything untouched. Call before Attach so the
// tracer's hop spans wrap the fault latency.
func (s *System) AttachFaults(inj *fault.Injector) {
	if !inj.Enabled() {
		return
	}
	for _, chip := range s.Chips {
		for _, mc := range chip.MCs {
			mc.SetFaults(inj)
		}
	}
	if s.Fabric != nil {
		s.Fabric.SetFaults(inj)
	}
}

// TotalCPUs returns the machine's CPU count.
func (s *System) TotalCPUs() int { return len(s.Cores) }

// ResetStats clears all measurement counters (after warmup).
func (s *System) ResetStats() {
	for _, c := range s.Chips {
		c.ResetStats()
	}
	for i := range s.Kern.IdleTime {
		s.Kern.IdleTime[i] = 0
	}
}

// CheckInvariants validates every chip's coherence invariants.
func (s *System) CheckInvariants() error {
	for _, c := range s.Chips {
		if err := c.L2.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}
