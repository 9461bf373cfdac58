package core

import (
	"piranha/internal/kernel"
	"piranha/internal/sim"
	"piranha/internal/workload"
)

// Open-loop plumbing: tenant process pools and the arrival driver.
//
// A run's server processes are addressed by a single global id — the
// order Spawn/SpawnOpen is called. With multiple tenants the id space is
// laid out CPU-major: CPU c owns ids [c·P, (c+1)·P) where P is the
// per-CPU total, and within a CPU each tenant owns a fixed band of width
// perCPU in mix order. A process never runs another tenant's
// transactions, so its op stream depends only on its own tenant.

// tenantPool is one tenant's slice of the process id space.
type tenantPool struct {
	perCPU int // processes per CPU for this tenant
	base   int // first in-CPU offset of this tenant's band
	stream func(local int) kernel.Stream
}

// locateProc resolves a global process id to (tenant, tenant-local id).
// The local id is what the tenant's workload builder partitions on
// (PGA slices, scan ranges), exactly as in a single-tenant run.
func locateProc(pools []tenantPool, perCPU, id int) (tenant, local int) {
	c, off := id/perCPU, id%perCPU
	for t := range pools {
		p := &pools[t]
		if off < p.base+p.perCPU {
			return t, c*p.perCPU + (off - p.base)
		}
	}
	panic("core: process id out of tenant range")
}

// dssConfig and oltpConfig resolve one tenant's workload parameters:
// the spec's own when set, else the kind's defaults.
func dssConfig(kind WorkloadKind, spec WorkloadSpec) workload.DSSConfig {
	if spec.DSS.InstrPerLine != 0 {
		return spec.DSS
	}
	if kind == WEB {
		return workload.WebLike()
	}
	return workload.DefaultDSS()
}

func oltpConfig(kind WorkloadKind, spec WorkloadSpec) workload.OLTPConfig {
	if spec.OLTP.InstrPerTx != 0 {
		return spec.OLTP
	}
	if kind == TPCC {
		return workload.TPCCLike()
	}
	return workload.DefaultOLTP()
}

// tenantKinds lists the run's tenant kinds: the spec's own kind, or one
// per entry of an open-loop mix.
func tenantKinds(spec WorkloadSpec) []WorkloadKind {
	if !spec.Arrivals.Enabled() || len(spec.Arrivals.Mix) == 0 {
		return []WorkloadKind{spec.Kind}
	}
	kinds := make([]WorkloadKind, len(spec.Arrivals.Mix))
	for i, t := range spec.Arrivals.Mix {
		kinds[i] = WorkloadKind(t.Kind)
	}
	return kinds
}

// ProcsPerCPU returns how many server processes a run of spec places on
// each CPU: the workload's multiprogramming level, summed over the
// tenants of an open-loop mix. It is the count Run spawns, computed
// without building anything.
func ProcsPerCPU(spec WorkloadSpec) int {
	n := 0
	for _, k := range tenantKinds(spec) {
		switch k {
		case DSS, WEB:
			n += dssConfig(k, spec).ProcsPerCPU
		default:
			n += oltpConfig(k, spec).ProcsPerCPU
		}
	}
	return n
}

// buildWorkload constructs one tenant's workload over ncpu CPUs and
// returns its processes-per-CPU count and a pure stream factory over
// tenant-local ids. Closed-loop runs call it once with the experiment's
// kind; an open-loop mix calls it per tenant.
func buildWorkload(kind WorkloadKind, spec WorkloadSpec, lay workload.Layout, ncpu int) (int, func(local int) kernel.Stream) {
	switch kind {
	case DSS, WEB:
		cfg := dssConfig(kind, spec)
		w := workload.NewDSS(cfg, lay, ncpu*cfg.ProcsPerCPU)
		return cfg.ProcsPerCPU, func(id int) kernel.Stream { return w.Process(id) }
	default:
		cfg := oltpConfig(kind, spec)
		w := workload.NewOLTP(cfg, lay, ncpu*cfg.ProcsPerCPU)
		return cfg.ProcsPerCPU, func(id int) kernel.Stream { return w.Process(id) }
	}
}

// startArrivals installs the arrival driver: a self-rescheduling chain
// of engine events, one per arrival, always exactly one in flight. The
// chain reads only the generator's dedicated split RNG, so its event
// history — and therefore every admission decision — is bit-identical
// across same-seed reruns. The chain never ends; RunTx's target
// condition is what stops the run.
func startArrivals(eng *sim.Engine, k *kernel.Kernel, gen *workload.ArrivalGen) {
	var schedule func()
	schedule = func() {
		at, tenant := gen.Next()
		eng.Schedule(at, func() {
			k.Arrive(tenant)
			schedule()
		})
	}
	schedule()
}
