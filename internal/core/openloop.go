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

// buildWorkload constructs one tenant's workload over ncpu CPUs and
// returns its processes-per-CPU count and a pure stream factory over
// tenant-local ids. Closed-loop runs call it once with the experiment's
// kind; an open-loop mix calls it per tenant.
func buildWorkload(kind WorkloadKind, spec WorkloadSpec, lay workload.Layout, ncpu int) (int, func(local int) kernel.Stream) {
	switch kind {
	case DSS, WEB:
		cfg := spec.DSS
		if cfg.InstrPerLine == 0 {
			if kind == WEB {
				cfg = workload.WebLike()
			} else {
				cfg = workload.DefaultDSS()
			}
		}
		w := workload.NewDSS(cfg, lay, ncpu*cfg.ProcsPerCPU)
		return cfg.ProcsPerCPU, func(id int) kernel.Stream { return w.Process(id) }
	case TPCC:
		cfg := spec.OLTP
		if cfg.InstrPerTx == 0 {
			cfg = workload.TPCCLike()
		}
		w := workload.NewOLTP(cfg, lay, ncpu*cfg.ProcsPerCPU)
		return cfg.ProcsPerCPU, func(id int) kernel.Stream { return w.Process(id) }
	case OLTP:
		fallthrough
	default:
		cfg := spec.OLTP
		if cfg.InstrPerTx == 0 {
			cfg = workload.DefaultOLTP()
		}
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
