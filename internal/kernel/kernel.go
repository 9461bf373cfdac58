// Package kernel is the lightweight operating-system model the workload
// runs under (paper §3.1/3.2: Oracle on Tru64 Unix, 8 server processes
// per CPU for OLTP to hide I/O latency, 4 per CPU for DSS; the kernel
// component is ~25% of OLTP execution time and is generated as part of
// the workload's op stream).
//
// The kernel pins processes to CPUs (Oracle dedicated server processes),
// runs each CPU's ready queue round-robin, blocks processes on I/O ops
// (log writes, reads) with an event-driven wakeup, and charges a
// context-switch instruction cost on every switch. CPU idle time (nothing
// runnable) lands in the Breakdown's Other bucket.
package kernel

import (
	"math"

	"piranha/internal/cpu"
	"piranha/internal/sim"
	"piranha/internal/trace"
)

// Stream produces a process's architectural op stream.
type Stream interface {
	Next(r *sim.RNG) cpu.Op
}

// Config tunes the kernel model.
type Config struct {
	// CtxSwitchInstr is the instruction cost charged per context switch
	// (scheduler + TLB/state handling; a few thousand on Alpha).
	CtxSwitchInstr int32
	// Quantum bounds how far one CPU may run ahead of the event loop
	// before yielding, which bounds cross-CPU timing skew.
	Quantum sim.Time
}

// DefaultConfig returns the standard kernel parameters.
func DefaultConfig() Config {
	return Config{CtxSwitchInstr: 2000, Quantum: 500 * sim.Nanosecond}
}

// Process is one schedulable entity pinned to a CPU.
type Process struct {
	ID     int
	CPU    int
	Stream Stream

	rng    *sim.RNG
	ready  bool
	wakeAt sim.Time
	// wakeGen invalidates in-flight wake events after a migration: each
	// scheduled wake captures the generation and fires only if it still
	// matches. It only ever changes when FailCPUs moves the process, so
	// fault-free runs are bit-for-bit unaffected.
	wakeGen uint64

	// Open-loop fields (see admission.go). An open process executes one
	// admitted transaction at a time: between transactions it parks in
	// its tenant's waiter FIFO (waitAdm) instead of looping.
	open     bool
	tenant   int
	waitAdm  bool
	txArrive sim.Time // arrival timestamp of the transaction being run
}

// Kernel drives the cores.
type Kernel struct {
	cfg   Config
	eng   *sim.Engine
	cores []*cpu.Core
	procs [][]*Process // per CPU
	cur   []int        // round-robin position per CPU
	live  []bool       // per-CPU loop scheduled
	dead  []bool       // fail-stopped CPUs (nil until a failure)

	// dispatchFn and wakeFn are each CPU's dispatch and idle-wake
	// continuations, bound once in New so that scheduling one allocates
	// nothing.
	dispatchFn []func()
	wakeFn     []func()
	// nextWake is, per CPU, a lower bound on the wake time of every
	// process sleeping there: wakeSleepers scans the CPU's processes only
	// once local time reaches it.
	nextWake []sim.Time

	tr  *trace.Tracer
	adm *Admission // nil in closed-loop runs

	// Tx counts committed transactions (KTxMark ops).
	Tx uint64
	// Switches counts context switches.
	Switches uint64
	// IdleTime per CPU.
	IdleTime []sim.Time
	nextID   int
}

// noWake is the nextWake of a CPU with no sleeping process.
const noWake = sim.Time(math.MaxInt64)

// New builds a kernel over an engine and a set of cores.
func New(eng *sim.Engine, cores []*cpu.Core, cfg Config) *Kernel {
	n := len(cores)
	k := &Kernel{
		cfg:        cfg,
		eng:        eng,
		cores:      cores,
		procs:      make([][]*Process, n),
		cur:        make([]int, n),
		live:       make([]bool, n),
		dispatchFn: make([]func(), n),
		wakeFn:     make([]func(), n),
		nextWake:   make([]sim.Time, n),
		IdleTime:   make([]sim.Time, n),
	}
	for cpuID := range cores {
		k.dispatchFn[cpuID] = func() { k.dispatch(cpuID) }
		k.wakeFn[cpuID] = func() {
			k.live[cpuID] = false
			k.wakeSleepers(cpuID, k.eng.Now())
			k.kick(cpuID)
		}
		k.nextWake[cpuID] = noWake
	}
	return k
}

// SetTracer attaches a tracer (nil disables) for idle spans and
// context-switch instants.
func (k *Kernel) SetTracer(tr *trace.Tracer) { k.tr = tr }

// Spawn creates a process pinned to a CPU.
func (k *Kernel) Spawn(cpuID int, s Stream, seed uint64) *Process {
	k.nextID++
	p := &Process{ID: k.nextID, CPU: cpuID, Stream: s, rng: sim.NewRNG(seed), ready: true}
	k.procs[cpuID] = append(k.procs[cpuID], p)
	k.kick(cpuID)
	return p
}

// kick (re)schedules a CPU's dispatch loop.
func (k *Kernel) kick(cpuID int) {
	if k.live[cpuID] || (k.dead != nil && k.dead[cpuID]) {
		return
	}
	k.live[cpuID] = true
	k.eng.Schedule(k.eng.Now(), k.dispatchFn[cpuID])
}

// pick returns the next ready process on a CPU, or nil.
func (k *Kernel) pick(cpuID int) *Process {
	ps := k.procs[cpuID]
	for i := 0; i < len(ps); i++ {
		p := ps[(k.cur[cpuID]+i)%len(ps)]
		if p.ready {
			k.cur[cpuID] = (k.cur[cpuID] + i) % len(ps)
			return p
		}
	}
	return nil
}

// dispatch runs one CPU for up to a quantum of simulated time.
func (k *Kernel) dispatch(cpuID int) {
	k.live[cpuID] = false
	if k.dead != nil && k.dead[cpuID] {
		return // fail-stopped: stale continuations die here
	}
	core := k.cores[cpuID]
	now := k.eng.Now()
	deadline := now + k.cfg.Quantum

	p := k.pick(cpuID)
	if p == nil {
		// Idle: sleep until the earliest wakeup, if any. Processes parked
		// on the admission queue have no wakeup time — an arrival kicks
		// the CPU directly — so they must not drag wake to zero here.
		var wake sim.Time
		for _, q := range k.procs[cpuID] {
			if q.waitAdm {
				continue
			}
			if !q.ready && (wake == 0 || q.wakeAt < wake) {
				wake = q.wakeAt
			}
		}
		if wake == 0 {
			return // nothing will run here until an external kick
		}
		if wake < now {
			wake = now
		}
		k.IdleTime[cpuID] += wake - now
		core.Breakdown.Other += wake - now
		k.tr.Span(trace.Kernel, trace.KIdle, core.Node, int16(cpuID), 0, now, wake, 0)
		k.live[cpuID] = true
		k.eng.Schedule(wake, k.wakeFn[cpuID])
		return
	}

	for now < deadline {
		k.wakeSleepers(cpuID, now)
		op := p.Stream.Next(p.rng)
		switch op.Kind {
		case cpu.KTxMark:
			k.Tx++
			if p.open {
				k.adm.complete(p, now)
				if at, ok := k.adm.take(p.tenant, now); ok {
					// A transaction is already queued: the process rolls
					// straight into it, inheriting its arrival time.
					p.txArrive = at
					break
				}
				// Nothing queued: park in the waiter FIFO until the next
				// arrival for this tenant, yielding the CPU meanwhile.
				p.ready = false
				p.waitAdm = true
				k.adm.wait(p)
				now = k.contextSwitch(core, now)
				next := k.pick(cpuID)
				if next == nil {
					k.eng.Schedule(now, k.dispatchFn[cpuID])
					k.live[cpuID] = true
					return
				}
				p = next
			}
		case cpu.KIO:
			k.sleep(p, now+op.IODelay)
			now = k.contextSwitch(core, now)
			next := k.pick(cpuID)
			if next == nil {
				k.eng.Schedule(now, k.dispatchFn[cpuID])
				k.live[cpuID] = true
				return
			}
			p = next
		default:
			now = core.Exec(now, op)
		}
	}
	k.live[cpuID] = true
	k.eng.Schedule(now, k.dispatchFn[cpuID])
}

// sleep blocks p until at and arms its wake event. The event captures
// the process's wake generation: after a migration it fires as a no-op,
// and the new CPU's wake governs.
func (k *Kernel) sleep(p *Process, at sim.Time) {
	p.ready = false
	p.wakeAt = at
	if at < k.nextWake[p.CPU] {
		k.nextWake[p.CPU] = at
	}
	gen := p.wakeGen
	k.eng.Schedule(at, func() {
		if p.wakeGen != gen {
			return
		}
		p.ready = true
		k.kick(p.CPU)
	})
}

// wakeSleepers marks due processes ready as local time advances within a
// quantum (their engine wake events may still be pending). Admission
// waiters are exempt: they have no due time and only an arrival (via
// Arrive) may unpark them. Until now reaches the CPU's nextWake no
// process can be due, so the scan is skipped; a scan leaves nextWake at
// the earliest wake still pending.
//
//piranha:hotpath
func (k *Kernel) wakeSleepers(cpuID int, now sim.Time) {
	if now < k.nextWake[cpuID] {
		return
	}
	next := noWake
	for _, q := range k.procs[cpuID] {
		if q.ready || q.waitAdm {
			continue
		}
		if q.wakeAt <= now {
			q.ready = true
		} else if q.wakeAt < next {
			next = q.wakeAt
		}
	}
	k.nextWake[cpuID] = next
}

// contextSwitch charges the switch cost and counts it.
func (k *Kernel) contextSwitch(core *cpu.Core, now sim.Time) sim.Time {
	k.Switches++
	k.tr.Instant(trace.Kernel, trace.KCtxSwitch, core.Node, int16(core.ID), 0, now, 0)
	return core.Exec(now, cpu.Op{Kind: cpu.KCompute, N: k.cfg.CtxSwitchInstr})
}

// RunTx runs the simulation until target transactions have committed (or
// the event queue drains). It returns the simulated time elapsed.
func (k *Kernel) RunTx(target uint64) sim.Time {
	start := k.eng.Now()
	k.eng.RunWhile(func() bool { return k.Tx < target })
	return k.eng.Now() - start
}

// Cores exposes the kernel's cores (stat collection).
func (k *Kernel) Cores() []*cpu.Core { return k.cores }

// FailCPUs fail-stops the given CPUs: they never dispatch again, and
// every process pinned to them migrates round-robin onto the surviving
// CPUs in deterministic (victim-CPU, process-list) order. A migrated
// process pays the re-dispatch penalty before it becomes runnable on its
// new CPU (restart cost of recovery software rebuilding its context); a
// process parked on the admission queue just moves — the next arrival
// kicks its new CPU. Returns the number of processes migrated.
func (k *Kernel) FailCPUs(cpus []int, penalty sim.Time) int {
	if k.dead == nil {
		k.dead = make([]bool, len(k.cores))
	}
	for _, c := range cpus {
		k.dead[c] = true
	}
	alive := make([]int, 0, len(k.cores))
	for i := range k.cores {
		if !k.dead[i] {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		panic("kernel: fail-stop killed every CPU")
	}
	now := k.eng.Now()
	migrated, rr := 0, 0
	for _, c := range cpus {
		ps := k.procs[c]
		k.procs[c] = nil
		k.cur[c] = 0
		for _, p := range ps {
			t := alive[rr%len(alive)]
			rr++
			p.CPU = t
			p.wakeGen++ // in-flight wake events for the old CPU die
			k.procs[t] = append(k.procs[t], p)
			migrated++
			if p.waitAdm {
				continue
			}
			wake := now + penalty
			if p.wakeAt > wake {
				wake = p.wakeAt // still blocked on I/O past the penalty
			}
			k.sleep(p, wake)
		}
	}
	return migrated
}

// AliveCPUs returns how many CPUs have not fail-stopped.
func (k *Kernel) AliveCPUs() int {
	if k.dead == nil {
		return len(k.cores)
	}
	n := 0
	for _, d := range k.dead {
		if !d {
			n++
		}
	}
	return n
}
