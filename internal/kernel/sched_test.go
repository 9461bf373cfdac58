package kernel

import (
	"testing"

	"piranha/internal/cpu"
	"piranha/internal/sim"
)

// seqStream replays a fixed op sequence, tracking what it emitted so
// tests can reconcile kernel accounting against it exactly.
type seqStream struct {
	ops          []cpu.Op
	i            int
	computeInstr uint64
}

func (s *seqStream) Next(_ *sim.RNG) cpu.Op {
	op := s.ops[s.i%len(s.ops)]
	s.i++
	if op.Kind == cpu.KCompute {
		s.computeInstr += uint64(op.N)
	}
	return op
}

func newRigCfg(nCPU int, cfg Config) (*sim.Engine, *Kernel) {
	eng := sim.NewEngine()
	var cores []*cpu.Core
	for i := 0; i < nCPU; i++ {
		cores = append(cores, cpu.New(i, cpu.InOrder500(), flatMem{}))
	}
	return eng, New(eng, cores, cfg)
}

// TestIdleAccountingExact pins the idle→runnable transition: with a
// zero context-switch cost, a single process blocking on I/O of
// duration D idles the CPU for exactly D per transaction, charged to
// both IdleTime and the core's Other bucket.
func TestIdleAccountingExact(t *testing.T) {
	const ioDelay = 10 * sim.Microsecond
	const rounds = 5
	_, k := newRigCfg(1, Config{CtxSwitchInstr: 0, Quantum: 500 * sim.Nanosecond})
	s := &seqStream{ops: []cpu.Op{
		{Kind: cpu.KCompute, N: 1000},
		{Kind: cpu.KIO, IODelay: ioDelay},
		{Kind: cpu.KTxMark},
	}}
	k.Spawn(0, s, 1)
	k.RunTx(rounds)
	want := sim.Time(rounds) * ioDelay
	if k.IdleTime[0] != want {
		t.Errorf("IdleTime = %d ps, want exactly %d ps (%d I/O blocks of %d)", k.IdleTime[0], want, rounds, ioDelay)
	}
	if other := k.Cores()[0].Breakdown.Other; other != want {
		t.Errorf("Breakdown.Other = %d ps, want %d ps (idle must land in Other)", other, want)
	}
}

// TestContextSwitchInstructionAccounting reconciles the cores' executed
// instruction count against the streams' emitted compute work plus the
// configured per-switch charge: no instructions may appear from or
// vanish into the scheduler.
func TestContextSwitchInstructionAccounting(t *testing.T) {
	cfg := DefaultConfig()
	_, k := newRigCfg(1, cfg)
	mk := func() *seqStream {
		return &seqStream{ops: []cpu.Op{
			{Kind: cpu.KCompute, N: 1000},
			{Kind: cpu.KIO, IODelay: 20 * sim.Microsecond},
			{Kind: cpu.KTxMark},
		}}
	}
	sA, sB := mk(), mk()
	k.Spawn(0, sA, 1)
	k.Spawn(0, sB, 2)
	k.RunTx(10)
	if k.Switches == 0 {
		t.Fatal("no context switches recorded")
	}
	got := k.Cores()[0].Instructions
	want := sA.computeInstr + sB.computeInstr + k.Switches*uint64(cfg.CtxSwitchInstr)
	if got != want {
		t.Errorf("core executed %d instructions, want %d (streams emitted %d + %d switches x %d)",
			got, want, sA.computeInstr+sB.computeInstr, k.Switches, cfg.CtxSwitchInstr)
	}
}

// TestIdleCPUNeverRunnable pins the terminal-idle branch: a CPU whose
// processes can never wake (none spawned) must park without scheduling
// events forever, letting the engine drain, and accrue no idle time.
func TestIdleCPUNeverRunnable(t *testing.T) {
	_, k := newRigCfg(2, DefaultConfig())
	k.Spawn(0, &seqStream{ops: []cpu.Op{
		{Kind: cpu.KCompute, N: 1000},
		{Kind: cpu.KTxMark},
	}}, 1)
	elapsed := k.RunTx(5)
	if k.Tx < 5 {
		t.Fatalf("tx=%d: idle CPU 1 stalled the run", k.Tx)
	}
	if elapsed <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if k.IdleTime[1] != 0 {
		t.Errorf("CPU 1 accrued IdleTime %d with no processes; terminal idle must not be charged", k.IdleTime[1])
	}
}

// TestSchedulerDeterminism runs the same multiprogrammed workload twice
// and requires bit-identical accounting — the property every reported
// figure rests on.
func TestSchedulerDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64, uint64, sim.Time, uint64) {
		_, k := newRigCfg(2, DefaultConfig())
		for c := 0; c < 2; c++ {
			for i := 0; i < 4; i++ {
				k.Spawn(c, &loopStream{n: 700, perTx: 3, io: 15 * sim.Microsecond}, uint64(c*4+i))
			}
		}
		elapsed := k.RunTx(40)
		var instr uint64
		for _, core := range k.Cores() {
			instr += core.Instructions
		}
		return elapsed, k.Tx, k.Switches, k.IdleTime[0] + k.IdleTime[1], instr
	}
	e1, tx1, sw1, idle1, in1 := run()
	e2, tx2, sw2, idle2, in2 := run()
	if e1 != e2 || tx1 != tx2 || sw1 != sw2 || idle1 != idle2 || in1 != in2 {
		t.Errorf("scheduler not deterministic: (%d,%d,%d,%d,%d) vs (%d,%d,%d,%d,%d)",
			e1, tx1, sw1, idle1, in1, e2, tx2, sw2, idle2, in2)
	}
}
