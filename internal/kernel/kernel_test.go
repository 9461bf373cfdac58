package kernel

import (
	"testing"

	"piranha/internal/cache"
	"piranha/internal/cpu"
	"piranha/internal/l2"
	"piranha/internal/sim"
)

// flatMem satisfies cpu.MemSystem with instant L1 hits.
type flatMem struct{}

func (flatMem) Access(now sim.Time, _ int, _ cpu.AccessKind, _ cache.Addr) (sim.Time, l2.Svc) {
	return now, l2.SvcL1
}

// loopStream emits compute then a tx mark, optionally with I/O.
type loopStream struct {
	n       int32
	io      sim.Time
	perTx   int
	counter int
}

func (s *loopStream) Next(_ *sim.RNG) cpu.Op {
	s.counter++
	if s.io > 0 && s.counter%(s.perTx+2) == s.perTx+1 {
		return cpu.Op{Kind: cpu.KIO, IODelay: s.io}
	}
	if s.counter%(s.perTx+2) == 0 {
		return cpu.Op{Kind: cpu.KTxMark}
	}
	return cpu.Op{Kind: cpu.KCompute, N: s.n}
}

func newRig(nCPU int) (*sim.Engine, *Kernel) {
	eng := sim.NewEngine()
	var cores []*cpu.Core
	for i := 0; i < nCPU; i++ {
		cores = append(cores, cpu.New(i, cpu.InOrder500(), flatMem{}))
	}
	return eng, New(eng, cores, DefaultConfig())
}

func TestSingleProcessTx(t *testing.T) {
	eng, k := newRig(1)
	k.Spawn(0, &loopStream{n: 1000, perTx: 4}, 1)
	elapsed := k.RunTx(10)
	if k.Tx < 10 {
		t.Fatalf("tx=%d", k.Tx)
	}
	// 10 tx x 5 compute ops x 1000 instr @ 500 MHz = 100 us.
	if elapsed < 95*sim.Microsecond || elapsed > 110*sim.Microsecond {
		t.Fatalf("elapsed %d us", elapsed/sim.Microsecond)
	}
	_ = eng
}

func TestIOBlocksAndOverlaps(t *testing.T) {
	// One process with I/O: the CPU idles during I/O. Eight processes:
	// the I/O hides behind the other processes' compute.
	run := func(nproc int) (sim.Time, sim.Time) {
		_, k := newRig(1)
		for i := 0; i < nproc; i++ {
			k.Spawn(0, &loopStream{n: 2000, perTx: 4, io: 100 * sim.Microsecond}, uint64(i))
		}
		elapsed := k.RunTx(uint64(4 * nproc))
		return elapsed, k.IdleTime[0]
	}
	e1, idle1 := run(1)
	e8, idle8 := run(8)
	if idle1 == 0 {
		t.Fatal("single process should idle during I/O")
	}
	perTx1 := float64(e1) / 4
	perTx8 := float64(e8) / 32
	if perTx8 > perTx1/2 {
		t.Fatalf("multiprogramming did not hide I/O: %v vs %v per tx", perTx8, perTx1)
	}
	if idle8 >= idle1 {
		t.Fatalf("idle with 8 procs (%d) should shrink vs 1 proc (%d)", idle8, idle1)
	}
}

func TestContextSwitchesCharged(t *testing.T) {
	_, k := newRig(1)
	k.Spawn(0, &loopStream{n: 100, perTx: 2, io: 10 * sim.Microsecond}, 1)
	k.Spawn(0, &loopStream{n: 100, perTx: 2, io: 10 * sim.Microsecond}, 2)
	k.RunTx(20)
	if k.Switches == 0 {
		t.Fatal("no context switches recorded")
	}
}

func TestMultiCPUIndependence(t *testing.T) {
	_, k := newRig(4)
	for c := 0; c < 4; c++ {
		k.Spawn(c, &loopStream{n: 1000, perTx: 4}, uint64(c))
	}
	elapsed := k.RunTx(40)
	// 4 CPUs each committing ~10 tx in parallel: roughly the time one
	// CPU needs for 10, not 40.
	if elapsed > 120*sim.Microsecond {
		t.Fatalf("no parallel speedup: %d us", elapsed/sim.Microsecond)
	}
	total := uint64(0)
	for _, c := range k.Cores() {
		total += c.Instructions
	}
	if total < 160000 {
		t.Fatalf("instructions %d", total)
	}
}

// TestWarmDispatchAllocatesNothing: each CPU's dispatch continuation is
// bound once in New, so a warmed kernel on a zero-latency memory
// dispatches and commits transactions without allocating.
func TestWarmDispatchAllocatesNothing(t *testing.T) {
	_, k := newRig(2)
	ops := []cpu.Op{
		{Kind: cpu.KCompute, N: 300},
		{Kind: cpu.KLoad, Addr: 0x1000},
		{Kind: cpu.KCompute, N: 500},
		{Kind: cpu.KTxMark},
	}
	for i := 0; i < 6; i++ {
		k.Spawn(i%2, &seqStream{ops: ops}, uint64(i))
	}
	k.RunTx(200)
	target := k.Tx
	allocs := testing.AllocsPerRun(20, func() {
		target += 50
		k.RunTx(target)
	})
	if allocs != 0 {
		t.Fatalf("warm dispatch allocates %.1f objects per 50 transactions", allocs)
	}
}

// TestMigrantWakesBeforeCachedEarliestWake: FailCPUs moves a sleeping
// process onto a CPU whose cached earliest wake is later than the
// migrant's own. Local time reaching the migrant's wake must still
// make it ready, even though no process native to that CPU is due.
func TestMigrantWakesBeforeCachedEarliestWake(t *testing.T) {
	_, k := newRig(2)
	migrant := k.Spawn(0, &loopStream{n: 1000, perTx: 4}, 1)
	native := k.Spawn(1, &loopStream{n: 1000, perTx: 4}, 2)
	k.sleep(migrant, 100*sim.Microsecond)
	k.sleep(native, 500*sim.Microsecond) // CPU 1 caches 500 µs as its earliest wake
	if n := k.FailCPUs([]int{0}, 5*sim.Microsecond); n != 1 {
		t.Fatalf("migrated %d processes, want 1", n)
	}
	k.wakeSleepers(1, 100*sim.Microsecond-1)
	if migrant.ready {
		t.Fatal("migrant woke before its wake time")
	}
	k.wakeSleepers(1, 100*sim.Microsecond)
	if !migrant.ready {
		t.Fatal("migrant still asleep at its wake time on its new CPU")
	}
	if native.ready {
		t.Fatal("native process woke 400 µs early")
	}
}
