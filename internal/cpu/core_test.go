package cpu

import (
	"testing"
	"unsafe"

	"piranha/internal/cache"
	"piranha/internal/l2"
	"piranha/internal/sim"
)

// scriptMem returns canned (latency, svc) pairs per access.
type scriptMem struct {
	lat []sim.Time
	svc []l2.Svc
	i   int
	log []AccessKind
}

func (m *scriptMem) Access(now sim.Time, _ int, k AccessKind, _ cache.Addr) (sim.Time, l2.Svc) {
	m.log = append(m.log, k)
	if m.i >= len(m.lat) {
		return now, l2.SvcL1
	}
	l, s := m.lat[m.i], m.svc[m.i]
	m.i++
	return now + l, s
}

func TestComputeBusyTime(t *testing.T) {
	c := New(0, InOrder500(), &scriptMem{})
	end := c.Exec(0, Op{Kind: KCompute, N: 1000})
	// 1000 instructions at CPI 1, 500 MHz = 2 us.
	if end != 2*sim.Microsecond {
		t.Fatalf("compute end %d, want 2 us", end)
	}
	if c.Breakdown.CPUBusy != 2*sim.Microsecond {
		t.Fatalf("busy %d", c.Breakdown.CPUBusy)
	}
	if c.Instructions != 1000 {
		t.Fatalf("instructions %d", c.Instructions)
	}
}

func TestWideIssueFasterCompute(t *testing.T) {
	narrow := New(0, InOrder1G(), &scriptMem{})
	wide := New(0, OutOfOrder1G(1.9), &scriptMem{})
	e1 := narrow.Exec(0, Op{Kind: KCompute, N: 1900})
	e2 := wide.Exec(0, Op{Kind: KCompute, N: 1900})
	if e2 >= e1 {
		t.Fatalf("4-issue (%d) not faster than 1-issue (%d)", e2, e1)
	}
	// 1900 instr at IPC 1.9, 1 GHz = 1000 cycles = 1 us.
	if e2 != 1*sim.Microsecond {
		t.Fatalf("wide compute end %d", e2)
	}
}

func TestInOrderLoadMissBlocks(t *testing.T) {
	mem := &scriptMem{lat: []sim.Time{80 * sim.Nanosecond}, svc: []l2.Svc{l2.SvcLocalMem}}
	c := New(0, InOrder500(), mem)
	end := c.Exec(0, Op{Kind: KLoad, Addr: 0x40})
	if end != 80*sim.Nanosecond {
		t.Fatalf("in-order miss should block fully: end %d", end)
	}
	if c.Breakdown.L2Miss != 80*sim.Nanosecond {
		t.Fatalf("L2Miss stall %d", c.Breakdown.L2Miss)
	}
}

func TestStallAttributionByClass(t *testing.T) {
	mem := &scriptMem{
		lat: []sim.Time{16 * sim.Nanosecond, 24 * sim.Nanosecond, 120 * sim.Nanosecond},
		svc: []l2.Svc{l2.SvcL2Hit, l2.SvcL2Fwd, l2.SvcRemote},
	}
	c := New(0, InOrder500(), mem)
	now := sim.Time(0)
	for i := 0; i < 3; i++ {
		now = c.Exec(now, Op{Kind: KLoad, Addr: 0x40})
	}
	if c.Breakdown.L2HitStall != 40*sim.Nanosecond {
		t.Fatalf("L2 hit stall %d, want 40ns (hit+fwd)", c.Breakdown.L2HitStall)
	}
	if c.Breakdown.L2Miss != 120*sim.Nanosecond {
		t.Fatalf("L2 miss stall %d", c.Breakdown.L2Miss)
	}
}

func TestOOOHidesIndependentMisses(t *testing.T) {
	// Four independent 80 ns misses: the OOO core issues them all and
	// only the window/MSHR limits apply; total time far below 4x80ns.
	mkMem := func() *scriptMem {
		return &scriptMem{
			lat: []sim.Time{80 * sim.Nanosecond, 80 * sim.Nanosecond, 80 * sim.Nanosecond, 80 * sim.Nanosecond},
			svc: []l2.Svc{l2.SvcLocalMem, l2.SvcLocalMem, l2.SvcLocalMem, l2.SvcLocalMem},
		}
	}
	ooo := New(0, OutOfOrder1G(1.5), mkMem())
	ino := New(0, InOrder1G(), mkMem())
	var tO, tI sim.Time
	for i := 0; i < 4; i++ {
		tO = ooo.Exec(tO, Op{Kind: KLoad, Addr: cache.Addr(i * 64)})
		tI = ino.Exec(tI, Op{Kind: KLoad, Addr: cache.Addr(i * 64)})
	}
	// Retire trailing compute to account for window drain.
	tO = ooo.Exec(tO, Op{Kind: KCompute, N: 10})
	if tI < 320*sim.Nanosecond {
		t.Fatalf("in-order total %d, want >= 320 ns", tI)
	}
	if tO > tI/2 {
		t.Fatalf("OOO (%d) should hide most of in-order (%d)", tO, tI)
	}
}

func TestOOODependentLoadsSerialize(t *testing.T) {
	mk := func() *scriptMem {
		return &scriptMem{
			lat: []sim.Time{80 * sim.Nanosecond, 80 * sim.Nanosecond, 80 * sim.Nanosecond},
			svc: []l2.Svc{l2.SvcLocalMem, l2.SvcLocalMem, l2.SvcLocalMem},
		}
	}
	dep := New(0, OutOfOrder1G(1.5), mk())
	var tD sim.Time
	for i := 0; i < 3; i++ {
		tD = dep.Exec(tD, Op{Kind: KLoad, Addr: cache.Addr(i * 64), Dep: true})
	}
	// Pointer chasing: each load waits for the previous one: >= 160 ns
	// of dependence stalls before the third load issues.
	if tD < 160*sim.Nanosecond {
		t.Fatalf("dependent chain finished in %d, want >= 160 ns", tD)
	}
	if dep.Breakdown.L2Miss < 150*sim.Nanosecond {
		t.Fatalf("dependence stalls not attributed: %d", dep.Breakdown.L2Miss)
	}
}

func TestWindowLimitStalls(t *testing.T) {
	// One long miss followed by more instructions than the window
	// holds: the core must stall when the window fills.
	mem := &scriptMem{lat: []sim.Time{1 * sim.Microsecond}, svc: []l2.Svc{l2.SvcLocalMem}}
	m := OutOfOrder1G(1.0)
	m.WindowSize = 64
	c := New(0, m, mem)
	end := c.Exec(0, Op{Kind: KLoad, Addr: 0x40})
	end = c.Exec(end, Op{Kind: KCompute, N: 1000})
	// 1000 instructions cannot all retire behind the 64-entry window:
	// the total must include most of the 1 us miss.
	if end < 900*sim.Nanosecond {
		t.Fatalf("window never filled: end %d", end)
	}
}

func TestMSHRLimit(t *testing.T) {
	var lat []sim.Time
	var svc []l2.Svc
	for i := 0; i < 10; i++ {
		lat = append(lat, 500*sim.Nanosecond)
		svc = append(svc, l2.SvcLocalMem)
	}
	m := OutOfOrder1G(1.0)
	m.MSHRs = 2
	c := New(0, m, &scriptMem{lat: lat, svc: svc})
	var now sim.Time
	for i := 0; i < 10; i++ {
		now = c.Exec(now, Op{Kind: KLoad, Addr: cache.Addr(i * 64)})
	}
	// With 2 MSHRs, the 10 overlapping 500 ns misses must serialize in
	// waves; with unlimited MSHRs the whole sequence would take ~7 ns.
	if now < 1200*sim.Nanosecond {
		t.Fatalf("MSHR limit not enforced: %d", now)
	}
	unlimited := New(1, OutOfOrder1G(1.0), &scriptMem{lat: lat, svc: svc})
	var free sim.Time
	for i := 0; i < 10; i++ {
		free = unlimited.Exec(free, Op{Kind: KLoad, Addr: cache.Addr(i * 64)})
	}
	if free >= now {
		t.Fatalf("8 MSHRs (%d) should beat 2 MSHRs (%d)", free, now)
	}
}

func TestStoreHintNonBlocking(t *testing.T) {
	mem := &scriptMem{lat: []sim.Time{120 * sim.Nanosecond}, svc: []l2.Svc{l2.SvcRemote}}
	c := New(0, InOrder500(), mem)
	end := c.Exec(0, Op{Kind: KStoreHint, Addr: 0x40})
	if end > 10*sim.Nanosecond {
		t.Fatalf("wh64 blocked the core: end %d", end)
	}
	if mem.log[0] != StoreHint {
		t.Fatalf("issued %v", mem.log[0])
	}
}

func TestIFetchMissStalls(t *testing.T) {
	mem := &scriptMem{lat: []sim.Time{16 * sim.Nanosecond}, svc: []l2.Svc{l2.SvcL2Hit}}
	c := New(0, InOrder500(), mem)
	end := c.Exec(0, Op{Kind: KIFetch, Addr: 0x1000})
	if end != 16*sim.Nanosecond {
		t.Fatalf("ifetch miss end %d", end)
	}
	if c.Breakdown.L2HitStall != 16*sim.Nanosecond {
		t.Fatal("ifetch stall not attributed")
	}
	// An L1 ifetch hit is free (pipelined).
	if got := c.Exec(end, Op{Kind: KIFetch, Addr: 0x1000}); got != end {
		t.Fatal("ifetch hit should cost nothing")
	}
}

func TestKernelOpsFreeAtCore(t *testing.T) {
	c := New(0, InOrder500(), &scriptMem{})
	for _, k := range []OpKind{KIO, KTxMark} {
		if got := c.Exec(100, Op{Kind: k}); got != 100 {
			t.Fatalf("op %d cost time at the core", k)
		}
	}
}

// TestOpIsThreeWords pins the op layout: Kind and Dep share the word N
// completes. Every op stream is a slice of these, so a fourth word would
// add a third to the queue and replay memory of every process.
func TestOpIsThreeWords(t *testing.T) {
	if s := unsafe.Sizeof(Op{}); s != 24 {
		t.Fatalf("sizeof(Op) = %d bytes, want 24", s)
	}
}
