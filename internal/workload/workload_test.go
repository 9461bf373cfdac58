package workload

import (
	"testing"

	"piranha/internal/cache"
	"piranha/internal/cpu"
	"piranha/internal/sim"
)

func TestLayoutRegionsDisjointAndAligned(t *testing.T) {
	lay := DefaultLayout()
	regions := []Region{
		lay.OSCode, lay.DBCode, lay.KernBSS, lay.SGAData, lay.SGAMeta,
		lay.LockTab, lay.BTreeI, lay.BTreeL, lay.Branch, lay.Teller,
		lay.Log, lay.History, lay.Scan, lay.PGA,
	}
	for i, r := range regions {
		if uint64(r.Base)%cache.PageBytes != 0 {
			t.Fatalf("region %d not page-aligned: %#x", i, r.Base)
		}
		if r.Lines() == 0 {
			t.Fatalf("region %d empty", i)
		}
		for j, s := range regions {
			if i == j {
				continue
			}
			if r.Base < s.Base+cache.Addr(s.Bytes) && s.Base < r.Base+cache.Addr(r.Bytes) {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
}

func TestRegionHelpers(t *testing.T) {
	r := Region{Base: 0x10000, Bytes: 640}
	if r.Lines() != 10 {
		t.Fatalf("lines %d", r.Lines())
	}
	if r.LineAt(0) != 0x10000 || r.LineAt(9) != 0x10000+9*64 {
		t.Fatal("LineAt wrong")
	}
	if r.LineAt(10) != 0x10000 {
		t.Fatal("LineAt should wrap")
	}
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		a := r.RandomLine(rng)
		if a < r.Base || a >= r.Base+cache.Addr(r.Bytes) {
			t.Fatalf("random line %#x outside region", a)
		}
	}
}

func TestPGASlicesDisjoint(t *testing.T) {
	lay := DefaultLayout()
	a := lay.PGASlice(0, 64)
	b := lay.PGASlice(1, 64)
	if a.Base+cache.Addr(a.Bytes) > b.Base {
		t.Fatal("PGA slices overlap")
	}
}

func TestCodeWalkerFootprintAndJumps(t *testing.T) {
	lay := DefaultLayout()
	w := newCodeWalker(lay.DBCode, 512, 6, 0.8)
	r := sim.NewRNG(7)
	var ops []opWord
	ops = w.emit(ops, r, 160000)
	seen := map[cache.Addr]int{}
	instr := int32(0)
	for _, w := range ops {
		switch op := w.op(); op.Kind {
		case cpu.KIFetch:
			if op.Addr < lay.DBCode.Base || op.Addr >= lay.DBCode.Base+cache.Addr(lay.DBCode.Bytes) {
				t.Fatalf("fetch outside code region: %#x", op.Addr)
			}
			seen[op.Addr.Line().Addr()]++
		case cpu.KCompute:
			instr += op.N
		}
	}
	if instr < 160000 {
		t.Fatalf("emitted %d instructions, want >= 160000", instr)
	}
	// The walk must cover far more than an L1's worth of code (large
	// footprint) but revisit hot lines (Zipf skew).
	if len(seen) < 1500 {
		t.Fatalf("footprint only %d lines", len(seen))
	}
	max := 0
	for _, n := range seen {
		if n > max {
			max = n
		}
	}
	if max < 5 {
		t.Fatalf("no hot code lines (max revisit %d)", max)
	}
}

func TestOLTPTransactionShape(t *testing.T) {
	lay := DefaultLayout()
	o := NewOLTP(DefaultOLTP(), lay, 8)
	p := o.NewProcess()
	r := sim.NewRNG(3)

	var instr int32
	counts := map[cpu.OpKind]int{}
	branchRefs, logStores := 0, 0
	// Drain exactly one transaction.
	for {
		op := p.Next(r)
		counts[op.Kind]++
		if op.Kind == cpu.KCompute {
			instr += op.N
		}
		if (op.Kind == cpu.KLoad || op.Kind == cpu.KStore) &&
			op.Addr >= lay.Branch.Base && op.Addr < lay.Branch.Base+cache.Addr(lay.Branch.Bytes) {
			branchRefs++
		}
		if op.Kind == cpu.KStore && op.Addr >= lay.Log.Base && op.Addr < lay.Log.Base+cache.Addr(lay.Log.Bytes) {
			logStores++
		}
		if op.Kind == cpu.KTxMark {
			break
		}
	}
	cfg := DefaultOLTP()
	if instr < int32(cfg.InstrPerTx*8/10) || instr > int32(cfg.InstrPerTx*13/10) {
		t.Fatalf("instructions per tx = %d, want ~%d", instr, cfg.InstrPerTx)
	}
	if counts[cpu.KIO] != 1 {
		t.Fatalf("commits %d, want 1 log write", counts[cpu.KIO])
	}
	if branchRefs < 2 {
		t.Fatalf("branch table refs %d, want >= 2 (every tx updates a branch)", branchRefs)
	}
	if logStores < 2 {
		t.Fatalf("log stores %d", logStores)
	}
	if counts[cpu.KStoreHint] == 0 {
		t.Fatal("no wh64 on history insert")
	}
	if counts[cpu.KLoad] < 60 {
		t.Fatalf("only %d loads per tx", counts[cpu.KLoad])
	}
	if counts[cpu.KIFetch] < 500 {
		t.Fatalf("only %d ifetches per tx", counts[cpu.KIFetch])
	}
}

func TestOLTPDistinctProcessesSharedHotData(t *testing.T) {
	lay := DefaultLayout()
	o := NewOLTP(DefaultOLTP(), lay, 4)
	p1, p2 := o.NewProcess(), o.NewProcess()
	if p1.pga.Base == p2.pga.Base {
		t.Fatal("processes share a PGA")
	}
	// Both processes must touch the same branch region lines over many
	// transactions (the communication hot spot).
	r1, r2 := sim.NewRNG(1), sim.NewRNG(2)
	touch := func(p *OLTPProc, r *sim.RNG) map[cache.Addr]bool {
		s := map[cache.Addr]bool{}
		for tx := 0; tx < 20; tx++ {
			for {
				op := p.Next(r)
				if op.Kind == cpu.KTxMark {
					break
				}
				if op.Addr >= lay.Branch.Base && op.Addr < lay.Branch.Base+cache.Addr(lay.Branch.Bytes) {
					s[op.Addr] = true
				}
			}
		}
		return s
	}
	s1, s2 := touch(p1, r1), touch(p2, r2)
	common := 0
	for a := range s1 {
		if s2[a] {
			common++
		}
	}
	if common == 0 {
		t.Fatal("no shared branch lines between processes")
	}
}

func TestDSSScanShape(t *testing.T) {
	lay := DefaultLayout()
	d := NewDSS(DefaultDSS(), lay, 8)
	p := d.NewProcess()
	p2 := d.NewProcess()
	if p.start == p2.start {
		t.Fatal("slaves scan the same partition")
	}
	r := sim.NewRNG(5)
	var last cache.Addr
	seq := 0
	loads := 0
	for i := 0; i < 2000; i++ {
		op := p.Next(r)
		if op.Kind != cpu.KLoad {
			continue
		}
		loads++
		if op.Dep {
			t.Fatal("DSS loads must be independent (streaming)")
		}
		if last != 0 && op.Addr == last+cache.LineBytes {
			seq++
		}
		last = op.Addr
	}
	if loads == 0 || seq < loads*9/10 {
		t.Fatalf("scan not sequential: %d/%d", seq, loads)
	}
}

func TestDSSComputeDominates(t *testing.T) {
	d := NewDSS(DefaultDSS(), DefaultLayout(), 4)
	p := d.NewProcess()
	r := sim.NewRNG(9)
	var instr int64
	loads := 0
	for i := 0; i < 5000; i++ {
		op := p.Next(r)
		switch op.Kind {
		case cpu.KCompute:
			instr += int64(op.N)
		case cpu.KLoad:
			loads++
		}
	}
	if loads == 0 {
		t.Fatal("no loads")
	}
	perLine := instr / int64(loads)
	if perLine < 100 {
		t.Fatalf("only %d instructions per scanned line; DSS must be compute-heavy", perLine)
	}
}

func TestOOOIPC(t *testing.T) {
	if OOOIPC("dss") <= OOOIPC("oltp") {
		t.Fatal("DSS must have higher ILP than OLTP")
	}
	if OOOIPC("unknown") <= 1 {
		t.Fatal("default IPC should exceed 1")
	}
}

func TestTPCCHeavier(t *testing.T) {
	a, b := DefaultOLTP(), TPCCLike()
	if b.InstrPerTx <= a.InstrPerTx || b.BlockGets <= a.BlockGets {
		t.Fatal("TPC-C-like mix should be heavier than TPC-B")
	}
}

// TestOpQueueSizedOnce: a process sizes its op queue at first use from
// its config, and no transaction of the default, TPC-C-like, DSS or
// web configurations outgrows it. The OLTP bound stays within 10% of
// the longest transaction seen, so the queue is not oversized either.
func TestOpQueueSizedOnce(t *testing.T) {
	lay := DefaultLayout()
	for _, cfg := range []OLTPConfig{DefaultOLTP(), TPCCLike()} {
		o := NewOLTP(cfg, lay, 8)
		longest := 0
		for id := 0; id < 8; id++ {
			p := o.Process(id)
			r := sim.NewRNG(uint64(id) + 1)
			p.Next(r)
			c := cap(p.queue)
			for tx := 0; tx < 50; tx++ {
				for p.head < len(p.queue) {
					p.Next(r)
				}
				longest = max(longest, len(p.queue))
				p.Next(r)
			}
			if cap(p.queue) != c || c != o.maxOps {
				t.Fatalf("InstrPerTx %d: queue capacity %d -> %d, bound %d", cfg.InstrPerTx, c, cap(p.queue), o.maxOps)
			}
		}
		if longest*11/10 < o.maxOps {
			t.Fatalf("InstrPerTx %d: bound %d ops, longest transaction %d", cfg.InstrPerTx, o.maxOps, longest)
		}
	}
	for _, cfg := range []DSSConfig{DefaultDSS(), WebLike()} {
		p := NewDSS(cfg, lay, 4).Process(1)
		r := sim.NewRNG(1)
		for tx := 0; tx < 5; tx++ {
			p.Next(r)
			for p.head < len(p.queue) {
				p.Next(r)
			}
			if len(p.queue) != cfg.opsPerTx() || cap(p.queue) != cfg.opsPerTx() {
				t.Fatalf("DSS tx has %d ops in a queue of %d, want %d", len(p.queue), cap(p.queue), cfg.opsPerTx())
			}
		}
	}
}
