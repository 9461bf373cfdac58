package workload

import (
	"piranha/internal/cache"
	"piranha/internal/cpu"
	"piranha/internal/sim"
)

// OLTPConfig parameterizes the TPC-B-style transaction workload (§3.1:
// 40 branches, dedicated server processes, 8 per CPU, log writes hidden
// by multiprogramming).
type OLTPConfig struct {
	Branches int // 40
	Tellers  int // 400
	// InstrPerTx is the per-transaction path length (database + kernel).
	// Real Oracle TPC-B paths run ~10x longer; the model transaction is
	// scaled down uniformly, which preserves every ratio the paper
	// reports since all configurations run the same stream.
	InstrPerTx int
	// KernelFrac is the fraction of the path executed in the kernel
	// (~25% per the paper).
	KernelFrac float64
	// BlockGets is the number of buffer-cache block accesses per
	// transaction, each with its buffer-header/latch metadata work.
	BlockGets int
	// HotDataFrac is the fraction of gets that hit the skewed hot
	// working set (vs uniformly cold blocks).
	HotDataFrac float64
	// ProcsPerCPU is the server-process multiprogramming level.
	ProcsPerCPU int
	// LogIOLatency is the commit's log-write latency (group commit to
	// a controller with NV cache).
	LogIOLatency sim.Time
	// CodeFuncs/KernFuncs are function counts for the code walkers.
	CodeFuncs, KernFuncs int
	// CodeTheta is the Zipf skew of function popularity.
	CodeTheta float64
	// ShareTheta is the skew of the shared communication structures
	// (buffer headers, latches, lock table, kernel data): higher means
	// hotter lines and more cross-CPU invalidation traffic.
	ShareTheta float64
	// DataTheta is the skew of the hot block working set.
	DataTheta float64
	// UseWriteHints enables wh64 on full-line history inserts.
	UseWriteHints bool
}

// DefaultOLTP returns the calibrated TPC-B-like configuration.
func DefaultOLTP() OLTPConfig {
	return OLTPConfig{
		Branches:      40,
		Tellers:       400,
		InstrPerTx:    16000,
		KernelFrac:    0.25,
		BlockGets:     60,
		HotDataFrac:   0.85,
		ProcsPerCPU:   8,
		LogIOLatency:  150 * sim.Microsecond,
		CodeFuncs:     128,
		KernFuncs:     64,
		CodeTheta:     0.95,
		ShareTheta:    0.90,
		DataTheta:     0.75,
		UseWriteHints: true,
	}
}

// TPCCLike returns a heavier transaction mix modeled after TPC-C
// (longer paths, more block gets, larger hot set) used for the §4
// sensitivity result (P8 > 3x OOO on TPC-C).
func TPCCLike() OLTPConfig {
	c := DefaultOLTP()
	c.InstrPerTx = 26000
	c.BlockGets = 84
	c.HotDataFrac = 0.75
	c.DataTheta = 0.65
	return c
}

// OLTP builds per-process op streams over a shared layout.
type OLTP struct {
	Cfg OLTPConfig
	Lay Layout
	// nProcs total across the machine (for PGA slicing).
	nProcs  int
	spawned int
	// hot block subset of SGAData.
	hotBlocks Region
	// Shared Zipf samplers. A sampler's Next reads only fields frozen
	// by NewZipf, so one instance serves every process; building them
	// once here instead of per process matters at scale-out sizes —
	// NewZipf is O(region lines), and a 1024-node machine constructs
	// thousands of server processes.
	metaZipf, hotZipf, kbssZipf, lockZipf, codeZipf, kernZipf *sim.Zipf
	// maxOps bounds one transaction's op count (see OLTPConfig.maxOps).
	maxOps int
}

// NewOLTP prepares the workload for nProcs server processes.
func NewOLTP(cfg OLTPConfig, lay Layout, nProcs int) *OLTP {
	hot := Region{Base: lay.SGAData.Base, Bytes: 1 << 20} // 1 MB hot block set
	return &OLTP{
		Cfg: cfg, Lay: lay, nProcs: nProcs, hotBlocks: hot,
		metaZipf: sim.NewZipf(int(lay.SGAMeta.Lines()/64), cfg.ShareTheta),
		hotZipf:  sim.NewZipf(int(hot.Lines()), cfg.DataTheta),
		kbssZipf: sim.NewZipf(int(lay.KernBSS.Lines()), cfg.ShareTheta),
		lockZipf: sim.NewZipf(int(lay.LockTab.Lines()), cfg.ShareTheta),
		codeZipf: sim.NewZipf(cfg.CodeFuncs, cfg.CodeTheta),
		kernZipf: sim.NewZipf(cfg.KernFuncs, cfg.CodeTheta),
		maxOps:   cfg.maxOps(),
	}
}

// maxOps bounds the ops generate emits for one transaction, following
// its structure with every random choice taken the long way. A process
// sizes its op queue to it once, so generating never regrows the queue.
func (c OLTPConfig) maxOps() int {
	dbInstr := int(float64(c.InstrPerTx) * (1 - c.KernelFrac))
	gets := c.BlockGets
	codeChunk := dbInstr / (gets + 4)
	kernChunk := (c.InstrPerTx - dbInstr) / 6
	code := func(instrs int) int { return 2 * ((instrs + instrPerLine - 1) / instrPerLine) }
	const metaGet, lockOp = 5, 2
	syscall := code(kernChunk) + 3 + 1
	loop := maxI(gets-6, 0)
	n := code(2*codeChunk) + 2*lockOp + syscall + 3 + 1 // begin
	n += code(codeChunk) + 3 + metaGet + 2              // account
	n += loop*(code(codeChunk)+metaGet+2) + loop/5*(2+1) + loop/9*syscall
	n += 2 * (code(codeChunk) + metaGet + 2) // teller, branch
	n += code(codeChunk) + 2                 // history
	n += code(codeChunk) + 2 + 2*syscall     // redo log
	return n + 2                             // commit
}

// NewProcess returns the op stream for the next server process.
func (o *OLTP) NewProcess() *OLTPProc {
	p := o.Process(o.spawned)
	o.spawned++
	return p
}

// Process builds the id'th server process's op stream without touching
// shared workload state: everything it reads (layout, config, hot-set
// bounds, the shared Zipf samplers) is immutable after NewOLTP.
// Construction is a pure function of id: Process(i) for i = 0..n-1 in
// any order yields exactly the processes a serial NewProcess loop would,
// so a multi-tenant run can build each tenant's processes from their
// tenant-local ids.
func (o *OLTP) Process(id int) *OLTPProc {
	p := &OLTPProc{
		o:        o,
		id:       id,
		pga:      o.Lay.PGASlice(id, o.nProcs),
		code:     newCodeWalker(o.Lay.DBCode, o.Cfg.CodeFuncs, 12, o.codeZipf),
		kern:     newCodeWalker(o.Lay.OSCode, o.Cfg.KernFuncs, 12, o.kernZipf),
		metaZipf: o.metaZipf,
		hotZipf:  o.hotZipf,
		kbssZipf: o.kbssZipf,
		lockZipf: o.lockZipf,
		histCur:  uint64(id) * (o.Lay.History.Lines() / uint64(maxI(o.nProcs, 1))),
	}
	// The PGA hot set is the first 32 KB of the process's slice.
	p.pgaHot = Region{Base: p.pga.Base, Bytes: 32 << 10}
	return p
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// OLTPProc is one dedicated server process's op stream.
type OLTPProc struct {
	o      *OLTP
	id     int
	pga    Region
	pgaHot Region

	code, kern *codeWalker
	metaZipf   *sim.Zipf
	hotZipf    *sim.Zipf
	kbssZipf   *sim.Zipf
	lockZipf   *sim.Zipf

	histCur uint64
	logCur  uint64

	queue []opWord
	head  int
	// Tx counts generated transactions.
	Tx uint64
}

// Next implements kernel.Stream.
func (p *OLTPProc) Next(r *sim.RNG) cpu.Op {
	if p.head >= len(p.queue) {
		if p.queue == nil {
			p.queue = make([]opWord, 0, p.o.maxOps)
		}
		p.queue = p.generate(r, p.queue[:0])
		p.head = 0
	}
	k, dep, n, a, d := p.queue[p.head].fields()
	p.head++
	return cpu.Op{Kind: k, Dep: dep, N: n, Addr: a, IODelay: d}
}

// generate emits one complete transaction.
func (p *OLTPProc) generate(r *sim.RNG, ops []opWord) []opWord {
	cfg := p.o.Cfg
	lay := p.o.Lay
	dbInstr := int(float64(cfg.InstrPerTx) * (1 - cfg.KernelFrac))
	kernInstr := cfg.InstrPerTx - dbInstr
	gets := cfg.BlockGets
	// Spread code between the block gets; kernel work in syscalls.
	codeChunk := dbInstr / (gets + 4)
	kernChunk := kernInstr / 6

	// metaGet emits the buffer-header lookup protecting a block access:
	// a hash-chain walk (dependent loads) and a latch acquire/release.
	metaGet := func() {
		h := lay.SGAMeta.LineAt(uint64(p.metaZipf.Next(r)) * 64)
		ops = append(ops, ld(h, false), ld(h+cache.LineBytes, true))
		// Latch acquire/release dirties the header line (pin counts,
		// LRU links) on about half the gets.
		if r.Bool(0.5) {
			ops = append(ops, st(h))
		}
		// Buffer-pool LRU/free-list latches: a handful of extremely
		// hot global lines every get has a chance of touching — the
		// classic OLTP communication hot spot.
		if r.Bool(0.6) {
			g := lay.SGAMeta.LineAt(uint64(r.Intn(8)))
			ops = append(ops, ld(g, false), st(g))
		}
	}
	// lockOp touches the lock-manager hash table.
	lockOp := func() {
		l := lay.LockTab.LineAt(uint64(p.lockZipf.Next(r)))
		ops = append(ops, ld(l, false), st(l))
	}
	// syscall emits a kernel code chunk plus shared kernel data.
	syscall := func() {
		ops = p.kern.emit(ops, r, kernChunk)
		for i := 0; i < 3; i++ {
			k := lay.KernBSS.LineAt(uint64(p.kbssZipf.Next(r)))
			ops = append(ops, ld(k, i > 0))
		}
		if r.Bool(0.4) {
			k := lay.KernBSS.LineAt(uint64(p.kbssZipf.Next(r)))
			ops = append(ops, st(k))
		}
	}
	// pgaWork touches the process's private sort/work area.
	pgaWork := func(n int) {
		for i := 0; i < n; i++ {
			ops = append(ops, ld(p.pgaHot.RandomLine(r), false))
		}
		ops = append(ops, st(p.pgaHot.RandomLine(r)))
	}

	// --- begin transaction: parse, lock, kernel entry ---
	ops = p.code.emit(ops, r, codeChunk*2)
	lockOp()
	lockOp()
	syscall()
	pgaWork(3)

	// --- account via B-tree: root -> internal -> leaf -> block ---
	ops = p.code.emit(ops, r, codeChunk)
	root := lay.BTreeI.LineAt(0)
	internal := lay.BTreeI.RandomLine(r)
	leaf := lay.BTreeL.RandomLine(r)
	ops = append(ops, ld(root, false), ld(internal, true), ld(leaf, true))
	metaGet()
	acct := lay.SGAData.RandomLine(r) // 512 MB: effectively always cold
	ops = append(ops, ld(acct, true), st(acct))

	// --- remaining block gets: hot working set + occasional cold ---
	for g := 0; g < gets-6; g++ {
		ops = p.code.emit(ops, r, codeChunk)
		metaGet()
		var b cache.Addr
		if r.Bool(cfg.HotDataFrac) {
			b = p.o.hotBlocks.LineAt(uint64(p.hotZipf.Next(r)))
		} else {
			b = lay.SGAData.RandomLine(r)
		}
		ops = append(ops, ld(b, true))
		// OLTP blocks are updated in place about half the time
		// (index maintenance, row updates, undo) — the migratory
		// sharing pattern that drives L2 forwarding on a CMP.
		if r.Bool(0.45) {
			ops = append(ops, st(b))
		}
		if g%5 == 4 {
			pgaWork(2)
		}
		if g%9 == 8 {
			syscall() // buffer reads, IPC, timer ticks
		}
	}

	// --- teller update ---
	ops = p.code.emit(ops, r, codeChunk)
	metaGet()
	t := lay.Teller.LineAt(uint64(r.Intn(cfg.Tellers)))
	ops = append(ops, ld(t, false), st(t))

	// --- branch update: the 40-row hot table every transaction hits ---
	ops = p.code.emit(ops, r, codeChunk)
	metaGet()
	b := lay.Branch.LineAt(uint64(r.Intn(cfg.Branches)))
	ops = append(ops, ld(b, false), st(b))

	// --- history insert: append-only, full-line writes ---
	ops = p.code.emit(ops, r, codeChunk)
	h := lay.History.LineAt(p.histCur)
	p.histCur++
	if cfg.UseWriteHints {
		ops = append(ops, hint(h), st(h))
	} else {
		ops = append(ops, st(h))
	}

	// --- redo log: build the record in the shared ring, commit ---
	ops = p.code.emit(ops, r, codeChunk)
	slot := (uint64(p.id) + p.logCur*uint64(p.o.nProcs)) % lay.Log.Lines()
	p.logCur++
	for i := uint64(0); i < 2; i++ {
		ops = append(ops, st(lay.Log.LineAt(slot+i)))
	}
	syscall()
	syscall() // commit path: log syscall + scheduler reentry

	// --- commit: log write I/O, transaction boundary ---
	ops = append(ops, ioWait(cfg.LogIOLatency), txMark())
	p.Tx++
	return ops
}
