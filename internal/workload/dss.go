package workload

import (
	"piranha/internal/cpu"
	"piranha/internal/sim"
)

// DSSConfig parameterizes the TPC-D Query-6-style scan (§3.1: an
// in-memory 500 MB database, the query parallelized into 4 server
// processes per CPU, each scanning its partition of the largest table to
// compute an aggregate).
type DSSConfig struct {
	// InstrPerLine is the filter/aggregate work per 64-byte table line
	// (several ~100-byte rows per pair of lines; DSS is tight loops
	// with good spatial locality, so most time is compute).
	InstrPerLine int
	// LinesPerChunk is the scan granularity between bookkeeping work.
	LinesPerChunk int
	// ChunksPerTx defines the throughput marker granularity.
	ChunksPerTx int
	// ProcsPerCPU is the parallel-query slave count per CPU.
	ProcsPerCPU int
	// LoopLines is the scan loop's code footprint in lines (tiny).
	LoopLines int
}

// DefaultDSS returns the calibrated Query-6 configuration.
func DefaultDSS() DSSConfig {
	return DSSConfig{
		InstrPerLine:  600,
		LinesPerChunk: 24,
		ChunksPerTx:   4,
		ProcsPerCPU:   4,
		LoopLines:     24,
	}
}

// WebLike returns a search-engine-style configuration (paper §6: "some
// web server applications, such as the AltaVista search engine, exhibit
// behavior similar to decision support (DSS) workloads"): index-scan
// loops with high thread counts per CPU to cover network latency, a
// slightly larger inner loop, and less work per scanned line (more
// memory-bound than Q6's aggregate).
func WebLike() DSSConfig {
	c := DefaultDSS()
	c.ProcsPerCPU = 8
	c.InstrPerLine = 400
	c.LoopLines = 48
	return c
}

// DSS builds scan streams over a shared layout.
type DSS struct {
	Cfg     DSSConfig
	Lay     Layout
	nProcs  int
	spawned int
}

// NewDSS prepares the parallel query for nProcs slaves.
func NewDSS(cfg DSSConfig, lay Layout, nProcs int) *DSS {
	return &DSS{Cfg: cfg, Lay: lay, nProcs: nProcs}
}

// NewProcess returns the next slave's stream, scanning its partition.
func (d *DSS) NewProcess() *DSSProc {
	p := d.Process(d.spawned)
	d.spawned++
	return p
}

// Process builds the id'th slave's stream without touching shared state;
// like OLTP.Process it is a pure function of id, safe to call
// concurrently for distinct ids.
func (d *DSS) Process(id int) *DSSProc {
	part := d.Lay.Scan.Lines() / uint64(maxI(d.nProcs, 1))
	return &DSSProc{
		d:     d,
		id:    id,
		start: uint64(id) * part,
		end:   uint64(id)*part + part,
		pos:   uint64(id) * part,
	}
}

// DSSProc is one parallel-query slave.
type DSSProc struct {
	d          *DSS
	id         int
	start, end uint64
	pos        uint64
	loopPos    int
	queue      []opWord
	head       int
}

// Next implements kernel.Stream.
func (p *DSSProc) Next(r *sim.RNG) cpu.Op {
	if p.head >= len(p.queue) {
		if p.queue == nil {
			p.queue = make([]opWord, 0, p.d.Cfg.opsPerTx())
		}
		p.queue = p.generate(r, p.queue[:0])
		p.head = 0
	}
	k, dep, n, a, d := p.queue[p.head].fields()
	p.head++
	return cpu.Op{Kind: k, Dep: dep, N: n, Addr: a, IODelay: d}
}

// opsPerTx is the op count of one chunk group: an instruction fetch, a
// load and a compute run per line, a bookkeeping run per chunk, and the
// throughput marker.
func (c DSSConfig) opsPerTx() int { return c.ChunksPerTx*(3*c.LinesPerChunk+1) + 1 }

// generate emits one chunk group ending in a throughput marker.
func (p *DSSProc) generate(r *sim.RNG, ops []opWord) []opWord {
	cfg := p.d.Cfg
	lay := p.d.Lay
	loop := Region{Base: lay.DBCode.Base, Bytes: uint64(cfg.LoopLines) * 64}
	for c := 0; c < cfg.ChunksPerTx; c++ {
		for i := 0; i < cfg.LinesPerChunk; i++ {
			if p.pos >= p.end {
				p.pos = p.start // rescan (steady-state measurement)
			}
			// The scan loop's instruction fetches cycle a tiny footprint.
			ops = append(ops,
				ifetch(loop.LineAt(uint64(p.loopPos))),
				// Independent streaming load: the OOO core overlaps
				// these; Piranha's in-order core blocks per miss.
				ld(lay.Scan.LineAt(p.pos), false),
				compute(int32(cfg.InstrPerLine)),
			)
			p.loopPos = (p.loopPos + 1) % cfg.LoopLines
			p.pos++
		}
		// Chunk bookkeeping: aggregate spill to the private area.
		ops = append(ops, compute(200))
	}
	ops = append(ops, txMark())
	return ops
}
