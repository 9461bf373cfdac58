package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"piranha"
	"piranha/internal/cache"
	"piranha/internal/core"
	"piranha/internal/cpu"
	"piranha/internal/directory"
	"piranha/internal/ics"
	"piranha/internal/kernel"
	"piranha/internal/l1"
	"piranha/internal/l2"
	"piranha/internal/link"
	"piranha/internal/memctl"
	"piranha/internal/noc"
	"piranha/internal/pe"
	"piranha/internal/sim"
	"piranha/internal/stats"
	"piranha/internal/trace"
	"piranha/internal/workload"
)

// The rigs time each layer's public functions on one workload's inputs:
// its op streams, generated from the benchmark seed, and the event
// streams its traced run recorded. Each rig reports self ns per call,
// the median over rigReps repetitions.

const (
	rigReps     = 5
	rigProcs    = 16     // server processes whose streams feed the rigs
	rigOpsPerPr = 20_000 // ops generated per process
	torusW      = 8      // the 8x8 torus of the pe/noc rigs
)

// inputs is what the rigs replay.
type inputs struct {
	exp  core.Experiment
	seed uint64
	// procOps holds each sampled process's op stream.
	procOps [][]cpu.Op
	// misses are L1-miss spans (fetch, load, store), remote the L2
	// remote-miss spans, memEv the memory-controller reads, in recording
	// order. Without a traced run they are derived from procOps.
	misses, remote, memEv []trace.Event
	// icsPerL2 is the traced ICS transfers per L2 access.
	icsPerL2 float64
	// dirNodes is the system size the directory codec rig encodes for.
	dirNodes int
}

// rigResult holds the rig timings, keyed by metric name.
type rigResult map[string]float64

// nsPerOp returns the median over reps of host ns per op of fn, which
// performs and returns some number of ops.
func nsPerOp(reps int, fn func() int) float64 {
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		n := fn()
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/float64(max(n, 1)))
	}
	return median(ts)
}

// bytesPerOp returns host bytes allocated per op of one call of fn.
func bytesPerOp(fn func() int) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(max(n, 1))
}

// sampleStreams builds the experiment's server processes and picks
// rigProcs of them spread across the tenants, each with the RNG a run
// would seed it with.
func sampleStreams(e core.Experiment, seed uint64) ([]kernel.Stream, []*sim.RNG, error) {
	sys, err := core.NewSystemErr(e.Sys)
	if err != nil {
		return nil, nil, err
	}
	all := buildStreams(e, sys.TotalCPUs())
	rng := sim.NewRNG(seed)
	seeds := make([]uint64, len(all))
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	n := min(rigProcs, len(all))
	streams := make([]kernel.Stream, n)
	rngs := make([]*sim.RNG, n)
	for i := 0; i < n; i++ {
		j := i * len(all) / n
		streams[i], rngs[i] = all[j], sim.NewRNG(seeds[j])
	}
	return streams, rngs, nil
}

// genOps times op generation (workload.next_ns, next_bytes) and returns
// the generated streams and ops per transaction.
func genOps(e core.Experiment, seed uint64, r rigResult) ([][]cpu.Op, float64, error) {
	var procOps [][]cpu.Op
	gen := func() int {
		streams, rngs, err := sampleStreams(e, seed)
		if err != nil {
			panic(err) // sampleStreams already succeeded once below
		}
		procOps = make([][]cpu.Op, len(streams))
		for i := range procOps {
			procOps[i] = make([]cpu.Op, rigOpsPerPr)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i, s := range streams {
			ops, rng := procOps[i], rngs[i]
			for k := range ops {
				ops[k] = s.Next(rng)
			}
		}
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		n := len(streams) * rigOpsPerPr
		r["workload.next_bytes"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
		return int(dt.Nanoseconds())
	}
	if _, _, err := sampleStreams(e, seed); err != nil {
		return nil, 0, err
	}
	ts := make([]float64, 0, 3)
	for i := 0; i < 3; i++ {
		ts = append(ts, float64(gen())/float64(rigProcs*rigOpsPerPr))
	}
	r["workload.next_ns"] = median(ts)
	ops, marks := 0, 0
	for _, p := range procOps {
		for _, op := range p {
			ops++
			if op.Kind == cpu.KTxMark {
				marks++
			}
		}
	}
	return procOps, float64(ops) / float64(max(marks, 1)), nil
}

// memRefs returns the memory references of the op streams, interleaved
// round-robin across processes.
func (in *inputs) memRefs() []cpu.Op {
	var refs []cpu.Op
	for k := 0; k < rigOpsPerPr; k++ {
		for _, p := range in.procOps {
			if k < len(p) {
				switch p[k].Kind {
				case cpu.KIFetch, cpu.KLoad, cpu.KStore, cpu.KStoreHint:
					refs = append(refs, p[k])
				}
			}
		}
	}
	return refs
}

// deriveEvents fills the event streams from the op streams when the
// workload has no traced simulation (mcheck-4n): every reference is
// treated as an L1 miss from a CPU chosen round-robin.
func (in *inputs) deriveEvents() {
	for i, op := range in.memRefs() {
		k := trace.KMissLoad
		switch op.Kind {
		case cpu.KIFetch:
			k = trace.KMissFetch
		case cpu.KStore, cpu.KStoreHint:
			k = trace.KMissStore
		}
		ev := trace.Event{Addr: uint64(op.Addr), Unit: int16(2 * (i % 8)), Node: uint8(i % 64), Comp: trace.L1, Kind: k}
		if k == trace.KMissFetch {
			ev.Unit++
		}
		in.misses = append(in.misses, ev)
	}
	in.memEv = in.misses
}

// zeroMem is a memory system that serves every reference in zero time
// from the L1, isolating the core's own cost.
type zeroMem struct{}

func (zeroMem) Access(now sim.Time, _ int, _ cpu.AccessKind, _ cache.Addr) (sim.Time, l2.Svc) {
	return now, l2.SvcL1
}

// replay is a kernel.Stream that cycles through a recorded op stream.
type replay struct {
	ops   []cpu.Op
	i     int
	calls *int
}

func (p *replay) Next(*sim.RNG) cpu.Op {
	op := p.ops[p.i%len(p.ops)]
	p.i++
	*p.calls++
	return op
}

// runRigs times every layer rig on the inputs.
func runRigs(in *inputs, r rigResult) error {
	cfg := in.exp.Sys.Chip
	clock := cfg.Core.Clock
	refs := in.memRefs()

	// sim: an event at the workload's heap depth, and a TSRF-style pool.
	depth, evPerTx, err := replicaEvents(in)
	if err != nil {
		return err
	}
	r["sim.events_per_tx"] = evPerTx
	r["sim.event_ns"] = nsPerOp(rigReps, func() int {
		eng := sim.NewEngine()
		noop := func() {}
		for i := 0; i < depth; i++ {
			eng.Schedule(sim.Time(1+i*7919%1000)*sim.Nanosecond, noop)
		}
		const n = 200_000
		for i := 0; i < n; i++ {
			eng.Schedule(eng.Now()+sim.Time(1+i*7919%1000)*sim.Nanosecond, noop)
			eng.Step()
		}
		return n
	})
	pool := func() int {
		p := sim.NewPool("tsrf", 16)
		const n = 100_000
		now := sim.Time(0)
		for i := 0; i < n; i++ {
			now += 10 * sim.Nanosecond
			start, release := p.Reserve(now)
			release(start + 100*sim.Nanosecond)
		}
		return n
	}
	r["sim.pool_reserve_ns"] = nsPerOp(rigReps, pool)
	r["sim.pool_reserve_bytes"] = bytesPerOp(pool)

	// workload: arrival generation on serve-chaos's stream.
	r["workload.arrival_ns"] = nsPerOp(rigReps, func() int {
		g := workload.NewArrivalGen(serveChaosArrivals(), sim.NewRNG(in.seed).Split(0x41525256))
		const n = 200_000
		for i := 0; i < n; i++ {
			g.Next()
		}
		return n
	})

	// cpu: Exec of every op on a zero-latency memory.
	r["cpu.exec_ns"] = nsPerOp(rigReps, func() int {
		c := cpu.New(0, cfg.Core, zeroMem{})
		now, n := sim.Time(0), 0
		for _, p := range in.procOps {
			for _, op := range p {
				now = c.Exec(now, op)
				n++
			}
		}
		return n
	})

	// l1: Probe on the reference stream after one warming pass.
	d := l1.New(l1.Data, 0, 0, cfg.L1)
	ic := l1.New(l1.Instruction, 0, 1, cfg.L1)
	pick := func(op cpu.Op) *l1.Cache {
		if op.Kind == cpu.KIFetch {
			return ic
		}
		return d
	}
	for _, op := range refs {
		if st, _ := pick(op).Probe(op.Addr); !st.Valid() {
			pick(op).Fill(op.Addr.Line(), cache.Exclusive)
		}
	}
	r["l1.probe_ns"] = nsPerOp(rigReps, func() int {
		for _, op := range refs {
			pick(op).Probe(op.Addr)
		}
		return len(refs)
	})

	// ics: transfers alternating request and data sizes and lanes.
	r["ics.transfer_ns"] = nsPerOp(rigReps, func() int {
		sw := ics.New(ics.DefaultConfig(clock))
		const n = 200_000
		now := sim.Time(0)
		for i := 0; i < n; i++ {
			now += 2 * sim.Nanosecond
			size := 8
			if i&1 == 1 {
				size = cache.LineBytes
			}
			sw.Transfer(now, ics.Lane(i&1), size, i&2 == 0)
		}
		return n
	})

	// memctl: reads on the traced memory stream.
	r["mem.read_ns"] = nsPerOp(rigReps, func() int {
		mc := memctl.New(cfg.Mem)
		now := sim.Time(0)
		for _, ev := range in.memEv {
			now += 30 * sim.Nanosecond
			mc.Read(now, cache.Addr(ev.Addr))
		}
		return len(in.memEv)
	})

	if err := l2Rig(in, r); err != nil {
		return err
	}
	if err := peRig(in, r); err != nil {
		return err
	}
	kernelRig(in, r)
	statsRig(in, r)
	return nil
}

// replicaEvents builds the workload's machine from the public
// constructors, runs a closed loop of its processes through the kernel,
// and returns the mean pending-event depth and engine events per
// transaction. serve-chaos is replayed closed-loop (its arrival chain
// is internal to core.Run), which approximates its event rate.
func replicaEvents(in *inputs) (depth int, perTx float64, err error) {
	sys, err := core.NewSystemErr(in.exp.Sys)
	if err != nil {
		return 0, 0, err
	}
	ncpu := sys.TotalCPUs()
	streams := buildStreams(in.exp, ncpu)
	rng := sim.NewRNG(in.seed)
	for i, s := range streams {
		sys.Kern.Spawn(i*ncpu/len(streams), s, rng.Uint64())
	}
	target := min(in.exp.WarmTx+in.exp.MeasureTx, 400)
	sys.Kern.RunTx(target / 2)
	e0, tx0 := sys.Engine.Executed(), sys.Kern.Tx
	var pend []float64
	for step := uint64(1); step <= 4; step++ {
		sys.Kern.RunTx(target/2 + step*target/8)
		pend = append(pend, float64(sys.Engine.Pending()))
	}
	return int(median(pend)), float64(sys.Engine.Executed()-e0) / float64(max(sys.Kern.Tx-tx0, 1)), nil
}

// l2Rig replays the traced L1-miss stream into L2.Access on a fresh chip
// of the workload's configuration.
func l2Rig(in *inputs, r rigResult) error {
	cfg := in.exp.Sys.Chip
	var chip *core.Chip
	accesses := 0
	perEvent := median(repeat(rigReps, func() float64 {
		chip = core.NewChip(cfg, l2.LocalOnly{})
		accesses = 0
		t0 := time.Now()
		now := sim.Time(0)
		for _, ev := range in.misses {
			now += 20 * sim.Nanosecond
			c := (int(ev.Unit) / 2) % cfg.CPUs
			a := cache.Addr(ev.Addr)
			req, kind := chip.DL1[c], l2.Read
			if ev.Kind == trace.KMissFetch {
				req = chip.IL1[c]
			}
			st, _ := req.Probe(a)
			if ev.Kind == trace.KMissStore {
				if st.CanWrite() {
					continue
				}
				kind = l2.ReadEx
				if st == cache.Shared {
					kind = l2.Upgrade
				}
			} else if st.Valid() {
				continue
			}
			chip.L2.Access(now, req, kind, a)
			accesses++
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(max(len(in.misses), 1))
	}))
	if accesses == 0 {
		return fmt.Errorf("l2 rig: the miss stream made no L2 accesses")
	}
	// The loop probes the L1 once per event; take that out to leave the
	// inclusive L2.Access cost.
	perAccess := (perEvent*float64(len(in.misses)) - float64(len(in.misses))*r["l1.probe_ns"]) / float64(accesses)
	r["l2.access_ns"] = perAccess
	reads, writes, _, _ := chip.MemStats()
	memPer := float64(reads+writes) / float64(accesses)
	r["l2.self_ns"] = perAccess - memPer*r["mem.read_ns"] - in.icsPerL2*r["ics.transfer_ns"]

	lines := make([]cache.LineAddr, len(in.misses))
	for i, ev := range in.misses {
		lines[i] = cache.Addr(ev.Addr).Line()
	}
	r["l2.lookup_ns"] = nsPerOp(rigReps, func() int {
		for _, l := range lines {
			chip.L2.HasLine(l)
		}
		return len(lines)
	})
	var checkErr error
	r["l2.check_ms"] = nsPerOp(rigReps, func() int {
		checkErr = chip.L2.CheckInvariants()
		return 1
	}) / 1e6
	if checkErr != nil {
		return fmt.Errorf("l2 rig: %w", checkErr)
	}
	return nil
}

// fetchStream is the remote-miss stream as (requesting node, line); a
// workload without remote misses uses its L1-miss stream spread over
// the nodes.
func (in *inputs) fetchStream(nodes int) (from []pe.NodeID, lines []cache.LineAddr) {
	src := in.remote
	if len(src) == 0 {
		src = in.misses
	}
	for i, ev := range src {
		n := int(ev.Node)
		if len(in.remote) == 0 {
			n = i
		}
		from = append(from, pe.NodeID(n%nodes))
		lines = append(lines, cache.Addr(ev.Addr).Line())
	}
	return from, lines
}

// peRig times the protocol engines, directory codec, network adapter,
// router model and link layer on a 64-node torus, and a fail-stop.
func peRig(in *inputs, r rigResult) error {
	const nodes = torusW * torusW
	topo := noc.Torus{W: torusW, H: torusW}
	var calErr error
	r["noc.calibrate_ms"] = nsPerOp(3, func() int {
		_, calErr = pe.NewTopologyNetwork(topo, sim.MHz(500), 1)
		return 1
	}) / 1e6
	if calErr != nil {
		return calErr
	}
	from, lines := in.fetchStream(nodes)
	if len(lines) == 0 {
		return fmt.Errorf("pe rig: empty fetch stream")
	}
	var sys *core.System
	var err error
	r["pe.fetch_ns"] = median(repeat(3, func() float64 {
		s, e := core.NewSystemErr(piranha.ScaleOut(nodes, 1))
		if e != nil {
			err = e
			return 0
		}
		sys = s
		protos := make([]*pe.NodeProto, nodes)
		for i := range protos {
			protos[i] = s.Fabric.Proto(pe.NodeID(i))
		}
		t0 := time.Now()
		now := sim.Time(0)
		for i, l := range lines {
			now += 50 * sim.Nanosecond
			protos[from[i]].Fetch(now, l2.Read, l)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(lines))
	}))
	if err != nil {
		return err
	}
	tn, err := pe.NewTopologyNetwork(topo, sim.MHz(500), 1)
	if err != nil {
		return err
	}
	r["noc.send_ns"] = nsPerOp(rigReps, func() int {
		now := sim.Time(0)
		for i, l := range lines {
			now += 10 * sim.Nanosecond
			size := pe.ShortPacket
			if i&1 == 1 {
				size = pe.LongPacket
			}
			tn.Send(now, from[i], sys.Fabric.HomeOf(l), size, i&1)
		}
		return len(lines)
	})
	hb, err := noc.NewHopBench(noc.DefaultConfig(), topo, in.seed, 64)
	if err != nil {
		return err
	}
	round := func() int {
		n, err := hb.Round(1 << 20)
		if err != nil {
			panic(fmt.Sprintf("noc hop bench: %v", err)) // a router-model bug, not an input
		}
		return n
	}
	for i := 0; i < 64; i++ {
		round()
	}
	r["noc.packet_ns"] = nsPerOp(rigReps, func() int {
		n := 0
		for i := 0; i < 32; i++ {
			n += round()
		}
		return n
	})
	r["link.transmit_ns"] = nsPerOp(rigReps, func() int {
		ch := link.NewChannel(serveChaosPlan().LinkBER, in.seed)
		frame := make([]byte, pe.LongPacket)
		const n = 20_000
		for i := 0; i < n; i++ {
			size := pe.ShortPacket
			if i&1 == 1 {
				size = pe.LongPacket
			}
			frame[0] = byte(i)
			if _, err := ch.Transmit(frame[:size], 16); err != nil {
				panic(fmt.Sprintf("link: %v", err)) // 16 retries at this BER cannot all fail
			}
		}
		return n
	})

	f := pe.NewFabric(pe.DefaultConfig(nodes), pe.NewFlatNetworkN(25*sim.Nanosecond, nodes))
	seeded := f.SeedDirectory(4096)
	r["pe.dirdispatch_ns"] = nsPerOp(rigReps, func() int {
		return f.DirectoryDispatch(seeded)
	})

	dcfg := directory.Config{Nodes: in.dirNodes}
	entries := make([]directory.Entry, 0, len(lines))
	for i, l := range lines {
		e := directory.AddSharer(dcfg, directory.Clear(), directory.NodeID(int(from[i])%dcfg.Nodes))
		switch i % 4 {
		case 1:
			e = directory.AddSharer(dcfg, e, directory.NodeID(int(l)%dcfg.Nodes))
		case 2:
			e = directory.SetExclusive(e, directory.NodeID(int(l)%dcfg.Nodes))
		}
		entries = append(entries, e)
	}
	var codecErr error
	r["directory.codec_ns"] = nsPerOp(rigReps, func() int {
		for _, e := range entries {
			bits, err := directory.Encode(dcfg, e)
			if err != nil {
				codecErr = err
			}
			directory.Decode(dcfg, bits)
		}
		return len(entries)
	})
	if codecErr != nil {
		return fmt.Errorf("directory rig: %w", codecErr)
	}

	// Fail-stop on the workload's own fabric (the 2xP4 serve-chaos
	// machine for single-chip workloads) after replaying the stream.
	failSys := in.exp.Sys
	if failSys.Chips < 2 {
		failSys = piranha.MultiChip(2, 4)
	}
	var failErr error
	r["pe.failnode_ms"] = median(repeat(3, func() float64 {
		s, err := core.NewSystemErr(failSys)
		if err != nil {
			failErr = err
			return 0
		}
		n := len(s.Chips)
		now := sim.Time(0)
		for i, l := range lines[:min(len(lines), 20_000)] {
			now += 50 * sim.Nanosecond
			s.Fabric.Proto(pe.NodeID(int(from[i])%n)).Fetch(now, l2.Read, l)
		}
		t0 := time.Now()
		s.Fabric.FailNode(now, 1)
		return float64(time.Since(t0).Nanoseconds()) / 1e6
	}))
	return failErr
}

// kernelRig times dispatch: the sampled processes replay their recorded
// streams on zero-latency cores. The op execution (cpu.exec_ns per op)
// is taken out, leaving host ns per dispatch event.
func kernelRig(in *inputs, r rigResult) {
	ncpu := max(1, min(in.exp.Sys.Chip.CPUs*max(in.exp.Sys.Chips, 1), 8))
	r["kernel.dispatch_ns"] = median(repeat(rigReps, func() float64 {
		eng := sim.NewEngine()
		cores := make([]*cpu.Core, ncpu)
		for i := range cores {
			cores[i] = cpu.New(i, in.exp.Sys.Chip.Core, zeroMem{})
		}
		k := kernel.New(eng, cores, kernel.DefaultConfig())
		calls := 0
		for i, ops := range in.procOps {
			k.Spawn(i%ncpu, &replay{ops: ops, calls: &calls}, uint64(i))
		}
		t0 := time.Now()
		k.RunTx(200)
		dt := float64(time.Since(t0).Nanoseconds())
		return (dt - float64(calls)*r["cpu.exec_ns"]) / float64(max(eng.Executed(), 1))
	}))
}

// statsRig times the latency sketch, the SLO accountant and the
// interval series on the traced L1-miss spans.
func statsRig(in *inputs, r rigResult) {
	lat := make([]int64, len(in.misses))
	at := make([]sim.Time, len(in.misses))
	for i, ev := range in.misses {
		lat[i] = int64(ev.End - ev.Start)
		at[i] = ev.Start
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	r["stats.quantile_ns"] = nsPerOp(rigReps, func() int {
		q := stats.NewQuantile("lat")
		for _, v := range lat {
			q.Observe(v)
		}
		return len(lat)
	})
	r["stats.slo_ns"] = nsPerOp(rigReps, func() int {
		s := stats.NewSLO(serveSLO, 50*sim.Microsecond, 0.1)
		for i, v := range lat {
			s.Observe(at[i], sim.Time(v))
		}
		return len(lat)
	})
	r["stats.series_ns"] = nsPerOp(rigReps, func() int {
		s := stats.NewSeries(50 * sim.Microsecond)
		for i, t := range at {
			s.AddAccess(t, i&1 == 0)
		}
		return len(at)
	})
}

func repeat(n int, fn func() float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = fn()
	}
	return out
}
