package main

import (
	"fmt"
	"math"
	"time"

	"piranha/internal/core"
	"piranha/internal/sim"
	"piranha/internal/trace"
)

// traceCapacity bounds the traced run's event ring; the rigs replay the
// retained tail of the measured phase.
const traceCapacity = 1 << 17

// Trace counter names ("component.kind").
const (
	cntFetchMiss = "l1.fetch-miss"
	cntLoadMiss  = "l1.load-miss"
	cntStoreMiss = "l1.store-miss"
	cntL2Hit     = "l2.hit"
	cntL2Fwd     = "l2.fwd"
	cntL2MissLoc = "l2.miss-local"
	cntL2MissRem = "l2.miss-remote"
	cntHomeTx    = "pe.home-tx"
	cntRemoteTx  = "pe.remote-tx"
	cntHop       = "noc.hop"
	cntICS       = "noc.ics"
	cntPageHit   = "mem.page-hit"
	cntPageMiss  = "mem.page-miss"
	cntMemWrite  = "mem.write"
	cntCtxSwitch = "kernel.ctx-switch"
)

const (
	nsPerUS = 1e3
	// profileMinRun is the least host time the CPU profile samples.
	profileMinRun = 4 * time.Second
)

// runTraced makes the per-layer run: an untraced and a traced run of
// the workload (their digests must match), a CPU-profiled untraced run,
// and the layer rigs on the workload's own inputs.
func runTraced(w *workloadDef, env runEnv) (result, report, error) {
	c := newChecker(w, env.seed)
	m := map[string]float64{}
	attempted, failed := 0, 0
	fail := func(err error) {
		failed++
		c.rep.Failures = append(c.rep.Failures, err.Error())
	}
	in := &inputs{seed: env.seed, dirNodes: torusW * torusW}
	var hostUS float64
	var prof profile

	if w.exp == nil {
		attempted = 2
		s, transitions, err := c.runModel()
		if err != nil {
			fail(err)
		} else {
			hostUS = s.hostS * 1e6 / s.work
			m["mcheck.states"] = s.work
			m["mcheck.transitions"] = float64(transitions)
			m["mcheck.ns_per_transition"] = s.hostS * 1e9 / float64(max(transitions, 1))
			m["mcheck.depth"] = float64(c.depth)
		}
		prof, err = profileRuns(env.out, func() error {
			_, _, err := c.runModel()
			return err
		})
		if err != nil {
			fail(err)
		}
		// mcheck-4n has no memory stream; the rigs time the layers on
		// oltp-p8's inputs for the same seed.
		ow, _ := lookupWorkload("oltp-p8")
		in.exp, in.dirNodes = ow.exp(env.seed), mcheckNodes
	} else {
		e := w.exp(env.seed)
		in.exp = e
		attempted = 3
		sA, _, errA := c.runSim(e)
		if errA != nil {
			fail(errA)
		}
		et := e
		tr := trace.New(traceCapacity)
		et.Trace = tr
		sB, resB, errB := c.runSim(et)
		if errB != nil {
			fail(fmt.Errorf("traced run: %w", errB))
		}
		c.rep.TracedDigest, _ = digest(resB)
		if errA == nil && errB == nil {
			hostUS = sA.hostS * 1e6 / sA.work
			m["trace.overhead_frac"] = sB.hostS/sA.hostS - 1
			simMetrics(m, resB, tr)
			in.fromTrace(tr)
		}
		var err error
		prof, err = profileRuns(env.out, func() error {
			_, _, err := c.runSim(e)
			return err
		})
		if err != nil {
			fail(err)
		}
	}

	r := rigResult{}
	procOps, opsPerTx, err := genOps(in.exp, env.seed, r)
	if err != nil {
		return result{}, report{}, err
	}
	in.procOps = procOps
	if len(in.misses) == 0 {
		in.deriveEvents()
	}
	if err := runRigs(in, r); err != nil {
		fail(fmt.Errorf("rig: %w", err))
	}
	for k, v := range r {
		if k != "sim.events_per_tx" {
			m[k] = v
		}
	}
	if w.exp != nil {
		r["workload.ops_per_tx"] = opsPerTx
		r["run.tx"] = float64(in.exp.WarmTx + in.exp.MeasureTx)
		attribute(m, r, hostUS)
	}
	c.rep.Attribution = attributionRows(m, prof, hostUS)
	for pkg, share := range prof.shares {
		m["prof."+pkg+"_share"] = share
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, pm := range perLayer {
		v := m[pm.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[pm.name] = metric{v, pm.unit}
	}
	c.rep.Samples = 1
	return res, c.rep, nil
}

// fromTrace takes the rigs' replay streams from the traced run.
func (in *inputs) fromTrace(tr *trace.Tracer) {
	for _, ev := range tr.Events(nil) {
		switch ev.Kind {
		case trace.KMissFetch, trace.KMissLoad, trace.KMissStore:
			in.misses = append(in.misses, ev)
		case trace.KL2MissRemote:
			in.remote = append(in.remote, ev)
		case trace.KPageHit, trace.KPageMiss:
			in.memEv = append(in.memEv, ev)
		}
	}
	if len(in.memEv) == 0 {
		in.memEv = in.misses
	}
	cs := tr.Counts()
	if l2 := cs.Value(cntL2Hit) + cs.Value(cntL2Fwd) + cs.Value(cntL2MissLoc) + cs.Value(cntL2MissRem); l2 > 0 {
		in.icsPerL2 = float64(cs.Value(cntICS)) / float64(l2)
	}
}

// simMetrics fills the simulated per-transaction counts from the traced
// run's Result and tracer counts (which cover the measured phase).
func simMetrics(m map[string]float64, res core.Result, tr *trace.Tracer) {
	tx := float64(res.Tx)
	cs := tr.Counts()
	per := func(names ...string) float64 {
		var n uint64
		for _, name := range names {
			n += cs.Value(name)
		}
		return float64(n) / tx
	}
	m["cpu.instr_per_tx"] = float64(res.Instructions) / tx
	m["cpu.busy_frac"], m["cpu.l2hit_stall_frac"], m["cpu.l2miss_stall_frac"], _ = res.Agg.Normalized(res.Agg.Total())
	var refs uint64
	for _, n := range res.Svc {
		refs += n
	}
	m["l1.refs_per_tx"] = float64(refs) / tx
	m["l1.miss_per_tx"] = per(cntFetchMiss, cntLoadMiss, cntStoreMiss)
	m["ics.xfers_per_tx"] = per(cntICS)
	m["l2.hit_per_tx"] = per(cntL2Hit)
	m["l2.fwd_per_tx"] = per(cntL2Fwd)
	m["l2.miss_local_per_tx"] = per(cntL2MissLoc)
	m["l2.miss_remote_per_tx"] = per(cntL2MissRem)
	if all := per(cntL2Hit, cntL2Fwd, cntL2MissLoc, cntL2MissRem); all > 0 {
		m["l2.fwd_frac"] = per(cntL2Fwd) / all
	}
	m["mem.reads_per_tx"] = per(cntPageHit, cntPageMiss)
	m["mem.writes_per_tx"] = per(cntMemWrite)
	m["mem.page_hit_rate"] = res.PageHitRate
	m["pe.home_tx_per_tx"] = per(cntHomeTx)
	m["pe.remote_tx_per_tx"] = per(cntRemoteTx)
	m["noc.hops_per_tx"] = per(cntHop)
	m["kernel.ctx_switch_per_tx"] = per(cntCtxSwitch)
	if res.Elapsed > 0 && res.CPUs > 0 {
		m["kernel.idle_frac"] = float64(res.Idle) / (float64(res.Elapsed) * float64(res.CPUs))
	}
	m["trace.events_per_tx"] = float64(tr.Total()) / tx
	if a := res.Admission; a != nil {
		if res.Elapsed > 0 {
			m["adm.mean_depth"] = float64(a.DepthIntegral) / float64(res.Elapsed)
		}
		m["adm.max_depth"] = float64(a.MaxDepth)
		if a.Arrivals > 0 {
			m["adm.shed_frac"] = float64(a.Shed) / float64(a.Arrivals)
			m["adm.retried_per_arrival"] = float64(a.Retried) / float64(a.Arrivals)
		}
	}
	if res.Lat != nil {
		m["lat.p50_us"] = float64(res.Lat.Quantile(0.50)) / float64(sim.Microsecond)
		m["lat.p99_us"] = float64(res.Lat.Quantile(0.99)) / float64(sim.Microsecond)
	}
	if res.SLO != nil {
		m["slo.violation_rate"] = res.SLO.ViolationRate()
	}
	if f := res.Faults; f != nil {
		m["fault.injected"] = float64(f.Injected)
		m["fault.retransmits"] = float64(f.Retransmits)
		m["fault.msgs_lost"] = float64(f.MessagesLost)
		m["fault.recovered"] = float64(f.Recovered)
	}
	if rec := res.Recovery; rec != nil && len(rec.Events) > 0 {
		ev := rec.Events[0]
		m["recovery.mttr_us"] = float64(ev.MTTR()) / float64(sim.Microsecond)
		m["recovery.homes_adopted"] = float64(ev.HomesAdopted)
		m["recovery.migrated"] = float64(ev.Migrated)
	}
}

// layerCalls pairs each attributed layer with its calls per simulated
// transaction and self ns per call.
func layerCalls(m map[string]float64, r rigResult) map[string][2]float64 {
	pos := func(v float64) float64 { return math.Max(v, 0) }
	remote := m["l2.miss_remote_per_tx"]
	hopsPerRemote := 0.0
	if remote > 0 {
		hopsPerRemote = m["noc.hops_per_tx"] / remote
	}
	out := map[string][2]float64{
		"workload":  {r["workload.ops_per_tx"], m["workload.next_ns"]},
		"sim":       {r["sim.events_per_tx"], m["sim.event_ns"]},
		"cpu":       {r["workload.ops_per_tx"], m["cpu.exec_ns"]},
		"l1":        {m["l1.refs_per_tx"], m["l1.probe_ns"]},
		"ics":       {m["ics.xfers_per_tx"], m["ics.transfer_ns"]},
		"l2":        {m["l1.miss_per_tx"], pos(m["l2.self_ns"])},
		"memctl":    {m["mem.reads_per_tx"], m["mem.read_ns"]},
		"pe":        {remote, pos(m["pe.fetch_ns"] - hopsPerRemote*m["noc.send_ns"])},
		"directory": {m["pe.home_tx_per_tx"], m["directory.codec_ns"]},
		"noc":       {m["noc.hops_per_tx"], m["noc.send_ns"]},
		"kernel":    {r["sim.events_per_tx"], pos(m["kernel.dispatch_ns"] - m["sim.event_ns"])},
	}
	if m["fault.injected"] > 0 {
		out["link"] = [2]float64{m["noc.hops_per_tx"], m["link.transmit_ns"]}
	}
	if m["lat.p50_us"] > 0 {
		// Open-loop runs with intervals: one series sample per reference,
		// one latency and one SLO observation per transaction.
		out["stats"] = [2]float64{1, m["l1.refs_per_tx"]*m["stats.series_ns"] + m["stats.quantile_ns"] + m["stats.slo_ns"]}
	}
	if m["recovery.migrated"] > 0 {
		out["fault"] = [2]float64{1 / r["run.tx"], m["pe.failnode_ms"] * 1e6}
	}
	return out
}

// attribute sets attr.<layer>_us_per_tx (self ns per call x calls per
// transaction) and attr.sum_frac, the share of host_us_per_sim_tx the
// rigs explain.
func attribute(m map[string]float64, r rigResult, hostUS float64) {
	sum := 0.0
	for layer, cv := range layerCalls(m, r) {
		us := cv[0] * cv[1] / nsPerUS
		m["attr."+layer+"_us_per_tx"] = us
		sum += us
	}
	if hostUS > 0 {
		m["attr.sum_frac"] = sum / hostUS
	}
}

// attributionRows lines up the rig attribution with the CPU profile.
func attributionRows(m map[string]float64, prof profile, hostUS float64) []attrRow {
	var rows []attrRow
	for _, layer := range attrLayers {
		row := attrRow{Layer: layer, USPerTx: m["attr."+layer+"_us_per_tx"], ProfShare: prof.shares[layer]}
		if layer == "l2" {
			// The L2's tag arrays and line tables live in cache and linemap.
			row.ProfShare += prof.shares["cache"] + prof.shares["linemap"]
		}
		if hostUS > 0 {
			row.ShareOfRun = row.USPerTx / hostUS
		}
		rows = append(rows, row)
	}
	return rows
}
