// Command piranha runs simulated machine configurations against
// workloads and prints the paper's metrics: time per transaction, the
// execution-time breakdown, the L1-miss breakdown, and memory statistics.
//
// Usage:
//
//	piranha -config p8 -workload oltp -chips 1 -warm 100 -tx 200
//	piranha -config p1,p8,ooo -workload oltp,dss   # a sweep: every
//	                                               # config x workload pair,
//	                                               # run in parallel
//
// Configurations: p1, p2, p4, p8 (Piranha prototype with N cores), ino,
// ooo (next-generation 1 GHz processor), p8f (full-custom Piranha), pess
// (pessimistic ASIC parameters), and the glueless scale-out machines
// scale8/scale32/scale64/scale256/scale1024 (single-core chips on a 2-D
// torus; -chips must be left alone or match). Workloads: oltp, dss,
// tpcc, web.
//
// -load-sweep, -faults and -scaling-sweep each set one axis of a
// campaign (piranha.RunCampaign), run per config x workload pair and
// printed as one table:
//
//   - -load-sweep offers open-loop load at multiples of the machine's
//     calibrated closed-loop capacity ('default' = 0.3 through 1.2, the
//     hockey stick) and marks the first saturated point;
//   - -faults takes a base fault plan ("default" or
//     "ber=1e-5,loss=1e-4,memflip=1e-4,stall=1e-6,mirror", plus
//     fail-stop deaths as "failstop=1@10us" with optional "detect=" and
//     "redispatch=" tunables) and -fault-grid the rate multipliers it
//     runs at;
//   - -scaling-sweep scales the -config chip out to each node count on
//     the glueless 2-D torus ('default' = 8,64,256,1024); -warm and -tx
//     then count per node (default 1 and 4).
//
// Any subset of the three may be combined; cells run fault-major, then
// by node count, then by load. Every cell reports throughput, latency
// percentiles, shed and SLO-violation rates, MTTR, and throughput
// relative to the first cell; -json prints each campaign with every
// cell's full Result, and -v prints each cell's statistics after the
// table.
//
// -arrivals switches runs to open-loop: transactions arrive on a seeded
// stochastic process ("poisson,rate=2e5,cap=256", "mmpp,rate=1.5e5,
// burst=8", "diurnal,rate=2e5,depth=0.8", optionally "mix=oltp:3/dss:1")
// and queue for admission; results grow arrival→completion latency
// percentiles and admission counters. In a -load-sweep campaign the
// stream is a template whose rate each load point sets, so rate= may be
// omitted.
//
// A flag the chosen mode would ignore is an error (exit 2): -chips with
// -scaling-sweep, and -fault-grid without -faults.
//
// Runs fan out across host CPUs (bounded by -parallel); each run is an
// isolated deterministic simulation, so results are printed in order
// and are identical to running each alone.
//
// -trace out.json writes a Chrome trace-event file (open in Perfetto or
// chrome://tracing) covering every run, campaign cells included;
// -intervals samples per-window busy/stall/miss series; -json prints
// versioned JSON instead of the text summary. Traces and JSON are
// byte-identical regardless of -parallel.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"piranha"
	"piranha/internal/core"
	"piranha/internal/fault"
	"piranha/internal/runner"
	"piranha/internal/sim"
	"piranha/internal/trace"
	"piranha/internal/workload"
)

// defaultFaultPlan is the campaign base when -faults=default: rates low
// enough that the machine limps rather than halts, high enough that a
// short smoke run exercises every fault class.
func defaultFaultPlan() fault.Plan {
	return fault.Plan{
		LinkBER:       1e-5,
		MsgLoss:       1e-4,
		MemFlip:       1e-4,
		MemDoubleFrac: 0.1,
		StallProb:     1e-6,
	}
}

// defaultNodes are the -scaling-sweep 'default' machine sizes: 8 nodes
// through the paper's 1024-node design target.
var defaultNodes = []int{8, 64, 256, 1024}

// parseFaultPlan parses the -faults spec: "default", or comma-separated
// key=value pairs (ber, loss, memflip, double, stall: probabilities in
// [0, 1]), the bare "mirror" token, fail-stop deaths as
// "failstop=NODE@TIME" (repeatable; TIME is a duration after the
// measured window starts, e.g. "failstop=1@10us"), and the fail-stop
// tunables "detect=DURATION" / "redispatch=DURATION".
func parseFaultPlan(spec string) (fault.Plan, error) {
	if spec == "default" {
		return defaultFaultPlan(), nil
	}
	var p fault.Plan
	duration := func(what, v string) (sim.Time, error) {
		d, err := time.ParseDuration(v)
		if err != nil {
			return 0, fmt.Errorf("bad -faults %s %q: %v", what, v, err)
		}
		if d < 0 {
			return 0, fmt.Errorf("bad -faults %s %q: negative", what, v)
		}
		return sim.Time(d.Nanoseconds()) * sim.Nanosecond, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if tok == "mirror" {
			p.Mirrored = true
			continue
		}
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return p, fmt.Errorf("bad -faults token %q (want key=value or mirror)", tok)
		}
		switch k {
		case "failstop":
			ns, at, ok := strings.Cut(v, "@")
			if !ok {
				return p, fmt.Errorf("bad -faults failstop %q (want NODE@TIME, e.g. 1@10us)", v)
			}
			node, err := strconv.Atoi(ns)
			if err != nil || node < 0 {
				return p, fmt.Errorf("bad -faults failstop node %q", ns)
			}
			t, err := duration("failstop time", at)
			if err != nil {
				return p, err
			}
			p.FailStop = append(p.FailStop, fault.NodeFailure{Node: node, At: t})
			continue
		case "detect", "redispatch":
			t, err := duration(k+" duration", v)
			if err != nil {
				return p, err
			}
			if k == "detect" {
				p.DetectLatency = t
			} else {
				p.RedispatchPenalty = t
			}
			continue
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return p, fmt.Errorf("bad -faults value %q: %v", tok, err)
		}
		if !(x >= 0 && x <= 1) {
			return p, fmt.Errorf("bad -faults value %q: want a probability in [0, 1]", tok)
		}
		switch k {
		case "ber":
			p.LinkBER = x
		case "loss":
			p.MsgLoss = x
		case "memflip":
			p.MemFlip = x
		case "double":
			p.MemDoubleFrac = x
		case "stall":
			p.StallProb = x
		default:
			return p, fmt.Errorf("unknown -faults key %q (ber|loss|memflip|double|stall|failstop|detect|redispatch|mirror)", k)
		}
	}
	return p, nil
}

// parseGrid parses a comma-separated list of non-negative finite
// multipliers for the flag named flagName.
func parseGrid(flagName, spec string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		x, err := strconv.ParseFloat(tok, 64)
		if err != nil || math.IsInf(x, 0) || !(x >= 0) {
			return nil, fmt.Errorf("bad -%s value %q: want a finite multiplier >= 0", flagName, tok)
		}
		out = append(out, x)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s is empty", flagName)
	}
	return out, nil
}

// flagConflict returns a one-line diagnostic when set, the flags given on
// the command line, names a flag its mode would ignore, and "" otherwise.
func flagConflict(set map[string]bool) string {
	if set["scaling-sweep"] && set["chips"] {
		return "-chips has no effect with -scaling-sweep (it sets the chip count)"
	}
	if set["fault-grid"] && !set["faults"] {
		return "-fault-grid has no effect without -faults"
	}
	return ""
}

// fail prints err and exits with the usage status.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// printResult renders one run's text summary; verbose adds the full
// statistics.
func printResult(res core.Result, verbose bool) {
	fmt.Println(res)
	if res.Lat != nil {
		fmt.Println(res.Lat)
	}
	if res.Admission != nil {
		a := res.Admission
		fmt.Printf("admission: arrivals=%d admitted=%d shed=%d completed=%d maxdepth=%d\n",
			a.Arrivals, a.Admitted, a.Shed, a.Completed, a.MaxDepth)
	}
	if fs := res.Faults; fs != nil {
		fmt.Printf("faults: inj=%d retrans=%d lost=%d rec=%d mem=%d/%d/%d stalls=%d\n",
			fs.Injected, fs.Retransmits, fs.MessagesLost, fs.Recovered,
			fs.MemCorrected, fs.MemFailovers, fs.MemUnrecoverable, fs.Stalls)
	}
	if res.Series.Len() > 0 {
		fmt.Print(res.Series)
	}
	if !verbose {
		return
	}
	busy, hit, miss, other := res.Agg.Normalized(res.Agg.Total())
	fmt.Printf("\nexecution time breakdown:\n")
	fmt.Printf("  CPU busy       %6.1f%%\n", busy*100)
	fmt.Printf("  L2 hit stall   %6.1f%%\n", hit*100)
	fmt.Printf("  L2 miss stall  %6.1f%%\n", miss*100)
	fmt.Printf("  other/idle     %6.1f%%\n", other*100)
	h, f, m := res.Miss.Fractions()
	fmt.Printf("\nL1 miss breakdown (total %d):\n", res.Miss.Total())
	fmt.Printf("  L2 hit  %6.1f%%\n  L2 fwd  %6.1f%%\n  L2 miss %6.1f%%\n", h*100, f*100, m*100)
	fmt.Printf("\nper-tx L2 controller events: hit=%.0f fwd=%.0f upgrade=%.0f mem=%.0f inval=%.0f wb2=%.0f wbmem=%.0f\n",
		float64(res.L2.Hits)/float64(res.Tx), float64(res.L2.Fwds)/float64(res.Tx),
		float64(res.L2.Upgrades)/float64(res.Tx), float64(res.L2.LocalMem+res.L2.Remote+res.L2.RemoteDirty)/float64(res.Tx),
		float64(res.L2.Invals)/float64(res.Tx), float64(res.L2.WritebacksToL2)/float64(res.Tx),
		float64(res.L2.WritebacksToMem)/float64(res.Tx))
	fmt.Printf("core svc counts per tx: L1=%.0f hit=%.0f fwd=%.0f mem=%.0f rem=%.0f dirty=%.0f\n",
		float64(res.Svc[0])/float64(res.Tx), float64(res.Svc[1])/float64(res.Tx),
		float64(res.Svc[2])/float64(res.Tx), float64(res.Svc[3])/float64(res.Tx),
		float64(res.Svc[4])/float64(res.Tx), float64(res.Svc[5])/float64(res.Tx))
	fmt.Printf("instructions retired: %d\n", res.Instructions)
	fmt.Printf("context switches:     %d\n", res.CtxSwitches)
	fmt.Printf("open-page hit rate:   %.1f%%\n", res.PageHitRate*100)
}

// writeTrace creates path and writes a trace document into it.
func writeTrace(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func main() {
	var (
		config    = flag.String("config", "p8", "comma-separated configurations: p1|p2|p4|p8|ino|ooo|p8f|pess|scale8|scale32|scale64|scale256|scale1024 (with -scaling-sweep, the chip every node carries)")
		work      = flag.String("workload", "oltp", "comma-separated workloads: oltp|dss|tpcc|web")
		chips     = flag.Int("chips", 1, "number of chips (glueless interconnect)")
		warm      = flag.Uint64("warm", 100, "warm-up transactions (per node with -scaling-sweep, default 1 there)")
		tx        = flag.Uint64("tx", 200, "measured transactions (per node with -scaling-sweep, default 4 there)")
		seed      = flag.Uint64("seed", 0, "workload seed (0 = default)")
		parallel  = flag.Int("parallel", 0, "max concurrent simulations (0 = one per CPU, 1 = serial)")
		verbose   = flag.Bool("v", false, "print full statistics (in a campaign, of every cell)")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON file covering all runs")
		jsonOut   = flag.Bool("json", false, "print results as versioned JSON, one object per line")
		intervals = flag.Duration("intervals", 0, "sample interval metrics per window of simulated time (e.g. 2us)")
		faults    = flag.String("faults", "", "fault campaign base plan: 'default' or e.g. 'ber=1e-5,loss=1e-4,memflip=1e-4,stall=1e-6,mirror'")
		faultGrid = flag.String("fault-grid", "0,1,2,4,8", "comma-separated rate multipliers of the -faults plan")
		arrivals  = flag.String("arrivals", "", "open-loop arrival stream, e.g. 'poisson,rate=2e5,cap=256' or 'mmpp,rate=1.5e5,burst=8,mix=oltp:3/dss:1' (rate in tx/s of simulated time; with -load-sweep the rate is set per point and may be omitted)")
		loadSweep = flag.String("load-sweep", "", "campaign load axis: 'default' or comma-separated capacity multipliers (e.g. '0.3,0.7,0.95,1.2') run open-loop")
		scaling   = flag.String("scaling-sweep", "", "campaign node axis on the glueless 2-D torus: 'default' (8,64,256,1024) or comma-separated node counts (e.g. '8,64')")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if msg := flagConflict(set); msg != "" {
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(2)
	}

	var arrivalSpec piranha.Arrivals
	if *arrivals != "" {
		spec := *arrivals
		if *loadSweep != "" && !strings.Contains(spec, "rate=") {
			// Each load point sets the rate. Parse the template at the
			// largest rate, which every rate-dependent check accepts.
			spec += fmt.Sprintf(",rate=%g", workload.MaxArrivalRate)
		}
		var err error
		if arrivalSpec, err = workload.ParseArrivals(spec); err != nil {
			fail(err)
		}
	}

	sysByName := map[string]piranha.SystemConfig{
		"p1": piranha.P1(), "p2": piranha.P2(), "p4": piranha.P4(),
		"p8": piranha.P8(), "ino": piranha.INO(), "ooo": piranha.OOO(),
		"p8f": piranha.P8F(), "pess": piranha.Pessimistic(),
		"scale8": piranha.ScaleOut8(), "scale32": piranha.ScaleOut32(),
		"scale64": piranha.ScaleOut64(), "scale256": piranha.ScaleOut256(),
		"scale1024": piranha.ScaleOut1024(),
	}
	// lookup resolves a -config name and applies -chips: flat-network
	// configs take the flag verbatim; scale-out configs carry their own
	// torus, so a conflicting -chips is a diagnostic, not a mis-built
	// machine (the Validate call is the NewSystemErr check run early).
	lookup := func(c string) piranha.SystemConfig {
		sys, ok := sysByName[c]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown config %q\n", c)
			os.Exit(2)
		}
		if sys.Topology == nil || *chips != 1 {
			sys.Chips = *chips
		}
		if err := sys.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "config %q: %v (drop -chips or pick the matching scale-out preset)\n", c, err)
			os.Exit(2)
		}
		return sys
	}
	kindByName := map[string]core.WorkloadKind{
		"oltp": core.OLTP, "dss": core.DSS, "tpcc": core.TPCC, "web": core.WEB,
	}
	kind := func(w string) core.WorkloadKind {
		k, ok := kindByName[w]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", w)
			os.Exit(2)
		}
		return k
	}
	configs, workloads := strings.Split(*config, ","), strings.Split(*work, ",")

	// Campaign axes: any of -load-sweep, -faults and -scaling-sweep
	// selects one campaign per config x workload pair.
	camp := piranha.Campaign{Scale: piranha.Scale{Warm: *warm, Measure: *tx},
		Seed: *seed, Intervals: *intervals}
	var err error
	if *loadSweep == "default" {
		camp.Loads = piranha.DefaultLoads
	} else if *loadSweep != "" {
		if camp.Loads, err = parseGrid("load-sweep", *loadSweep); err != nil {
			fail(err)
		}
		for _, x := range camp.Loads {
			if x == 0 {
				fail(fmt.Errorf("bad -load-sweep value 0: an open-loop point needs a positive load"))
			}
		}
	}
	if *faults != "" {
		if camp.Plan, err = parseFaultPlan(*faults); err != nil {
			fail(err)
		}
		if camp.FaultMults, err = parseGrid("fault-grid", *faultGrid); err != nil {
			fail(err)
		}
	}
	if *scaling == "default" {
		camp.Nodes = defaultNodes
	} else if *scaling != "" {
		for _, tok := range strings.Split(*scaling, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || n < 2 {
				fail(fmt.Errorf("bad -scaling-sweep node count %q", tok))
			}
			camp.Nodes = append(camp.Nodes, n)
		}
	}
	if len(camp.Nodes) > 0 {
		// -warm/-tx count per node, each defaulting on its own.
		camp.Scale = piranha.DefaultPerNodeScale
		if set["warm"] {
			camp.Scale.Warm = *warm
		}
		if set["tx"] {
			camp.Scale.Measure = *tx
		}
	}
	if len(camp.Loads) > 0 || len(camp.FaultMults) > 0 || len(camp.Nodes) > 0 {
		piranha.SetParallelism(*parallel)
		if *traceOut != "" {
			piranha.SetTraceCapture(0)
		}
		enc := json.NewEncoder(os.Stdout)
		for _, c := range configs {
			camp.Sys = lookup(c)
			for _, w := range workloads {
				camp.Work = piranha.Workload{Kind: kind(w), Arrivals: arrivalSpec}
				r, err := piranha.RunCampaign(camp)
				if err != nil {
					fail(err)
				}
				r.Name = c + "/" + w
				if *jsonOut {
					if err := enc.Encode(r); err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
					continue
				}
				fmt.Println(r)
				for i := 0; *verbose && i < len(r.Cells); i++ {
					fmt.Println()
					printResult(r.Cells[i].Result, true)
				}
			}
		}
		if *traceOut != "" {
			writeTrace(*traceOut, piranha.WriteCapturedTraces)
		}
		return
	}

	var exps []core.Experiment
	for _, c := range configs {
		sys := lookup(c)
		for _, w := range workloads {
			name := c
			if len(workloads) > 1 {
				// Disambiguate sweep rows: the same config appears once
				// per workload.
				name = c + "/" + w
			}
			e := core.Experiment{
				Name:      name,
				Sys:       sys,
				Work:      core.WorkloadSpec{Kind: kind(w), Arrivals: arrivalSpec},
				WarmTx:    *warm,
				MeasureTx: *tx,
				Seed:      *seed,
				Intervals: sim.Time(intervals.Nanoseconds()) * sim.Nanosecond,
			}
			if *traceOut != "" {
				e.Trace = trace.New(0)
			}
			exps = append(exps, e)
		}
	}

	failed := false
	enc := json.NewEncoder(os.Stdout)
	for _, out := range runner.Run(context.Background(), exps, *parallel) {
		if out.Err != nil {
			fmt.Fprintln(os.Stderr, out.Err)
			failed = true
			continue
		}
		if *jsonOut {
			if err := enc.Encode(out.Result); err != nil {
				fmt.Fprintln(os.Stderr, err)
				failed = true
			}
			continue
		}
		printResult(out.Result, *verbose)
	}
	if *traceOut != "" {
		traces := make([]*trace.Tracer, len(exps))
		labels := make([]string, len(exps))
		for i, e := range exps {
			traces[i], labels[i] = e.Trace, e.Name
		}
		writeTrace(*traceOut, func(w io.Writer) error {
			return trace.WriteChromeMulti(w, traces, labels, 0)
		})
	}
	if failed {
		os.Exit(1)
	}
}
