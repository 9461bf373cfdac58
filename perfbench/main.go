// Command perfbench is the repository's benchmark of record: the host
// cost of the Piranha simulator, end to end and layer by layer.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload oltp-p8 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it times untraced runs of the public entry point a user
// calls (core.Run, or mcheck.Check) and prints the end-to-end metrics.
// With --trace 1 it makes one traced run, reads the trace.Tracer counts
// and events, times each layer's public functions on that workload's own
// inputs, and cross-checks the attribution against a CPU profile. The
// last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The line before it is a JSON report with the host
// metadata, the simulated-result digest and the sample counts.
//
// Every run is one serial simulation in one process (IntraWorkers 0, no
// RunBatch): a closed loop with a single client. The seed is the only
// input; the same seed gives the same simulated work.
//
// # Workloads
//
//   - oltp-p8: closed-loop OLTP on the P8 chip (8 in-order cores, 1 MB
//     shared L2), 1000 warm-up and 2000 measured transactions. The paper's
//     headline machine: nearly all host time is the on-chip walk (cache,
//     linemap, sim, kernel, l2, workload). It bypasses pe, noc, directory,
//     admission, fault and stats (a single chip uses l2.LocalOnly), so it
//     is the no-change side for every inter-node or serving optimisation.
//   - scaleout-oltp: closed-loop OLTP on piranha.ScaleOut(64, 1), 64
//     single-core chips on an 8x8 torus, 1 warm-up and 4 measured
//     transactions per node. Each run does hundreds of thousands of
//     home/remote engine transactions and fabric hops, calibrates the
//     torus in set-up and allocates heavily. It has no on-chip L2
//     forwarding (one core per chip). The 256- and 1024-node sizes take
//     about 19 s and 110 s a run, too long here; they stay in
//     cmd/piranha-bench.
//   - serve-chaos: open-loop Poisson arrivals of a 3:1 OLTP:DSS tenant
//     mix on two P4 chips at a fixed offered rate (about 0.4x closed-loop
//     capacity), a bounded admission queue with retry, an SLO target, 50
//     µs interval series, link bit errors and message loss, and one
//     fail-stop death mid-measurement. The only workload that runs kernel
//     admission, arrival generation, quantile/SLO/series accounting, the
//     fault injector, TSRF recovery, RAS takeover and process migration;
//     DSS scans share memctl and l2 with OLTP's hot set. The rate is a
//     constant, not calibrated per run, so a model change cannot move the
//     offered load.
//   - mcheck-4n: mcheck.Check exhausting the shipped Piranha table at 4
//     nodes (283,621 states). protocol, directory and mcheck do all the
//     work and the timing model none; it ignores the seed.
//
// # End-to-end metrics
//
// host_us_per_sim_tx is host µs of one core.Run over the transactions it
// simulated (warm-up plus measured); host_us_per_state is host µs of
// mcheck.Check per explored state. Both are calibrated (calib.go): each
// run's wall time is scaled by a fixed kernel timed on either side of
// it, and the invocation reports the lower quartile over its runs.
// Every workload reports both: on the simulation workloads
// host_us_per_state is their per-transaction cost, and on mcheck-4n
// host_us_per_sim_tx is its per-state cost. setup_s is the calibrated
// median of repeated builds from the public constructors. alloc_mb and
// peak_rss_mb are medians of per-run values. fail_frac counts a run as failed when it
// panics, measures the wrong number of transactions, or its digest
// differs from the invocation's first run (mcheck-4n: not exhausted or a
// violation). It is reported as the rule-of-succession estimate
// (failed+1)/(attempted+2), which is never zero; the raw counts are the
// attempted and failed fields. Runs per invocation are fixed by
// --seconds and the workload, not by a deadline, so both sides of a
// comparison simulate the same work.
//
// # Per-layer metrics
//
// The traced run reads the trace.Tracer counts of the measured phase for
// the simulated per-transaction counts (l1.miss_per_tx, noc.hops_per_tx,
// ...) and the Result for the admission, latency, SLO, fault and
// recovery blocks. The rigs (rigs.go) time each layer's public functions
// on the workload's own inputs: its op streams regenerated from the
// seed, and the L1-miss, remote-miss and memory streams the traced run
// recorded. attr.<layer>_us_per_tx is self ns per call times calls per
// transaction; attr.sum_frac is their sum over host_us_per_sim_tx, and
// prof.<package>_share is the package's share of a CPU profile of an
// untraced run, so the two can be read side by side (the l2 layer's
// profile share is spread over the l2, cache and linemap packages).
// Three approximations are stated here rather than hidden: engine events
// per transaction come from a closed-loop replica of the machine (for
// serve-chaos too, whose arrival chain is internal to core.Run);
// mcheck-4n has no memory stream, so its rigs replay oltp-p8's inputs and
// its attr rows are zero; and a layer a workload bypasses reports zero
// counts while its rig still runs.
//
// # Why not cmd/piranha-bench
//
// Its rows are not the measurement of record: each end-to-end row is
// three back-to-back iterations with no spread, the oltp/p8/jintramax row
// ran with one intra worker yet reports a 2.2x speedup, and its chaos
// gate compares rates built on about four completions, so it cannot fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement length in host seconds on the reference host")
	traced := flag.Int("trace", 0, "1 makes the traced per-layer run instead of the end-to-end runs")
	root := flag.String("root", ".", "repository root (for the report's commit and line count)")
	out := flag.String("out", ".bench_build", "directory for profiles")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok {
		fatalf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		fatalf("--seconds must be positive")
	}
	env := runEnv{seed: *seed, seconds: *seconds, root: *root, out: *out}
	var (
		res result
		rep report
		err error
	)
	switch *traced {
	case 0:
		res, rep, err = runEndToEnd(w, env)
	case 1:
		res, rep, err = runTraced(w, env)
	default:
		fatalf("--trace must be 0 or 1")
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	rep.fill(w.name, env)
	emit(rep)
	emit(res)
}

// runEnv is what an invocation was asked to do.
type runEnv struct {
	seed    uint64
	seconds int
	root    string
	out     string
}

// runs is the number of measured runs for this workload and length.
func (e runEnv) runs(w *workloadDef) int {
	n := int(float64(e.seconds)/w.nominalRunS + 0.5)
	if n < 3 {
		n = 3
	}
	return n
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	sort.Strings(ns)
	return ns
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encode output: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
