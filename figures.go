package piranha

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"piranha/internal/area"
	"piranha/internal/cache"
	"piranha/internal/core"
	"piranha/internal/directory"
	"piranha/internal/ecc"
	"piranha/internal/link"
	"piranha/internal/memctl"
	"piranha/internal/pe"
	"piranha/internal/runner"
	"piranha/internal/sim"
	"piranha/internal/sortutil"
	"piranha/internal/stats"
	"piranha/internal/trace"
	"piranha/internal/useq"
)

// FigureReport is one regenerated table or figure: rendered text, the raw
// results, and the headline metrics that EXPERIMENTS.md tracks against
// the paper.
type FigureReport struct {
	ID      string
	Title   string
	Text    string
	Results []Result
	// Metrics holds named scalar outcomes (speedups, fractions).
	Metrics map[string]float64
}

func (f FigureReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "==== %s: %s ====\n%s", f.ID, f.Title, f.Text)
	if len(f.Metrics) > 0 {
		b.WriteString("metrics:\n")
		for _, k := range sortutil.Keys(f.Metrics) {
			fmt.Fprintf(&b, "  %-32s %8.3f\n", k, f.Metrics[k])
		}
	}
	// Interval series appear only when the harness ran with SetIntervals,
	// so the default rendering stays byte-identical to figures_output.txt.
	for _, r := range f.Results {
		if r.Series.Len() > 0 {
			fmt.Fprintf(&b, "series %s: %s", r.Name, r.Series)
		}
	}
	return b.String()
}

// parallelism is how many experiments the figure harness runs
// concurrently; 0 (the default) means one worker per host CPU.
var parallelism int

// SetParallelism bounds the worker pool used by RunBatch and the figure
// harness: n <= 0 restores the default of GOMAXPROCS workers. Each
// experiment is an isolated deterministic simulation, so the worker
// count changes wall-clock time only, never a reported number.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism = n
}

// Harness-wide tracing and interval settings. The figure functions
// build their own experiment lists; these settings let cmd/figures turn
// on interval sampling or trace capture for every run in a sweep
// without threading options through each harness.
var (
	harnessMu       sync.Mutex
	harnessInterval sim.Time
	captureTraces   bool
	captureCap      int
	captured        []*trace.Tracer
	capturedLabels  []string
)

// SetIntervals makes every subsequent harness run sample interval
// metrics with the given bin width (0 disables). Reports then append
// per-run ASCII sparklines after their metrics block.
func SetIntervals(d time.Duration) {
	harnessMu.Lock()
	defer harnessMu.Unlock()
	harnessInterval = sim.Time(d.Nanoseconds()) * sim.Nanosecond
}

// SetTraceCapture makes every subsequent harness run record a trace
// with the given ring capacity (0 selects the default), accumulating
// them for WriteCapturedTraces. Passing a negative capacity disables
// capture and discards anything accumulated.
func SetTraceCapture(capacity int) {
	harnessMu.Lock()
	defer harnessMu.Unlock()
	captureTraces = capacity >= 0
	captureCap = capacity
	captured, capturedLabels = nil, nil
}

// WriteCapturedTraces merges every trace captured since SetTraceCapture
// into one Chrome trace-event JSON document, one process per run, in
// the order the harness submitted the runs (deterministic under any
// parallelism setting).
func WriteCapturedTraces(w io.Writer) error {
	harnessMu.Lock()
	defer harnessMu.Unlock()
	return trace.WriteChromeMulti(w, captured, capturedLabels, 0)
}

// runBatch fans a config sweep across host CPUs and returns results in
// input order. A panic captured inside one run (always a model bug, e.g.
// an invariant violation) is re-raised here after the rest of the batch
// has completed, preserving the serial harness's fail-fast behaviour
// without losing sibling runs mid-flight.
func runBatch(exps []core.Experiment) []Result {
	harnessMu.Lock()
	iv, capture, capN := harnessInterval, captureTraces, captureCap
	harnessMu.Unlock()
	for i := range exps {
		if iv > 0 && exps[i].Intervals == 0 {
			exps[i].Intervals = iv
		}
		if capture && exps[i].Trace == nil {
			exps[i].Trace = trace.New(capN)
		}
	}
	rs, err := runner.Results(runner.Run(context.Background(), exps, parallelism))
	if err != nil {
		panic(err)
	}
	if capture {
		harnessMu.Lock()
		for i := range exps {
			captured = append(captured, exps[i].Trace)
			capturedLabels = append(capturedLabels, exps[i].Name)
		}
		harnessMu.Unlock()
	}
	return rs
}

// Table1 renders the parameter table for the studied configurations.
func Table1() FigureReport {
	t := stats.NewTable("Table 1: Parameters for different processor designs",
		"Parameter", "Piranha (P8)", "OOO", "Full-Custom (P8F)")
	p8, ooo, p8f := core.PiranhaChip(8), core.OOOChip(), core.FullCustomChip(8)
	row := func(name string, f func(core.ChipConfig) string) {
		t.AddRow(name, f(p8), f(ooo), f(p8f))
	}
	row("Processor speed", func(c core.ChipConfig) string { return fmt.Sprintf("%d MHz", c.Core.Clock.Freq()) })
	row("Issue width", func(c core.ChipConfig) string { return fmt.Sprintf("%d", c.Core.IssueWidth) })
	row("Instruction window", func(c core.ChipConfig) string {
		if c.Core.WindowSize <= 1 {
			return "-"
		}
		return fmt.Sprintf("%d", c.Core.WindowSize)
	})
	row("CPUs per chip", func(c core.ChipConfig) string { return fmt.Sprintf("%d", c.CPUs) })
	row("Cache line size", func(core.ChipConfig) string { return "64 bytes" })
	row("L1 cache size", func(c core.ChipConfig) string { return fmt.Sprintf("%d KB", c.L1.SizeBytes>>10) })
	row("L1 associativity", func(c core.ChipConfig) string { return fmt.Sprintf("%d-way", c.L1.Ways) })
	row("L2 cache size", func(c core.ChipConfig) string { return fmt.Sprintf("%.1f MB", float64(c.L2.SizeBytes)/(1<<20)) })
	row("L2 associativity", func(c core.ChipConfig) string { return fmt.Sprintf("%d-way", c.L2.Ways) })
	row("L2 hit / fwd latency", func(c core.ChipConfig) string {
		return fmt.Sprintf("%d / %d ns", c.L2.HitLatency/sim.Nanosecond, c.L2.FwdLatency/sim.Nanosecond)
	})
	row("Local memory latency", func(c core.ChipConfig) string {
		return fmt.Sprintf("~%d ns", (c.Mem.RandomLatency+c.L2.MemOverhead)/sim.Nanosecond)
	})
	t.AddRow("Remote memory latency", "120 ns", "120 ns", "120 ns")
	t.AddRow("Remote dirty latency", "180 ns", "180 ns", "180 ns")
	return FigureReport{ID: "table1", Title: "machine parameters", Text: t.String()}
}

// fig5Bars renders normalized execution-time bars with the paper's
// three-way breakdown.
func fig5Bars(title string, base Result, rs []Result) (string, map[string]float64) {
	bars := &stats.StackedBars{
		Title:    title,
		SegNames: []string{"CPU busy", "L2 hit stall", "L2 miss stall", "other"},
		Scale:    2.6,
	}
	metrics := map[string]float64{}
	for _, r := range rs {
		norm := r.TimePerTx / base.TimePerTx
		busy, hit, miss, other := r.Agg.Normalized(r.Agg.Total())
		bars.AddBar(r.Name, busy*norm, hit*norm, miss*norm, other*norm)
		metrics["norm_time_"+r.Name] = norm
	}
	return bars.String(), metrics
}

// fig5Single runs the Figure-5 configuration set on one workload.
func fig5Single(kind core.WorkloadKind, s Scale) FigureReport {
	configs := []struct {
		name string
		sys  SystemConfig
	}{
		{"P1", P1()}, {"INO", INO()}, {"OOO", OOO()}, {"P8", P8()},
	}
	exps := make([]core.Experiment, len(configs))
	for i, c := range configs {
		exps[i] = core.Experiment{
			Name:      c.name,
			Sys:       c.sys,
			Work:      core.WorkloadSpec{Kind: kind},
			WarmTx:    s.Warm,
			MeasureTx: s.Measure,
		}
	}
	rs := runBatch(exps)
	var base Result
	for _, r := range rs {
		if r.Name == "OOO" {
			base = r
		}
	}
	body, metrics := fig5Bars(strings.ToUpper(string(kind))+" (normalized to OOO)", base, rs)
	return FigureReport{
		ID:      "fig5-" + string(kind),
		Title:   "single-chip execution time (" + string(kind) + ")",
		Text:    body,
		Results: rs,
		Metrics: metrics,
	}
}

// Fig5 reproduces Figure 5: single-chip OLTP and DSS execution time for
// P1, INO, OOO and P8, normalized to OOO, broken into CPU busy, L2 hit
// stall and L2 miss stall.
func Fig5(s Scale) FigureReport {
	var text strings.Builder
	metrics := map[string]float64{}
	var all []Result
	for _, kind := range []core.WorkloadKind{core.OLTP, core.DSS} {
		half := fig5Single(kind, s)
		text.WriteString(half.Text)
		text.WriteByte('\n')
		for k, v := range half.Metrics {
			metrics[string(kind)+"_"+k] = v
		}
		all = append(all, half.Results...)
	}
	return FigureReport{
		ID:      "fig5",
		Title:   "single-chip execution time, P1/INO/OOO/P8, OLTP and DSS",
		Text:    text.String(),
		Results: all,
		Metrics: metrics,
	}
}

// Fig6 reproduces Figure 6: (a) Piranha OLTP speedup vs on-chip core
// count and (b) the L1-miss breakdown (L2 hit / L2 fwd / L2 miss).
func Fig6(s Scale) FigureReport {
	var exps []core.Experiment
	for _, n := range []int{1, 2, 4, 8} {
		exps = append(exps, core.Experiment{
			Name:      fmt.Sprintf("P%d", n),
			Sys:       SystemConfig{Chips: 1, Chip: core.PiranhaChip(n)},
			Work:      core.WorkloadSpec{Kind: core.OLTP},
			WarmTx:    s.Warm,
			MeasureTx: s.Measure,
		})
	}
	rs := runBatch(exps)
	metrics := map[string]float64{}
	t := stats.NewTable("Fig 6a: OLTP speedup vs cores", "Config", "Speedup")
	for _, r := range rs {
		sp := rs[0].TimePerTx / r.TimePerTx
		t.AddRow(r.Name, sp)
		metrics["speedup_"+r.Name] = sp
	}
	bars := &stats.StackedBars{
		Title:    "Fig 6b: L1 miss breakdown (misses per tx, normalized to P1=100)",
		SegNames: []string{"L2 hit", "L2 fwd", "L2 miss"},
	}
	basePerTx := float64(rs[0].Miss.Total()) / float64(rs[0].Tx)
	for _, r := range rs {
		hit, fwd, miss := r.Miss.Fractions()
		perTx := float64(r.Miss.Total()) / float64(r.Tx) / basePerTx * 100
		bars.AddBar(r.Name, hit*perTx, fwd*perTx, miss*perTx)
		metrics["misshit_"+r.Name] = hit
		metrics["missfwd_"+r.Name] = fwd
		metrics["missmem_"+r.Name] = miss
	}
	return FigureReport{
		ID:      "fig6",
		Title:   "Piranha OLTP speedup and L1-miss breakdown vs core count",
		Text:    t.String() + "\n" + bars.String(),
		Results: rs,
		Metrics: metrics,
	}
}

// Fig7 reproduces Figure 7: OLTP speedup from one to four chips, Piranha
// (4 CPUs per chip, the OS-imposed 16-CPU limit) versus OOO chips.
func Fig7(s Scale) FigureReport {
	metrics := map[string]float64{}
	t := stats.NewTable("Fig 7: multi-chip OLTP speedup", "Chips", "Piranha (P4/chip)", "OOO")
	var all []Result
	var exps []core.Experiment
	for n := 1; n <= 4; n++ {
		exps = append(exps,
			core.Experiment{
				Name:      fmt.Sprintf("P4x%d", n),
				Sys:       MultiChip(n, 4),
				Work:      core.WorkloadSpec{Kind: core.OLTP},
				WarmTx:    s.Warm,
				MeasureTx: s.Measure,
			},
			core.Experiment{
				Name:      fmt.Sprintf("OOOx%d", n),
				Sys:       MultiChipOOO(n),
				Work:      core.WorkloadSpec{Kind: core.OLTP},
				WarmTx:    s.Warm,
				MeasureTx: s.Measure,
			})
	}
	rs := runBatch(exps)
	var p1, o1 Result
	for n := 1; n <= 4; n++ {
		rp, ro := rs[2*(n-1)], rs[2*(n-1)+1]
		if n == 1 {
			p1, o1 = rp, ro
			metrics["single_chip_P4_over_OOO"] = ro.TimePerTx / rp.TimePerTx
		}
		sp := p1.TimePerTx / rp.TimePerTx
		so := o1.TimePerTx / ro.TimePerTx
		t.AddRow(fmt.Sprintf("%d", n), sp, so)
		metrics[fmt.Sprintf("piranha_speedup_%dchips", n)] = sp
		metrics[fmt.Sprintf("ooo_speedup_%dchips", n)] = so
		all = append(all, rp, ro)
	}
	return FigureReport{
		ID:      "fig7",
		Title:   "multi-chip scaling, Piranha vs OOO",
		Text:    t.String(),
		Results: all,
		Metrics: metrics,
	}
}

// Fig8 reproduces Figure 8: the full-custom P8F against OOO on OLTP and
// DSS (and P8 for reference).
func Fig8(s Scale) FigureReport {
	var text strings.Builder
	metrics := map[string]float64{}
	var all []Result
	kinds := []core.WorkloadKind{core.OLTP, core.DSS}
	configs := []struct {
		name string
		sys  SystemConfig
	}{{"OOO", OOO()}, {"P8", P8()}, {"P8F", P8F()}}
	var exps []core.Experiment
	for _, kind := range kinds {
		for _, c := range configs {
			exps = append(exps, core.Experiment{
				Name: c.name, Sys: c.sys,
				Work:   core.WorkloadSpec{Kind: kind},
				WarmTx: s.Warm, MeasureTx: s.Measure,
			})
		}
	}
	batch := runBatch(exps)
	for ki, kind := range kinds {
		rs := batch[ki*len(configs) : (ki+1)*len(configs)]
		var base Result
		for _, r := range rs {
			if r.Name == "OOO" {
				base = r
			}
		}
		body, _ := fig5Bars(strings.ToUpper(string(kind))+" (normalized to OOO)", base, rs)
		text.WriteString(body)
		text.WriteByte('\n')
		for _, r := range rs {
			metrics[string(kind)+"_speedup_"+r.Name] = base.TimePerTx / r.TimePerTx
		}
		all = append(all, rs...)
	}
	return FigureReport{
		ID:      "fig8",
		Title:   "full-custom Piranha potential (P8F vs OOO)",
		Text:    text.String(),
		Results: all,
		Metrics: metrics,
	}
}

// TextTPCC reproduces the §4 claim that P8 outperforms OOO by over 3x on
// a TPC-C-like workload.
func TextTPCC(s Scale) FigureReport {
	tpcc := func(sys SystemConfig) core.Experiment {
		return core.Experiment{
			Name: "tpcc", Sys: sys,
			Work:   core.WorkloadSpec{Kind: core.TPCC},
			WarmTx: s.Warm, MeasureTx: s.Measure,
		}
	}
	rs := runBatch([]core.Experiment{tpcc(P8()), tpcc(OOO())})
	p8, ooo := rs[0], rs[1]
	sp := ooo.TimePerTx / p8.TimePerTx
	return FigureReport{
		ID:      "tpcc",
		Title:   "TPC-C-like workload, P8 vs OOO",
		Text:    fmt.Sprintf("P8 ns/tx=%.0f  OOO ns/tx=%.0f  speedup=%.2f\n", p8.TimePerTx, ooo.TimePerTx, sp),
		Results: []Result{p8, ooo},
		Metrics: map[string]float64{"speedup_P8_over_OOO": sp},
	}
}

// TextPessimistic reproduces the §4 sensitivity study: 400 MHz CPUs,
// 32 KB one-way L1s, 22/32 ns L2 — execution time grows ~29% but P8
// still holds ~2.25x over OOO.
func TextPessimistic(s Scale) FigureReport {
	oltp := func(sys SystemConfig) core.Experiment {
		return core.Experiment{
			Name: "oltp", Sys: sys,
			Work:   core.WorkloadSpec{Kind: core.OLTP},
			WarmTx: s.Warm, MeasureTx: s.Measure,
		}
	}
	rs := runBatch([]core.Experiment{oltp(P8()), oltp(Pessimistic()), oltp(OOO())})
	p8, pess, ooo := rs[0], rs[1], rs[2]
	slow := pess.TimePerTx/p8.TimePerTx - 1
	sp := ooo.TimePerTx / pess.TimePerTx
	return FigureReport{
		ID:    "pessimistic",
		Title: "pessimistic Piranha parameters",
		Text: fmt.Sprintf("P8 ns/tx=%.0f  pessimistic ns/tx=%.0f (+%.0f%%)  speedup over OOO=%.2f\n",
			p8.TimePerTx, pess.TimePerTx, slow*100, sp),
		Results: []Result{p8, pess, ooo},
		Metrics: map[string]float64{
			"slowdown_frac":         slow,
			"speedup_pess_over_OOO": sp,
		},
	}
}

// TextCacheTradeoff reproduces the §4 design-space note: trading CPUs
// for a larger L2 is not advantageous for Piranha — the L2-miss stall
// fraction is small (~22% at P8), so even a vastly larger L2 buys only a
// modest improvement, while halving the CPUs costs ~2x throughput.
func TextCacheTradeoff(s Scale) FigureReport {
	exp := func(name string, cpus, l2MB int) core.Experiment {
		cfg := core.PiranhaChip(cpus)
		cfg.L2.SizeBytes = l2MB << 20
		return core.Experiment{
			Name:      name,
			Sys:       SystemConfig{Chips: 1, Chip: cfg},
			Work:      core.WorkloadSpec{Kind: core.OLTP},
			WarmTx:    s.Warm,
			MeasureTx: s.Measure,
		}
	}
	rs := runBatch([]core.Experiment{
		exp("P8-1MB", 8, 1),
		exp("P8-8MB", 8, 8), // "even an infinite L2"
		exp("P4-8MB", 4, 8), // trade 4 CPUs for SRAM
	})
	p8, p8big, p4big := rs[0], rs[1], rs[2]
	gain := p8.TimePerTx/p8big.TimePerTx - 1
	trade := p8.TimePerTx / p4big.TimePerTx
	t := stats.NewTable("Sec 4: trading CPUs for L2 capacity (OLTP)",
		"Config", "ns/tx", "vs P8-1MB")
	for _, r := range []Result{p8, p8big, p4big} {
		t.AddRow(r.Name, r.TimePerTx, p8.TimePerTx/r.TimePerTx)
	}
	return FigureReport{
		ID:    "sec4-tradeoff",
		Title: "CPUs vs larger L2",
		Text: t.String() + fmt.Sprintf(
			"8x L2 buys only %.0f%%; halving CPUs for SRAM loses %.2fx\n", gain*100, 1/trade),
		Results: []Result{p8, p8big, p4big},
		Metrics: map[string]float64{
			"infinite_l2_gain_frac": gain,
			"p8_over_p4big":         1 / trade,
		},
	}
}

// AblationInclusion runs the paper's central L2 design choice head to
// head: the non-inclusive victim L2 (Piranha, §2.3) versus a
// conventional inclusive L2 of the same geometry. With 1 MB of
// aggregate L1s, inclusion wastes the 1 MB L2 on duplicates and pays
// back-invalidations; non-inclusion roughly doubles the usable on-chip
// memory ("adding CPUs actually increases the amount of on-chip
// memory... non-inclusion policy is effective in utilizing the total
// amount of on-chip cache memory").
func AblationInclusion(s Scale) FigureReport {
	exp := func(name string, inclusive bool) core.Experiment {
		cfg := core.PiranhaChip(8)
		cfg.L2.Inclusive = inclusive
		return core.Experiment{
			Name:      name,
			Sys:       SystemConfig{Chips: 1, Chip: cfg},
			Work:      core.WorkloadSpec{Kind: core.OLTP},
			WarmTx:    s.Warm,
			MeasureTx: s.Measure,
		}
	}
	rs := runBatch([]core.Experiment{exp("non-inclusive", false), exp("inclusive", true)})
	non, inc := rs[0], rs[1]
	t := stats.NewTable("Ablation: non-inclusive (Piranha) vs inclusive L2 (OLTP, P8)",
		"L2 policy", "ns/tx", "L2hit%", "fwd%", "mem%")
	for _, r := range []Result{non, inc} {
		h, f, m := r.Miss.Fractions()
		t.AddRow(r.Name, r.TimePerTx, h*100, f*100, m*100)
	}
	gain := inc.TimePerTx/non.TimePerTx - 1
	_, _, memNon := non.Miss.Fractions()
	_, _, memInc := inc.Miss.Fractions()
	return FigureReport{
		ID:    "ablation-inclusion",
		Title: "the no-inclusion design choice",
		Text: t.String() + fmt.Sprintf(
			"inclusion costs %.0f%% execution time; memory-served misses %.0f%% -> %.0f%%\n",
			gain*100, memNon*100, memInc*100),
		Results: []Result{non, inc},
		Metrics: map[string]float64{
			"inclusive_slowdown_frac": gain,
			"mem_miss_frac_noninc":    memNon,
			"mem_miss_frac_inclusive": memInc,
		},
	}
}

// Sec24OpenPage reproduces §2.4: sweeping the page-close timeout on an
// OLTP-like channel stream, keeping pages open ~1 us yields an open-page
// hit rate over 50%.
func Sec24OpenPage() FigureReport {
	t := stats.NewTable("Sec 2.4: RDRAM open-page hit rate vs close timeout",
		"Timeout (ns)", "Hit rate")
	metrics := map[string]float64{}
	for _, timeout := range []sim.Time{
		100 * sim.Nanosecond, 300 * sim.Nanosecond, 1 * sim.Microsecond,
		3 * sim.Microsecond, 10 * sim.Microsecond,
	} {
		cfg := memctl.DefaultConfig()
		cfg.CloseTimeout = timeout
		mc := memctl.New(cfg)
		rng := sim.NewRNG(42)
		// An OLTP memory-channel stream: a few concurrent sequential
		// runs (history/log appends, index-range and table reads)
		// interleaved with random block misses, at a busy channel's
		// OLTP arrival rate (~one line per 150 ns per bank).
		const streams = 3
		cursors := make([]cache.Addr, streams)
		for i := range cursors {
			cursors[i] = cache.Addr(i) << 26
		}
		now := sim.Time(0)
		for i := 0; i < 30000; i++ {
			if rng.Bool(0.25) {
				mc.Read(now, cache.Addr(rng.Uint64()%(1<<32)))
			} else {
				s := rng.Intn(streams)
				mc.Read(now, cursors[s])
				cursors[s] += cache.LineBytes
			}
			now += sim.Time(100+rng.Intn(100)) * sim.Nanosecond
		}
		t.AddRow(fmt.Sprintf("%d", timeout/sim.Nanosecond), mc.HitRate())
		metrics[fmt.Sprintf("hit_rate_%dns", timeout/sim.Nanosecond)] = mc.HitRate()
	}
	return FigureReport{
		ID:      "sec2.4",
		Title:   "open-page policy hit rate",
		Text:    t.String(),
		Metrics: metrics,
	}
}

// Sec253CMI reproduces the cruise-missile-invalidate study: injected
// messages, gathered acks and invalidation latency versus home-broadcast
// across system sizes, plus the bounded-buffering arithmetic.
func Sec253CMI() FigureReport {
	t := stats.NewTable("Sec 2.5.3: cruise-missile invalidates vs home broadcast",
		"Nodes", "Sharers", "CMI msgs", "Bcast msgs", "CMI lat (ns)", "Bcast lat (ns)")
	metrics := map[string]float64{}
	for _, tc := range []struct{ nodes, sharers int }{
		{16, 8}, {64, 16}, {256, 41}, {1024, 41},
	} {
		run := func(useCMI bool) (uint64, sim.Time) {
			cfg := pe.DefaultConfig(tc.nodes)
			cfg.UseCMI = useCMI
			f := pe.NewFabric(cfg, pe.NewFlatNetworkN(25*sim.Nanosecond, cfg.Nodes))
			return f.InvalidateStudy(tc.sharers)
		}
		cm, cl := run(true)
		bm, bl := run(false)
		t.AddRow(tc.nodes, tc.sharers, cm, bm, float64(cl)/float64(sim.Nanosecond), float64(bl)/float64(sim.Nanosecond))
		key := fmt.Sprintf("%dn_%dsharers", tc.nodes, tc.sharers)
		metrics["cmi_msgs_"+key] = float64(cm)
		metrics["bcast_msgs_"+key] = float64(bm)
		metrics["cmi_lat_ns_"+key] = float64(cl) / float64(sim.Nanosecond)
		metrics["bcast_lat_ns_"+key] = float64(bl) / float64(sim.Nanosecond)
	}
	// The buffering bound: 2 engines x 16 TSRF x 4 invalidations.
	metrics["buffer_headers_bound"] = 2 * 16 * 4
	return FigureReport{
		ID:      "sec2.5.3-cmi",
		Title:   "bounded invalidation messages",
		Text:    t.String() + "buffer bound: 2 engines x 16 TSRF x 4 invals = 128 message headers\n",
		Metrics: metrics,
	}
}

// Sec253NoNAK compares the Piranha protocol with the DASH-style
// NAK/retry baseline: messages per transaction, home-engine occupancy,
// NAKs and retries under a conflict-heavy load.
func Sec253NoNAK() FigureReport {
	t := stats.NewTable("Sec 2.5.3: NAK-free protocol vs DASH-style baseline",
		"Protocol", "Msgs/txn", "HE busy (ns/txn)", "NAKs", "Retries")
	metrics := map[string]float64{}
	for _, baseline := range []bool{false, true} {
		name := "piranha-no-nak"
		if baseline {
			name = "dash-baseline"
		}
		msgs, occ, naks, retries, txns := pe.ContentionStudy(baseline, 4, 2000)
		t.AddRow(name,
			float64(msgs)/float64(txns),
			float64(occ)/float64(txns)/float64(sim.Nanosecond),
			naks, retries)
		metrics["msgs_per_txn_"+name] = float64(msgs) / float64(txns)
		metrics["he_occ_ns_per_txn_"+name] = float64(occ) / float64(txns) / float64(sim.Nanosecond)
		metrics["naks_"+name] = float64(naks)
	}
	return FigureReport{
		ID:      "sec2.5.3-nonak",
		Title:   "protocol message and occupancy comparison",
		Text:    t.String(),
		Metrics: metrics,
	}
}

// Sec251Microcode reproduces the protocol-engine microcode numbers: a
// remote read costs four instructions at the remote engine, and the
// reference handlers fit comfortably in the 1024-word store.
func Sec251Microcode() FigureReport {
	re, he, words, err := useq.RemoteReadCounts()
	text := ""
	if err != nil {
		text = "error: " + err.Error() + "\n"
	} else {
		text = fmt.Sprintf("remote engine instructions per read: %d (paper: 4)\n"+
			"home engine instructions per read:   %d\n"+
			"microcode store used: %d / %d words\n", re, he, words, useq.StoreSize)
	}
	return FigureReport{
		ID:    "sec2.5.1",
		Title: "microcoded protocol engine",
		Text:  text,
		Metrics: map[string]float64{
			"re_instructions": float64(re),
			"he_instructions": float64(he),
			"store_words":     float64(words),
		},
	}
}

// Sec261LinkCode reproduces the link-layer properties: DC balance,
// inversion insensitivity, and recovery under injected wire errors.
func Sec261LinkCode() FigureReport {
	ch := link.NewChannel(0.001, 7)
	frame := make([]byte, 64)
	for i := range frame {
		frame[i] = byte(i * 7)
	}
	lost := 0
	for i := 0; i < 500; i++ {
		if _, err := ch.Transmit(frame, 64); err != nil {
			lost++
		}
	}
	text := fmt.Sprintf("words sent: %d  inverted: %d (%.1f%%)\n"+
		"word errors detected: %d  CRC catches: %d  retransmits: %d  frames lost: %d\n",
		ch.WordsSent, ch.InvertedWords, 100*float64(ch.InvertedWords)/float64(ch.WordsSent),
		ch.WordErrors, ch.CRCErrors, ch.Retransmits, lost)
	return FigureReport{
		ID:    "sec2.6.1",
		Title: "DC-balanced link code under injected errors",
		Text:  text,
		Metrics: map[string]float64{
			"frames_lost":    float64(lost),
			"inverted_share": float64(ch.InvertedWords) / float64(ch.WordsSent),
		},
	}
}

// Fig9Area reproduces the floorplan proportions: ~75% of the processing
// node in CPUs and caches.
func Fig9Area() FigureReport {
	f := area.PiranhaNode(area.ASIC018())
	return FigureReport{
		ID:    "fig9",
		Title: "processing-node floorplan",
		Text:  f.String(),
		Metrics: map[string]float64{
			"core_cache_fraction": f.CoreCacheFraction(),
			"total_mm2":           float64(f.Total()),
		},
	}
}

// DirectoryNote documents the ECC-based directory storage arithmetic
// (§2.5.2) as a checkable artifact.
func DirectoryNote() FigureReport {
	spare := directorySpareBits()
	text := fmt.Sprintf("ECC at 256-bit granularity leaves %d spare bits per 64-byte line;\n"+
		"directory entry: 2 state bits + 42 sharer bits (4x10-bit pointers, coarse vector past %d sharers)\n",
		spare, directory.MaxPointers)
	return FigureReport{
		ID:      "sec2.5.2",
		Title:   "directory in ECC spare bits",
		Text:    text,
		Metrics: map[string]float64{"spare_bits": float64(spare)},
	}
}

func directorySpareBits() int {
	return ecc.SpareBitsPerLine(cache.LineBytes, ecc.DataBits)
}

// ScalingSuite renders the N-node scaling section: weak-scaling OLTP
// and DSS sweeps over the glueless 2-D torus machines (§2.6's design
// target is 1024 nodes). Paper scale runs the full 8→1024 sweep; quick
// scale stops at 64 nodes. The suite is opt-in (figures -only scaling)
// so the default figures_output.txt golden is unchanged.
func ScalingSuite(s Scale) FigureReport {
	nodes := []int{8, 64, 256, 1024}
	if s.Measure <= QuickScale.Measure {
		nodes = []int{8, 32, 64}
	}
	metrics := map[string]float64{}
	var text strings.Builder
	var all []Result
	for _, kind := range []core.WorkloadKind{core.OLTP, core.DSS} {
		c, err := RunCampaign(Campaign{Sys: P1(), Work: Workload{Kind: kind}, Nodes: nodes})
		if err != nil {
			panic(err) // a closed-loop campaign has no arrival stream to reject
		}
		fmt.Fprintln(&text, c)
		for _, cell := range c.Cells {
			metrics[fmt.Sprintf("%s_speedup_%dn", kind, cell.Nodes)] = cell.RelTput
			metrics[fmt.Sprintf("%s_efficiency_%dn", kind, cell.Nodes)] = cell.Efficiency
			all = append(all, cell.Result)
		}
	}
	return FigureReport{
		ID:      "scaling",
		Title:   fmt.Sprintf("glueless scale-out, %d→%d nodes", nodes[0], nodes[len(nodes)-1]),
		Text:    text.String(),
		Results: all,
		Metrics: metrics,
	}
}
