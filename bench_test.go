package piranha

// The benchmark harness regenerates every table and figure of the
// paper's evaluation section (plus its quantitative in-text claims).
// Each benchmark reports its headline numbers via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the full paper-vs-measured record (also collected in
// EXPERIMENTS.md). A full-scale regeneration is cmd/figures.
//
// Config sweeps inside each figure fan out across host CPUs via
// internal/runner; the reported metrics are bit-identical to a serial
// run (see determinism_test.go), but ns/op scales with GOMAXPROCS —
// run with -cpu 1 or call SetParallelism(1) for serial-comparable
// timings. The engine's own hot-path microbenchmarks live in
// internal/sim/engine_bench_test.go.

import (
	"io"
	"testing"
	"time"

	"piranha/internal/core"
	"piranha/internal/trace"
)

// benchScale keeps the whole suite tractable; cmd/figures uses
// PaperScale for the full-precision run.
var benchScale = Scale{Warm: 60, Measure: 150}

func reportMetrics(b *testing.B, f FigureReport) {
	b.Helper()
	for k, v := range f.Metrics {
		b.ReportMetric(v, k)
	}
}

// BenchmarkRun_NoTrace is the tracing-off baseline for one P8/OLTP run:
// with no tracer attached the instrumented hot paths must cost nothing
// (compare ns/op and allocs/op against BenchmarkRun_Traced; the pair is
// recorded in EXPERIMENTS.md).
func BenchmarkRun_NoTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(P8(), OLTP(), WithScale(benchScale))
	}
}

// BenchmarkRun_Traced runs the same experiment with the ring tracer
// recording every component event but without exporting it: the delta
// over BenchmarkRun_NoTrace is the pure recording cost (the ring and
// its count set are the only extra allocations, made once at setup).
func BenchmarkRun_Traced(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunExperiment(Experiment{
			Name: "bench", Sys: P8(),
			Work:   core.WorkloadSpec{Kind: core.OLTP},
			WarmTx: benchScale.Warm, MeasureTx: benchScale.Measure,
			Trace: trace.New(0),
		})
	}
}

// BenchmarkRun_TracedExport additionally serializes the trace to
// io.Discard, covering the full -trace code path including the Chrome
// JSON writer.
func BenchmarkRun_TracedExport(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(P8(), OLTP(), WithScale(benchScale), WithTrace(io.Discard))
	}
}

// BenchmarkRun_Intervals adds the per-window sampler on top of the
// untraced baseline.
func BenchmarkRun_Intervals(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(P8(), OLTP(), WithScale(benchScale), WithIntervals(2*time.Microsecond))
	}
}

// BenchmarkTable1Configs renders the Table 1 parameter table (checking
// the presets agree with the paper's numbers is TestPresetsMatchTable1
// in internal/core).
func BenchmarkTable1Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if Table1().Text == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig5_OLTP regenerates Figure 5's OLTP half: P1, INO, OOO, P8
// normalized execution time with the busy/L2/memory breakdown.
// Paper shape: P1 ~2.3x OOO; INO isolates ~1.6x of that; P8 ~1/2.9 OOO.
func BenchmarkFig5_OLTP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := fig5Single(core.OLTP, benchScale)
		reportMetrics(b, rep)
	}
}

// BenchmarkFig5_DSS regenerates Figure 5's DSS half.
// Paper shape: OOO ~3.5x P1; P8 ~1/2.3 OOO.
func BenchmarkFig5_DSS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := fig5Single(core.DSS, benchScale)
		reportMetrics(b, rep)
	}
}

// BenchmarkFig6a_Speedup regenerates Figure 6(a): OLTP speedup at
// 1/2/4/8 on-chip cores. Paper: ~7x at eight cores.
func BenchmarkFig6a_Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := Fig6(benchScale)
		b.ReportMetric(rep.Metrics["speedup_P8"], "speedup_P8")
		b.ReportMetric(rep.Metrics["speedup_P4"], "speedup_P4")
		b.ReportMetric(rep.Metrics["speedup_P2"], "speedup_P2")
	}
}

// BenchmarkFig6b_MissBreakdown regenerates Figure 6(b): the L1-miss
// service breakdown versus core count. Paper: L2-hit share falls from
// ~90% toward 40% while the memory share stays under ~20%.
func BenchmarkFig6b_MissBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := Fig6(benchScale)
		for _, k := range []string{"misshit_P1", "misshit_P8", "missfwd_P8", "missmem_P1", "missmem_P8"} {
			b.ReportMetric(rep.Metrics[k], k)
		}
	}
}

// BenchmarkFig7_MultiChip regenerates Figure 7: OLTP speedup from one to
// four chips, Piranha (P4 per chip) vs OOO. Paper: 3.0 vs 2.6 at four
// chips, with a single-chip P4 ~1.5x one OOO chip.
func BenchmarkFig7_MultiChip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := Fig7(benchScale)
		for _, k := range []string{"piranha_speedup_4chips", "ooo_speedup_4chips", "single_chip_P4_over_OOO"} {
			b.ReportMetric(rep.Metrics[k], k)
		}
	}
}

// BenchmarkFig8_FullCustom regenerates Figure 8: the full-custom P8F
// against OOO. Paper: ~5.0x on OLTP, ~5.3x on DSS.
func BenchmarkFig8_FullCustom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := Fig8(benchScale)
		b.ReportMetric(rep.Metrics["oltp_speedup_P8F"], "oltp_speedup_P8F")
		b.ReportMetric(rep.Metrics["dss_speedup_P8F"], "dss_speedup_P8F")
	}
}

// BenchmarkText_TPCC reproduces §4's TPC-C sensitivity claim:
// P8 outperforms OOO by over 3x on a TPC-C-like workload.
func BenchmarkText_TPCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := TextTPCC(benchScale)
		b.ReportMetric(rep.Metrics["speedup_P8_over_OOO"], "speedup_P8_over_OOO")
	}
}

// BenchmarkText_Pessimistic reproduces §4's pessimistic-parameter study:
// 400 MHz cores, 32 KB direct-mapped L1s, 22/32 ns L2 cost ~29% more
// time but keep a ~2.25x advantage over OOO.
func BenchmarkText_Pessimistic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := TextPessimistic(benchScale)
		b.ReportMetric(rep.Metrics["slowdown_frac"], "slowdown_frac")
		b.ReportMetric(rep.Metrics["speedup_pess_over_OOO"], "speedup_pess_over_OOO")
	}
}

// BenchmarkText_CacheTradeoff reproduces §4's design-space note: with
// only ~22% of P8's time in L2-miss stall, even a much larger L2 buys
// little, so trading CPUs for SRAM is not advantageous.
func BenchmarkText_CacheTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := TextCacheTradeoff(benchScale)
		b.ReportMetric(rep.Metrics["infinite_l2_gain_frac"], "infinite_l2_gain_frac")
		b.ReportMetric(rep.Metrics["p8_over_p4big"], "p4big_slowdown")
	}
}

// BenchmarkAblation_Inclusion runs the paper's central L2 design choice
// head to head: Piranha's non-inclusive victim L2 vs a conventional
// inclusive L2 of identical geometry, on OLTP at P8.
func BenchmarkAblation_Inclusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := AblationInclusion(benchScale)
		b.ReportMetric(rep.Metrics["inclusive_slowdown_frac"], "inclusive_slowdown_frac")
		b.ReportMetric(rep.Metrics["mem_miss_frac_inclusive"], "mem_frac_inclusive")
		b.ReportMetric(rep.Metrics["mem_miss_frac_noninc"], "mem_frac_noninc")
	}
}

// BenchmarkSec24_OpenPage reproduces §2.4: keeping RDRAM pages open
// ~1 us yields an open-page hit rate over 50% on OLTP-like streams.
func BenchmarkSec24_OpenPage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := Sec24OpenPage()
		b.ReportMetric(rep.Metrics["hit_rate_1000ns"], "hit_rate_1000ns")
		b.ReportMetric(rep.Metrics["hit_rate_100ns"], "hit_rate_100ns")
	}
}

// BenchmarkSec253_CMI reproduces the cruise-missile-invalidate study:
// a handful of injected messages regardless of sharer count, bounded
// buffering, and competitive (flat) invalidation latency at scale.
func BenchmarkSec253_CMI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := Sec253CMI()
		b.ReportMetric(rep.Metrics["cmi_msgs_1024n_41sharers"], "cmi_msgs_1024n_41sharers")
		b.ReportMetric(rep.Metrics["bcast_msgs_1024n_41sharers"], "bcast_msgs_1024n_41sharers")
		b.ReportMetric(rep.Metrics["cmi_lat_ns_1024n_41sharers"], "cmi_lat_ns_1024n")
		b.ReportMetric(rep.Metrics["bcast_lat_ns_1024n_41sharers"], "bcast_lat_ns_1024n")
	}
}

// BenchmarkSec253_NoNAK reproduces the protocol ablation: the NAK-free
// protocol sends fewer messages and keeps lower home-engine occupancy
// than a DASH-style NAK/retry baseline.
func BenchmarkSec253_NoNAK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := Sec253NoNAK()
		b.ReportMetric(rep.Metrics["msgs_per_txn_piranha-no-nak"], "msgs_nonak")
		b.ReportMetric(rep.Metrics["msgs_per_txn_dash-baseline"], "msgs_dash")
		b.ReportMetric(rep.Metrics["naks_dash-baseline"], "naks_dash")
	}
}

// BenchmarkSec251_Microcode reproduces §2.5.1: a remote read costs four
// instructions at the remote engine.
func BenchmarkSec251_Microcode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := Sec251Microcode()
		b.ReportMetric(rep.Metrics["re_instructions"], "re_instructions")
		b.ReportMetric(rep.Metrics["store_words"], "store_words")
	}
}

// BenchmarkSec261_LinkCode reproduces §2.6.1: the DC-balanced code with
// inversion-insensitive decoding recovers every frame under injected
// wire errors.
func BenchmarkSec261_LinkCode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := Sec261LinkCode()
		b.ReportMetric(rep.Metrics["frames_lost"], "frames_lost")
		b.ReportMetric(rep.Metrics["inverted_share"], "inverted_share")
	}
}

// BenchmarkFig9_Area reproduces Figure 9's floorplan proportions: ~75%
// of the processing node in CPUs + caches.
func BenchmarkFig9_Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := Fig9Area()
		b.ReportMetric(rep.Metrics["core_cache_fraction"], "core_cache_fraction")
	}
}
