package piranha

import (
	"fmt"
	"strings"
	"time"

	"piranha/internal/core"
	"piranha/internal/sim"
	"piranha/internal/stats"
)

// LoadSweep configures RunLoadSweep: an open-loop sweep over offered
// load producing the throughput-vs-tail-latency hockey stick.
type LoadSweep struct {
	// Multipliers are the offered-load points as fractions of the
	// machine's calibrated closed-loop capacity. Empty selects
	// DefaultSweepMultipliers.
	Multipliers []float64
	// Arrivals is the template every point's stream copies — process
	// shape, burstiness, queue capacity, tenant mix. Rate is overridden
	// per point; the zero value means Poisson with an unbounded queue.
	Arrivals Arrivals
	// Scale, Seed and Intervals mirror the Run options and apply to the
	// calibration run and every sweep point alike.
	Scale     Scale
	Seed      uint64
	Intervals time.Duration
}

// DefaultSweepMultipliers brackets the knee: well below capacity, the
// approach, and two points past it.
var DefaultSweepMultipliers = []float64{0.3, 0.5, 0.7, 0.85, 0.95, 1.05, 1.2}

// SweepPoint is one offered-load point of a load sweep.
type SweepPoint struct {
	Multiplier  float64 `json:"multiplier"`
	OfferedTxS  float64 `json:"offered_tx_s"`
	AchievedTxS float64 `json:"achieved_tx_s"`
	P50Ns       float64 `json:"p50_ns"`
	P90Ns       float64 `json:"p90_ns"`
	P99Ns       float64 `json:"p99_ns"`
	P999Ns      float64 `json:"p999_ns"`
	MeanDepth   float64 `json:"mean_depth"`
	Shed        uint64  `json:"shed"`
	Result      Result  `json:"result"`
}

// SweepResult is a full load sweep: the calibrated capacity, the curve,
// and the detected saturation point.
type SweepResult struct {
	Name        string       `json:"name"`
	CapacityTxS float64      `json:"capacity_tx_s"`
	Points      []SweepPoint `json:"points"`
	// Saturation indexes the first saturated point (achieved throughput
	// falling measurably short of offered, or tail latency exploding
	// relative to the lightest point); -1 when the sweep never saturates.
	Saturation int `json:"saturation"`
}

// RunLoadSweep drives one machine/workload pair through an open-loop
// load sweep. It first calibrates the machine's closed-loop capacity
// (transactions per second with every CPU saturated), then offers
// arrival streams at cfg.Multipliers fractions of that capacity and
// records throughput and the p50/p90/p99/p999 arrival→completion
// latencies per point. Sweep points run concurrently (SetParallelism)
// yet the result is deterministic: the same seed and config reproduce
// identical curves, byte for byte, at any worker count.
func RunLoadSweep(sys SystemConfig, w Workload, cfg LoadSweep) SweepResult {
	if cfg.Scale == (Scale{}) {
		cfg.Scale = QuickScale
	}
	mults := cfg.Multipliers
	if len(mults) == 0 {
		mults = DefaultSweepMultipliers
	}
	name := string(w.Kind)
	if name == "" {
		name = string(core.OLTP)
	}
	intervals := sim.Time(cfg.Intervals.Nanoseconds()) * sim.Nanosecond

	// Closed-loop calibration: with one always-ready server process per
	// CPU, throughput is the machine's capacity. Routed through RunBatch
	// so the harness-wide SetSeed default applies.
	cal := RunBatch([]Experiment{{
		Name:      name + "/calibrate",
		Sys:       sys,
		Work:      w,
		WarmTx:    cfg.Scale.Warm,
		MeasureTx: cfg.Scale.Measure,
		Seed:      cfg.Seed,
	}})[0]
	capacity := 1e9 / cal.TimePerTx // ns/tx → tx/s

	exps := make([]Experiment, len(mults))
	for i, m := range mults {
		wk := w
		wk.Arrivals = cfg.Arrivals
		wk.Arrivals.Rate = m * capacity
		exps[i] = core.Experiment{
			Name:      fmt.Sprintf("%s@%gx", name, m),
			Sys:       sys,
			Work:      wk,
			WarmTx:    cfg.Scale.Warm,
			MeasureTx: cfg.Scale.Measure,
			Seed:      cfg.Seed,
			Intervals: intervals,
		}
	}
	results := RunBatch(exps)

	pts := make([]SweepPoint, len(results))
	for i, r := range results {
		p := SweepPoint{
			Multiplier: mults[i],
			OfferedTxS: exps[i].Work.Arrivals.Rate,
			Result:     r,
		}
		if r.TimePerTx > 0 {
			p.AchievedTxS = 1e9 / r.TimePerTx
		}
		if r.Lat != nil {
			ns := float64(sim.Nanosecond)
			p.P50Ns = float64(r.Lat.Quantile(0.50)) / ns
			p.P90Ns = float64(r.Lat.Quantile(0.90)) / ns
			p.P99Ns = float64(r.Lat.Quantile(0.99)) / ns
			p.P999Ns = float64(r.Lat.Quantile(0.999)) / ns
		}
		if r.Admission != nil {
			p.Shed = r.Admission.Shed
			if r.Elapsed > 0 {
				p.MeanDepth = float64(r.Admission.DepthIntegral) / float64(r.Elapsed)
			}
		}
		pts[i] = p
	}
	return SweepResult{
		Name:        name,
		CapacityTxS: capacity,
		Points:      pts,
		Saturation:  detectSaturation(pts),
	}
}

// detectSaturation finds the knee of the hockey stick: the first point
// whose achieved throughput falls short of offered by more than 5%, or
// (for sweeps queue-bound enough to keep up on throughput) the first
// whose p99 exceeds 5x the lightest point's.
func detectSaturation(pts []SweepPoint) int {
	for i, p := range pts {
		if p.AchievedTxS < 0.95*p.OfferedTxS {
			return i
		}
	}
	if len(pts) > 1 && pts[0].P99Ns > 0 {
		for i, p := range pts {
			if p.P99Ns > 5*pts[0].P99Ns {
				return i
			}
		}
	}
	return -1
}

// String renders the sweep as a table plus a p99 sparkline.
func (s SweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load sweep %s: closed-loop capacity %.0f tx/s\n", s.Name, s.CapacityTxS)
	fmt.Fprintf(&b, "  %-6s %-12s %-12s %-10s %-10s %-10s %-9s %s\n",
		"mult", "offered/s", "achieved/s", "p50(ns)", "p99(ns)", "p999(ns)", "depth", "shed")
	p99s := make([]float64, len(s.Points))
	for i, p := range s.Points {
		mark := " "
		if i == s.Saturation {
			mark = "*"
		}
		fmt.Fprintf(&b, " %s%-6g %-12.0f %-12.0f %-10.0f %-10.0f %-10.0f %-9.2f %d\n",
			mark, p.Multiplier, p.OfferedTxS, p.AchievedTxS,
			p.P50Ns, p.P99Ns, p.P999Ns, p.MeanDepth, p.Shed)
		p99s[i] = p.P99Ns
	}
	fmt.Fprintf(&b, "  p99 vs load |%s|", stats.Sparkline(p99s))
	if s.Saturation >= 0 {
		fmt.Fprintf(&b, "  saturates at %gx", s.Points[s.Saturation].Multiplier)
	} else {
		fmt.Fprintf(&b, "  no saturation in sweep")
	}
	return b.String()
}
