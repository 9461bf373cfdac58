package piranha

import (
	"fmt"
	"strings"
	"time"

	"piranha/internal/core"
	"piranha/internal/ras"
	"piranha/internal/sim"
	"piranha/internal/stats"
	"piranha/internal/workload"
)

// ChaosSweep configures RunChaosSweep: a composed campaign crossing an
// open-loop offered-load sweep with a fault-rate grid — the "how does
// the tail degrade when the machine is both busy and broken" experiment.
// Each cell of the grid is one full open-loop run at (load multiplier ×
// calibrated capacity) under (fault multiplier × base plan); a fault
// multiplier of zero drops the plan entirely (including fail-stop
// deaths), so the first column is the fault-free baseline the rest of
// the surface is read against.
type ChaosSweep struct {
	// Multipliers are the offered-load points as fractions of calibrated
	// closed-loop capacity. Empty selects DefaultChaosLoadMultipliers.
	Multipliers []float64
	// FaultMults scale the base plan per grid column. Empty selects
	// DefaultChaosFaultMultipliers.
	FaultMults []float64
	// Plan is the base fault plan (rates, and fail-stop deaths which are
	// kept verbatim at any multiplier > 0).
	Plan FaultPlan
	// Arrivals is the per-cell stream template; Rate is overridden per
	// cell. The zero value means Poisson with an unbounded queue.
	Arrivals Arrivals
	// SLOTarget is the latency objective every cell's SLO accountant
	// uses. Zero auto-derives 2× the calibrated closed-loop residence
	// time — Little's law at full multiprogramming (server processes ×
	// service time), doubled for slack — so light-load fault-free cells
	// comfortably meet it and overload or failure blows it.
	SLOTarget time.Duration
	// SLOBudget is the tolerated violation fraction (default 10%).
	SLOBudget float64
	// Scale, Seed and Intervals mirror the Run options and apply to the
	// calibration run and every cell alike.
	Scale     Scale
	Seed      uint64
	Intervals time.Duration
}

// DefaultChaosLoadMultipliers brackets the knee with one point past it.
var DefaultChaosLoadMultipliers = []float64{0.5, 0.9, 1.2}

// DefaultChaosFaultMultipliers cover baseline, nominal, and aggressive
// fault rates.
var DefaultChaosFaultMultipliers = []float64{0, 1, 4}

// ChaosCell is one (load, fault) cell of the degradation surface.
type ChaosCell struct {
	LoadMult    float64 `json:"load_mult"`
	FaultMult   float64 `json:"fault_mult"`
	OfferedTxS  float64 `json:"offered_tx_s"`
	AchievedTxS float64 `json:"achieved_tx_s"`
	P50Ns       float64 `json:"p50_ns"`
	P99Ns       float64 `json:"p99_ns"`
	P999Ns      float64 `json:"p999_ns"`
	// ShedRate is sheds over arrivals; SLOViolationRate counts
	// violations and sheds over settled transactions.
	ShedRate         float64 `json:"shed_rate"`
	SLOViolationRate float64 `json:"slo_violation_rate"`
	// MTTRNs sums the cell's fail-stop recovery times (0 when no node
	// died).
	MTTRNs float64 `json:"mttr_ns"`
	Result Result  `json:"result"`
}

// ChaosResult is a full composed campaign: the calibrated capacity, the
// derived SLO target, and the cell grid in fault-major order.
type ChaosResult struct {
	Name        string      `json:"name"`
	CapacityTxS float64     `json:"capacity_tx_s"`
	SLOTargetNs float64     `json:"slo_target_ns"`
	LoadMults   []float64   `json:"load_mults"`
	FaultMults  []float64   `json:"fault_mults"`
	Cells       []ChaosCell `json:"cells"`
}

// Cell returns the cell at (faultMult index fi, loadMult index li).
func (c ChaosResult) Cell(fi, li int) ChaosCell {
	return c.Cells[fi*len(c.LoadMults)+li]
}

// procsPerCPU mirrors the experiment's server-process multiprogramming
// level (the buildWorkload defaults) without running anything, so the
// auto-derived SLO target can account for closed-loop residence time.
func procsPerCPU(w Workload, a Arrivals) int {
	per := func(kind core.WorkloadKind) int {
		switch kind {
		case core.DSS:
			if w.DSS.InstrPerLine != 0 {
				return w.DSS.ProcsPerCPU
			}
			return workload.DefaultDSS().ProcsPerCPU
		case core.WEB:
			if w.DSS.InstrPerLine != 0 {
				return w.DSS.ProcsPerCPU
			}
			return workload.WebLike().ProcsPerCPU
		case core.TPCC:
			if w.OLTP.InstrPerTx != 0 {
				return w.OLTP.ProcsPerCPU
			}
			return workload.TPCCLike().ProcsPerCPU
		default:
			if w.OLTP.InstrPerTx != 0 {
				return w.OLTP.ProcsPerCPU
			}
			return workload.DefaultOLTP().ProcsPerCPU
		}
	}
	if len(a.Mix) > 0 {
		total := 0
		for _, t := range a.Mix {
			total += per(core.WorkloadKind(t.Kind))
		}
		return total
	}
	return per(w.Kind)
}

// RunChaosSweep drives one machine/workload pair through the composed
// load × fault grid. Calibration runs once; every cell then shares the
// same capacity anchor and SLO target, so the surface is comparable
// across both axes. Cells run concurrently (SetParallelism) yet the
// result is deterministic: the same seed and config reproduce identical
// surfaces, byte for byte, at any worker count.
func RunChaosSweep(sys SystemConfig, w Workload, cfg ChaosSweep) ChaosResult {
	if cfg.Scale == (Scale{}) {
		cfg.Scale = QuickScale
	}
	loads := cfg.Multipliers
	if len(loads) == 0 {
		loads = DefaultChaosLoadMultipliers
	}
	fmults := cfg.FaultMults
	if len(fmults) == 0 {
		fmults = DefaultChaosFaultMultipliers
	}
	name := string(w.Kind)
	if name == "" {
		name = string(core.OLTP)
	}
	intervals := sim.Time(cfg.Intervals.Nanoseconds()) * sim.Nanosecond

	cal := RunBatch([]Experiment{{
		Name:      name + "/calibrate",
		Sys:       sys,
		Work:      w,
		WarmTx:    cfg.Scale.Warm,
		MeasureTx: cfg.Scale.Measure,
		Seed:      cfg.Seed,
	}})[0]
	capacity := 1e9 / cal.TimePerTx // ns/tx → tx/s

	slo := sim.Time(cfg.SLOTarget.Nanoseconds()) * sim.Nanosecond
	if slo <= 0 {
		// A transaction's closed-loop residence time is concurrency ×
		// service time (Little's law): every CPU timeshares its whole
		// server-process pool. 2× that is met with room to spare by a
		// light-load open-loop cell and blown under overload or failure.
		concurrency := float64(cal.CPUs * procsPerCPU(w, cfg.Arrivals))
		slo = sim.Time(2*concurrency*cal.TimePerTx) * sim.Nanosecond
	}

	exps := make([]Experiment, 0, len(fmults)*len(loads))
	for _, fm := range fmults {
		for _, lm := range loads {
			wk := w
			wk.Arrivals = cfg.Arrivals
			wk.Arrivals.Rate = lm * capacity
			e := core.Experiment{
				Name:      fmt.Sprintf("%s@%gx/f%gx", name, lm, fm),
				Sys:       sys,
				Work:      wk,
				WarmTx:    cfg.Scale.Warm,
				MeasureTx: cfg.Scale.Measure,
				Seed:      cfg.Seed,
				Intervals: intervals,
				SLOTarget: slo,
				SLOBudget: cfg.SLOBudget,
				Faults:    cfg.Plan.Scaled(fm),
			}
			// Private failover targets per cell: cells run concurrently
			// and must not share mutable state.
			if e.Faults.Mirrored {
				e.FaultEscalate = ras.NewFailover(e.Faults.MirrorLatency).Uncorrectable
			}
			if len(e.Faults.FailStop) > 0 {
				e.FaultAdopt = ras.NewFailover(e.Faults.MirrorLatency).Takeover
			}
			exps = append(exps, e)
		}
	}
	results := RunBatch(exps)

	cells := make([]ChaosCell, len(results))
	for i, r := range results {
		c := ChaosCell{
			LoadMult:   loads[i%len(loads)],
			FaultMult:  fmults[i/len(loads)],
			OfferedTxS: exps[i].Work.Arrivals.Rate,
			Result:     r,
		}
		if r.TimePerTx > 0 {
			c.AchievedTxS = 1e9 / r.TimePerTx
		}
		if r.Lat != nil {
			ns := float64(sim.Nanosecond)
			c.P50Ns = float64(r.Lat.Quantile(0.50)) / ns
			c.P99Ns = float64(r.Lat.Quantile(0.99)) / ns
			c.P999Ns = float64(r.Lat.Quantile(0.999)) / ns
		}
		if r.Admission != nil && r.Admission.Arrivals > 0 {
			c.ShedRate = float64(r.Admission.Shed) / float64(r.Admission.Arrivals)
		}
		if r.SLO != nil {
			c.SLOViolationRate = r.SLO.ViolationRate()
		}
		if r.Recovery != nil {
			c.MTTRNs = float64(r.Recovery.MTTRTotal) / float64(sim.Nanosecond)
		}
		cells[i] = c
	}
	return ChaosResult{
		Name:        name,
		CapacityTxS: capacity,
		SLOTargetNs: float64(slo) / float64(sim.Nanosecond),
		LoadMults:   loads,
		FaultMults:  fmults,
		Cells:       cells,
	}
}

// String renders the degradation surface: one block per fault multiplier
// with per-load rows, plus a p99 sparkline over the whole grid.
func (c ChaosResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos sweep %s: capacity %.0f tx/s, SLO target %.0f ns\n",
		c.Name, c.CapacityTxS, c.SLOTargetNs)
	p99s := make([]float64, 0, len(c.Cells))
	for fi, fm := range c.FaultMults {
		fmt.Fprintf(&b, " faults x%g\n", fm)
		fmt.Fprintf(&b, "  %-6s %-12s %-12s %-10s %-10s %-10s %-8s %-8s %s\n",
			"load", "offered/s", "achieved/s", "p50(ns)", "p99(ns)", "p999(ns)", "shed", "sloviol", "mttr(ns)")
		for li := range c.LoadMults {
			cell := c.Cell(fi, li)
			fmt.Fprintf(&b, "  %-6g %-12.0f %-12.0f %-10.0f %-10.0f %-10.0f %-8.3f %-8.3f %.0f\n",
				cell.LoadMult, cell.OfferedTxS, cell.AchievedTxS,
				cell.P50Ns, cell.P99Ns, cell.P999Ns,
				cell.ShedRate, cell.SLOViolationRate, cell.MTTRNs)
			p99s = append(p99s, cell.P99Ns)
		}
	}
	fmt.Fprintf(&b, "  p99 over grid |%s|", stats.Sparkline(p99s))
	return b.String()
}

// WithSLO attaches a per-window SLO accountant to an open-loop run: the
// latency objective, window width (Intervals when set, else 50 µs), and
// error budget land in Result.SLO and the JSON "slo" block.
func WithSLO(target time.Duration, budget float64) Option {
	return func(rc *runConfig) {
		rc.exp.SLOTarget = sim.Time(target.Nanoseconds()) * sim.Nanosecond
		rc.exp.SLOBudget = budget
	}
}
