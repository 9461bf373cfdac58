package piranha

import (
	"fmt"
	"strings"
	"time"

	"piranha/internal/core"
	"piranha/internal/sim"
	"piranha/internal/stats"
)

// Campaign is a declarative grid of runs of one workload on one machine,
// crossed with any subset of three axes: machine size, offered load and
// fault-rate multiplier. An empty axis is a single point: Sys as given,
// the workload's own closed loop (or the fixed-rate stream already in
// Work.Arrivals), and Plan as given. RunCampaign runs it.
type Campaign struct {
	Sys  SystemConfig
	Work Workload
	// Nodes scales Sys out to n chips per point, on the most-square 2-D
	// torus (see ScaleOut); Scale then counts transactions per node, so
	// every node does the same work at every size (weak scaling).
	Nodes []int
	// Loads are offered-load points as multiples of each machine's
	// calibrated closed-loop capacity. Work.Arrivals is the stream
	// template (its zero value is Poisson with an unbounded queue); each
	// point sets its Rate.
	Loads []float64
	// FaultMults run Plan.Scaled(m) per point; 0 is the fault-free
	// baseline (fail-stop deaths included).
	FaultMults []float64
	Plan       FaultPlan
	// SLOTarget is the latency objective of every open-loop cell. Zero
	// derives one per machine from its calibration when Loads is set:
	// twice the closed-loop residence time (CPUs × server processes per
	// CPU × time per transaction, by Little's law), which light load
	// meets with room to spare and overload or failure blows.
	SLOTarget time.Duration
	// SLOBudget is the tolerated violation fraction (default 10%).
	SLOBudget float64
	// Scale is every run's transaction budget, calibrations included.
	// Zero selects QuickScale, or DefaultPerNodeScale with Nodes.
	Scale     Scale
	Seed      uint64
	Intervals time.Duration
}

// DefaultLoads brackets the knee of the throughput-vs-latency hockey
// stick: well below capacity, the approach, and two points past it.
var DefaultLoads = []float64{0.3, 0.5, 0.7, 0.85, 0.95, 1.05, 1.2}

// DefaultPerNodeScale keeps a 1024-node point tractable: 4 measured
// transactions per node is 4096 in all.
var DefaultPerNodeScale = Scale{Warm: 1, Measure: 4}

// CampaignCell is one run of a campaign and what it reports.
type CampaignCell struct {
	Nodes     int     `json:"nodes"`
	Load      float64 `json:"load"`
	FaultMult float64 `json:"fault_mult"`
	// OfferedTxS is the open-loop arrival rate (0 for a closed loop).
	OfferedTxS  float64 `json:"offered_tx_s"`
	AchievedTxS float64 `json:"achieved_tx_s"`
	NsPerTx     float64 `json:"ns_per_tx"`
	P50Ns       float64 `json:"p50_ns"`
	P90Ns       float64 `json:"p90_ns"`
	P99Ns       float64 `json:"p99_ns"`
	P999Ns      float64 `json:"p999_ns"`
	MeanDepth   float64 `json:"mean_depth"`
	// ShedRate is sheds over arrivals; SLOViolationRate counts
	// violations and sheds over settled transactions.
	ShedRate         float64 `json:"shed_rate"`
	SLOViolationRate float64 `json:"slo_violation_rate"`
	// MTTRNs sums the cell's fail-stop recovery times.
	MTTRNs float64 `json:"mttr_ns"`
	// RelTput is throughput relative to the first cell, and Efficiency
	// is RelTput divided by the growth in nodes since the first cell.
	RelTput    float64 `json:"rel_tput"`
	Efficiency float64 `json:"efficiency"`
	// Saturated marks the first saturated point of a load row: achieved
	// throughput more than 5% short of offered with a standing queue
	// (mean depth at least 1) or sheds or, for a row that keeps up, p99
	// above 5× the row's lightest point's.
	Saturated bool   `json:"saturated,omitempty"`
	Result    Result `json:"result"`
}

// CampaignResult is a finished campaign. Cells run fault-major, then by
// node count, then by load.
type CampaignResult struct {
	Name       string    `json:"name"`
	Nodes      []int     `json:"nodes,omitempty"`
	Loads      []float64 `json:"loads,omitempty"`
	FaultMults []float64 `json:"fault_mults,omitempty"`
	Plan       FaultPlan `json:"-"`
	Seed       uint64    `json:"seed"`
	// CapacityTxS is each machine's calibrated closed-loop capacity, one
	// per node point (set only with Loads).
	CapacityTxS []float64      `json:"capacity_tx_s,omitempty"`
	Cells       []CampaignCell `json:"cells"`
}

// RunCampaign runs every cell of c. With Loads it first calibrates each
// machine's closed-loop capacity, all machines in one batch; the cells
// then run as a second batch. Both run concurrently (SetParallelism),
// yet the result is a pure function of c: the same campaign reproduces
// identical cells, byte for byte, at any worker count. A load point
// whose calibrated rate falls outside the arrival domain
// (ArrivalSpec.Validate) is an error naming the cell, returned before
// any cell runs.
func RunCampaign(c Campaign) (CampaignResult, error) {
	name := string(c.Work.Kind)
	if name == "" {
		name = string(core.OLTP)
	}
	scale := c.Scale
	if scale == (Scale{}) {
		scale = QuickScale
		if len(c.Nodes) > 0 {
			scale = DefaultPerNodeScale
		}
	}
	type machine struct {
		label string
		sys   SystemConfig
		warm  uint64
		tx    uint64
	}
	machines := []machine{{name, c.Sys, scale.Warm, scale.Measure}}
	if len(c.Nodes) > 0 {
		machines = machines[:0]
		for _, n := range c.Nodes {
			machines = append(machines, machine{fmt.Sprintf("%s@%dn", name, n),
				scaledOut(c.Sys, n), scale.Warm * uint64(n), scale.Measure * uint64(n)})
		}
	}

	// Closed-loop calibration: with every server process always ready,
	// throughput is the machine's capacity.
	var cal []Result
	res := CampaignResult{Name: name, Nodes: c.Nodes, Loads: c.Loads,
		FaultMults: c.FaultMults, Plan: c.Plan, Seed: c.Seed}
	if len(c.Loads) > 0 {
		closed := c.Work
		closed.Arrivals = Arrivals{}
		exps := make([]Experiment, len(machines))
		for i, m := range machines {
			exps[i] = Experiment{Name: m.label + "/calibrate", Sys: m.sys, Work: closed,
				WarmTx: m.warm, MeasureTx: m.tx, Seed: c.Seed}
		}
		cal = RunBatch(exps)
		for _, r := range cal {
			res.CapacityTxS = append(res.CapacityTxS, 1e9/r.TimePerTx) // ns/tx → tx/s
		}
	}

	nf, nl := max(1, len(c.FaultMults)), max(1, len(c.Loads))
	var exps []Experiment
	for fi := 0; fi < nf; fi++ {
		plan, suffix := c.Plan, ""
		if len(c.FaultMults) > 0 {
			plan, suffix = c.Plan.Scaled(c.FaultMults[fi]), fmt.Sprintf("/f%gx", c.FaultMults[fi])
		}
		for mi, m := range machines {
			for li := 0; li < nl; li++ {
				e := Experiment{Name: m.label, Sys: m.sys, Work: c.Work, WarmTx: m.warm,
					MeasureTx: m.tx, Seed: c.Seed, Faults: plan, SLOBudget: c.SLOBudget,
					Intervals: sim.Time(c.Intervals.Nanoseconds()) * sim.Nanosecond}
				if len(c.Loads) > 0 {
					e.Name = fmt.Sprintf("%s@%gx", m.label, c.Loads[li])
					e.Work.Arrivals.Rate = c.Loads[li] * res.CapacityTxS[mi]
				}
				e.Name += suffix
				if e.Work.Arrivals.Enabled() {
					e.SLOTarget = sim.Time(c.SLOTarget.Nanoseconds()) * sim.Nanosecond
					if e.SLOTarget <= 0 && cal != nil {
						concurrency := float64(cal[mi].CPUs * core.ProcsPerCPU(e.Work))
						e.SLOTarget = sim.Time(2*concurrency*cal[mi].TimePerTx) * sim.Nanosecond
					}
				}
				attachFailover(&e)
				exps = append(exps, e)
			}
		}
	}

	for _, e := range exps {
		if e.Work.Arrivals.Enabled() {
			if err := e.Work.Arrivals.Validate(); err != nil {
				return res, fmt.Errorf("campaign cell %s: %w", e.Name, err)
			}
		}
	}

	res.Cells = make([]CampaignCell, len(exps))
	for i, r := range RunBatch(exps) {
		cell := CampaignCell{
			Nodes:      exps[i].Sys.Chips,
			OfferedTxS: exps[i].Work.Arrivals.Rate,
			NsPerTx:    r.TimePerTx,
			Result:     r,
		}
		if len(c.Loads) > 0 {
			cell.Load = c.Loads[i%nl]
		}
		if len(c.FaultMults) > 0 {
			cell.FaultMult = c.FaultMults[i/(nl*len(machines))]
		}
		if r.TimePerTx > 0 {
			cell.AchievedTxS = 1e9 / r.TimePerTx
		}
		if r.Lat != nil {
			ns := float64(sim.Nanosecond)
			cell.P50Ns = float64(r.Lat.Quantile(0.50)) / ns
			cell.P90Ns = float64(r.Lat.Quantile(0.90)) / ns
			cell.P99Ns = float64(r.Lat.Quantile(0.99)) / ns
			cell.P999Ns = float64(r.Lat.Quantile(0.999)) / ns
		}
		if a := r.Admission; a != nil {
			if r.Elapsed > 0 {
				cell.MeanDepth = float64(a.DepthIntegral) / float64(r.Elapsed)
			}
			if a.Arrivals > 0 {
				cell.ShedRate = float64(a.Shed) / float64(a.Arrivals)
			}
		}
		if r.SLO != nil {
			cell.SLOViolationRate = r.SLO.ViolationRate()
		}
		if r.Recovery != nil {
			cell.MTTRNs = float64(r.Recovery.MTTRTotal) / float64(sim.Nanosecond)
		}
		if i == 0 {
			cell.RelTput, cell.Efficiency = 1, 1
		} else if base := res.Cells[0]; base.AchievedTxS > 0 {
			cell.RelTput = cell.AchievedTxS / base.AchievedTxS
			cell.Efficiency = cell.RelTput * float64(base.Nodes) / float64(cell.Nodes)
		}
		res.Cells[i] = cell
	}
	if len(c.Loads) > 0 {
		for row := 0; row < len(res.Cells); row += nl {
			markSaturation(res.Cells[row : row+nl])
		}
	}
	return res, nil
}

// markSaturation marks the knee of one load row's hockey stick: the
// first point whose achieved throughput falls short of offered by more
// than 5% while work backs up (a standing queue of at least one
// transaction on average, or sheds), or, for a row queue-bound enough
// to keep up on throughput, the first whose p99 exceeds 5× the lightest
// point's. A short run below capacity can trail its offered rate by
// more than 5% on arrival noise alone, but its queue stays empty.
func markSaturation(row []CampaignCell) {
	for i := range row {
		backedUp := row[i].MeanDepth >= 1 || row[i].ShedRate > 0
		if backedUp && row[i].AchievedTxS < 0.95*row[i].OfferedTxS {
			row[i].Saturated = true
			return
		}
	}
	if len(row) > 1 && row[0].P99Ns > 0 {
		for i := range row {
			if row[i].P99Ns > 5*row[0].P99Ns {
				row[i].Saturated = true
				return
			}
		}
	}
}

// String renders any campaign as one table: a row per cell, a '*' on
// the first saturated point of each load row, and sparklines of
// relative throughput and (for open-loop cells) p99 over the cells.
func (c CampaignResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %s: seed %d", c.Name, c.Seed)
	if len(c.FaultMults) > 0 {
		p := c.Plan
		fmt.Fprintf(&b, ", plan ber=%g loss=%g memflip=%g(double=%g) stall=%g mirrored=%v failstop=%d",
			p.LinkBER, p.MsgLoss, p.MemFlip, p.MemDoubleFrac, p.StallProb, p.Mirrored, len(p.FailStop))
	}
	b.WriteString("\n")
	for i, capTxS := range c.CapacityTxS {
		cell := c.Cells[i*len(c.Loads)]
		fmt.Fprintf(&b, "  %d-node machine: closed-loop capacity %.0f tx/s", cell.Nodes, capTxS)
		if slo := cell.Result.SLO; slo != nil {
			fmt.Fprintf(&b, ", SLO target %.0f ns", Nanoseconds(slo.Target))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  %-6s %-6s %-6s %-10s %-10s %-9s %-9s %-9s %-9s %-9s %-7s %-6s %-7s %-9s %-8s %s\n",
		"faults", "nodes", "load", "offered/s", "achieved/s", "ns/tx", "p50(ns)", "p90(ns)",
		"p99(ns)", "p999(ns)", "depth", "shed", "sloviol", "mttr(ns)", "rel-tput", "eff")
	tput := make([]float64, len(c.Cells))
	var p99s []float64
	for i, cell := range c.Cells {
		fault, load, mark := "-", "-", " "
		if len(c.FaultMults) > 0 {
			fault = fmt.Sprintf("x%g", cell.FaultMult)
		}
		if len(c.Loads) > 0 {
			load = fmt.Sprintf("%g", cell.Load)
		}
		if cell.Saturated {
			mark = "*"
		}
		fmt.Fprintf(&b, " %s%-6s %-6d %-6s %-10.0f %-10.0f %-9.0f %-9.0f %-9.0f %-9.0f %-9.0f %-7.2f %-6.3f %-7.3f %-9.0f %-8.3f %.2f\n",
			mark, fault, cell.Nodes, load, cell.OfferedTxS, cell.AchievedTxS, cell.NsPerTx,
			cell.P50Ns, cell.P90Ns, cell.P99Ns, cell.P999Ns, cell.MeanDepth, cell.ShedRate,
			cell.SLOViolationRate, cell.MTTRNs, cell.RelTput, cell.Efficiency)
		tput[i] = cell.RelTput
		if cell.Result.Lat != nil {
			p99s = append(p99s, cell.P99Ns)
		}
	}
	fmt.Fprintf(&b, "  rel-tput over cells |%s|", stats.Sparkline(tput))
	if len(p99s) > 0 {
		fmt.Fprintf(&b, "  p99 over cells |%s|", stats.Sparkline(p99s))
	}
	return b.String()
}
