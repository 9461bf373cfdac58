package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"piranha"
	"piranha/internal/core"
	"piranha/internal/fault"
	"piranha/internal/kernel"
	"piranha/internal/mcheck"
	"piranha/internal/protocol"
	"piranha/internal/ras"
	"piranha/internal/sim"
	"piranha/internal/workload"
)

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	// nominalRunS is the host time of one measured run on the reference
	// host (2-CPU x86-64, Go 1.24). It fixes how many runs an invocation
	// makes for a given --seconds, so both sides of a comparison do the
	// same amount of work however fast the code under test is.
	nominalRunS float64
	// setupReps is how many times set-up is repeated to take its median.
	setupReps int
	// exp returns the simulation experiment (nil for mcheck-4n).
	exp func(seed uint64) core.Experiment
	// setup builds the machine and workload from their public
	// constructors; it is the work setup_s times.
	setup func(seed uint64) error
	// verify, when set, checks workload-specific output of a run.
	verify func(core.Result) error
	// nodes is the model checker's system size (mcheck-4n only).
	nodes int
}

// Scale of each workload. The counts are fixed so the simulated work of
// a run depends only on the seed.
const (
	oltpWarmTx, oltpMeasureTx = 1000, 2000

	scaleNodes                  = 64
	scaleWarmPerNode, scalePerN = 1, 4

	serveWarmTx, serveMeasureTx = 300, 1200
	// serveRate is the fixed offered load in transactions per simulated
	// second, about 0.4x the closed-loop capacity of the 2xP4 machine on
	// the 3:1 mix, so the half machine left after the failure keeps up.
	serveRate = 3.4e4
	// serveFailAt kills node 1 about a third of the way into the
	// measured phase (1200 tx at serveRate last about 35 ms).
	serveFailAt = 12 * sim.Millisecond
	// serveSLO is about 2.5x the median latency before the failure.
	serveSLO = 2 * sim.Millisecond

	mcheckNodes = 4
)

var workloads = []workloadDef{
	{
		name:        "oltp-p8",
		nominalRunS: 2.15,
		setupReps:   15,
		exp: func(seed uint64) core.Experiment {
			return core.Experiment{
				Name: "oltp-p8", Sys: piranha.P8(), Work: piranha.OLTP(),
				WarmTx: oltpWarmTx, MeasureTx: oltpMeasureTx, Seed: seed,
			}
		},
	},
	{
		name:        "scaleout-oltp",
		nominalRunS: 2.1,
		setupReps:   5,
		exp: func(seed uint64) core.Experiment {
			return core.Experiment{
				Name: "scaleout-oltp", Sys: piranha.ScaleOut(scaleNodes, 1), Work: piranha.OLTP(),
				WarmTx: scaleWarmPerNode * scaleNodes, MeasureTx: scalePerN * scaleNodes, Seed: seed,
			}
		},
	},
	{
		name:        "serve-chaos",
		nominalRunS: 2.5,
		setupReps:   15,
		exp:         serveChaosExp,
		verify:      verifyServeChaos,
	},
	{
		name: "mcheck-4n",
		// One check takes about 5.8 s; five runs per 20 s keep the
		// lower quartile steady at the cost of a longer invocation.
		nominalRunS: 4.0,
		nodes:       mcheckNodes,
		setupReps:   15,
		setup: func(uint64) error {
			// The table lookup is nanoseconds; time a batch so the
			// median repeats.
			for i := 0; i < setupLookupBatch; i++ {
				if _, ok := protocol.Lookup("piranha"); !ok {
					return fmt.Errorf("protocol %q is not registered", "piranha")
				}
			}
			return nil
		},
	},
}

func init() {
	for i := range workloads {
		if w := &workloads[i]; w.exp != nil {
			w.setup = func(seed uint64) error { return setupSystem(w.exp(seed)) }
		}
	}
}

// setupLookupBatch is the number of lookups one mcheck-4n set-up times.
const setupLookupBatch = 10000

func lookupWorkload(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// serveChaosTenants is the 3:1 OLTP:DSS tenant mix of serve-chaos.
var serveChaosTenants = []workload.TenantShare{{Kind: "oltp", Weight: 3}, {Kind: "dss", Weight: 1}}

// serveChaosArrivals is serve-chaos's open-loop arrival stream: Poisson
// at a fixed absolute rate, a bounded admission queue, and two retries.
func serveChaosArrivals() workload.ArrivalSpec {
	return workload.ArrivalSpec{
		Rate: serveRate, Capacity: 256, RetryBudget: 2, Mix: serveChaosTenants,
	}
}

// serveChaosPlan injects link bit errors and message loss at rates that
// fire tens of times per run, plus one fail-stop death of node 1.
func serveChaosPlan() fault.Plan {
	return fault.Plan{
		LinkBER:  2e-6,
		MsgLoss:  2e-3,
		FailStop: []fault.NodeFailure{{Node: 1, At: serveFailAt}},
	}
}

// verifyServeChaos checks that the fault paths ran: exactly one
// fail-stop recovery, and injected link errors and message losses.
func verifyServeChaos(r core.Result) error {
	switch {
	case r.Recovery == nil || len(r.Recovery.Events) != 1:
		return fmt.Errorf("want exactly one fail-stop recovery event")
	case r.Faults == nil || r.Faults.LinkWordErrors == 0 || r.Faults.MessagesLost == 0:
		return fmt.Errorf("no link errors or message losses were injected")
	}
	return nil
}

func serveChaosExp(seed uint64) core.Experiment {
	return core.Experiment{
		Name:      "serve-chaos",
		Sys:       piranha.MultiChip(2, 4),
		Work:      core.WorkloadSpec{Kind: core.OLTP, Arrivals: serveChaosArrivals()},
		WarmTx:    serveWarmTx,
		MeasureTx: serveMeasureTx,
		Seed:      seed,
		Intervals: 50 * sim.Microsecond,
		SLOTarget: serveSLO,
		Faults:    serveChaosPlan(),
	}
}

// withRunState gives an experiment the per-run mutable state core.Run
// needs: a private RAS failover target for the fail-stop plan.
func withRunState(e core.Experiment) core.Experiment {
	if len(e.Faults.FailStop) > 0 {
		e.FaultAdopt = ras.NewFailover(e.Faults.MirrorLatency).Takeover
	}
	return e
}

// tenantKinds lists the workload kinds an experiment runs, one per
// tenant (a closed-loop run has one).
func tenantKinds(e core.Experiment) []core.WorkloadKind {
	if len(e.Work.Arrivals.Mix) == 0 {
		return []core.WorkloadKind{e.Work.Kind}
	}
	var ks []core.WorkloadKind
	for _, t := range e.Work.Arrivals.Mix {
		ks = append(ks, core.WorkloadKind(t.Kind))
	}
	return ks
}

// buildStreams builds every tenant's workload for the machine's CPU count
// and returns one stream per server process, in tenant order.
func buildStreams(e core.Experiment, ncpu int) []kernel.Stream {
	lay := workload.DefaultLayout()
	var out []kernel.Stream
	for _, k := range tenantKinds(e) {
		switch k {
		case core.DSS:
			cfg := workload.DefaultDSS()
			w := workload.NewDSS(cfg, lay, ncpu*cfg.ProcsPerCPU)
			for id := 0; id < ncpu*cfg.ProcsPerCPU; id++ {
				out = append(out, w.Process(id))
			}
		default:
			cfg := workload.DefaultOLTP()
			w := workload.NewOLTP(cfg, lay, ncpu*cfg.ProcsPerCPU)
			for id := 0; id < ncpu*cfg.ProcsPerCPU; id++ {
				out = append(out, w.Process(id))
			}
		}
	}
	return out
}

// setupSystem is the set-up a user of the library pays before a run:
// the machine from core.NewSystemErr, then the workload and every server
// process from the workload constructors.
func setupSystem(e core.Experiment) error {
	sys, err := core.NewSystemErr(e.Sys)
	if err != nil {
		return fmt.Errorf("build %s machine: %w", e.Name, err)
	}
	if n := len(buildStreams(e, sys.TotalCPUs())); n == 0 {
		return fmt.Errorf("%s: no server processes", e.Name)
	}
	return nil
}

// digest is the SHA-256 of a value's JSON form: equal digests mean every
// simulated statistic the value reports is identical.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// checkRun runs one experiment through core.Run and checks its output.
// A panic inside the simulator is recovered and reported as an error.
func checkRun(e core.Experiment, verify func(core.Result) error) (res core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	res = core.Run(withRunState(e))
	if res.Tx != e.MeasureTx {
		return res, fmt.Errorf("measured %d transactions, want %d", res.Tx, e.MeasureTx)
	}
	if verify != nil {
		return res, verify(res)
	}
	return res, nil
}

// checkModel runs the model checker and fails unless the search was
// exhaustive and clean.
func checkModel(table *protocol.Table, nodes int) (res *mcheck.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	res = mcheck.Check(table, mcheck.Config{Nodes: nodes})
	switch {
	case !res.Exhausted:
		return res, fmt.Errorf("model check not exhausted after %d states", res.States)
	case len(res.Violations) > 0:
		v := res.Violations[0]
		return res, fmt.Errorf("model check violation %s: %s", v.Invariant, v.Detail)
	}
	return res, nil
}

// piranhaTable returns the shipped protocol table.
func piranhaTable() (*protocol.Table, error) {
	s, ok := protocol.Lookup("piranha")
	if !ok {
		return nil, fmt.Errorf("protocol %q is not registered", "piranha")
	}
	return s.Table, nil
}
