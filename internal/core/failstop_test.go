package core

import (
	"encoding/json"
	"testing"

	"piranha/internal/fault"
	"piranha/internal/sim"
	"piranha/internal/workload"
)

// failStopExp is a 2-chip open-loop experiment that kills node 1 early
// in the measured window, with retry and SLO accounting on.
func failStopExp() Experiment {
	return Experiment{
		Name: "failstop",
		Sys:  SystemConfig{Chips: 2, Chip: PiranhaChip(2)},
		Work: WorkloadSpec{Kind: OLTP, Arrivals: workload.ArrivalSpec{
			Rate: 2.5e5, Capacity: 64,
			RetryBudget: 3, RetryBackoff: 2 * sim.Microsecond,
		}},
		WarmTx:    20,
		MeasureTx: 60,
		Seed:      7,
		Intervals: 20 * sim.Microsecond,
		SLOTarget: 200 * sim.Microsecond,
		Faults: fault.Plan{
			FailStop: []fault.NodeFailure{{Node: 1, At: 10 * sim.Microsecond}},
		},
	}
}

func TestFailStopRecoversAndDegrades(t *testing.T) {
	r := Run(failStopExp())
	if r.Recovery == nil || len(r.Recovery.Events) != 1 {
		t.Fatalf("expected one recovery event, got %+v", r.Recovery)
	}
	ev := r.Recovery.Events[0]
	if ev.Node != 1 {
		t.Fatalf("wrong node recovered: %+v", ev)
	}
	if ev.Detect <= ev.Onset || ev.Restored < ev.Detect || ev.MTTR() <= 0 {
		t.Fatalf("recovery timeline out of order: %+v", ev)
	}
	if r.Recovery.CapacityFrac != 0.5 {
		t.Fatalf("capacity frac = %v, want 0.5 (2 of 4 CPUs dead)", r.Recovery.CapacityFrac)
	}
	if ev.Migrated == 0 {
		t.Fatalf("no processes migrated off the dead node: %+v", ev)
	}
	if r.Faults == nil || r.Faults.NodesFailed != 1 {
		t.Fatalf("fault counters missed the node death: %+v", r.Faults)
	}
	if r.SLO == nil || r.SLO.Completed == 0 {
		t.Fatalf("SLO accounting missing: %+v", r.SLO)
	}
	if r.Admission == nil || r.Admission.Completed == 0 {
		t.Fatal("degraded run completed nothing")
	}
}

// TestFailStopByteIdentity is the determinism contract under failure:
// a same-seed rerun emits byte-identical JSON.
func TestFailStopByteIdentity(t *testing.T) {
	run := func() string {
		b, err := json.Marshal(Run(failStopExp()))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if first, rerun := run(), run(); rerun != first {
		t.Fatalf("fail-stop rerun diverged:\n%s\n%s", first, rerun)
	}
}

// TestFailStopClosedLoop kills a node under the classic closed-loop
// workload: processes migrate and the run still completes its target.
func TestFailStopClosedLoop(t *testing.T) {
	e := failStopExp()
	e.Work.Arrivals = workload.ArrivalSpec{}
	e.SLOTarget = 0
	r := Run(e)
	if r.Recovery == nil || len(r.Recovery.Events) != 1 {
		t.Fatalf("closed-loop fail-stop missing recovery event: %+v", r.Recovery)
	}
	if r.Tx != e.MeasureTx {
		t.Fatalf("run did not complete its transaction target: %+v", r)
	}
}

// TestFailStopPlanFieldsAloneAreInert is the byte-identity guard: a plan
// that sets only fail-stop *tuning* fields (detect latency, re-dispatch
// penalty) but kills no node stays disabled, and an arrivals-enabled run
// with it is byte-exact against the arrivals-only run.
func TestFailStopPlanFieldsAloneAreInert(t *testing.T) {
	base := failStopExp()
	base.Faults = fault.Plan{}
	a, _ := json.Marshal(Run(base))
	tuned := failStopExp()
	tuned.Faults = fault.Plan{
		DetectLatency:     3 * sim.Microsecond,
		RedispatchPenalty: 9 * sim.Microsecond,
	}
	if tuned.Faults.Enabled() {
		t.Fatal("tuning-only plan reports enabled")
	}
	b, _ := json.Marshal(Run(tuned))
	if string(a) != string(b) {
		t.Fatalf("tuning-only fail-stop plan perturbed the run:\n%s\n%s", a, b)
	}
}

// TestFailStopRequiresMultiChip checks the plan validator rejects
// killing the only node.
func TestFailStopRequiresMultiChip(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("single-chip fail-stop did not panic")
		}
	}()
	e := failStopExp()
	e.Sys = SystemConfig{Chips: 1, Chip: PiranhaChip(4)}
	Run(e)
}
