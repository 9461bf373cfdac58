package piranha

import (
	"encoding/json"
	"strings"
	"testing"

	"piranha/internal/core"
	"piranha/internal/workload"
)

// TestLoadSweepHockeyStick runs a three-point load campaign bracketing
// capacity for OLTP on P1, P4 and P8 and for DSS on P8: in each, the
// overloaded point must be marked saturated and its tail latency must
// dominate the light point's.
func TestLoadSweepHockeyStick(t *testing.T) {
	for _, c := range []struct {
		name string
		sys  SystemConfig
		work Workload
	}{
		{"p1/oltp", P1(), OLTP()},
		{"p4/oltp", P4(), OLTP()},
		{"p8/oltp", P8(), OLTP()},
		{"p8/dss", P8(), DSS()},
	} {
		s := mustCampaign(t, Campaign{Sys: c.sys, Work: c.work,
			Loads: []float64{0.3, 0.7, 1.4}, Scale: tiny, Seed: 7})
		if len(s.CapacityTxS) != 1 || s.CapacityTxS[0] <= 0 {
			t.Fatalf("%s: calibration produced capacity %v", c.name, s.CapacityTxS)
		}
		if len(s.Cells) != 3 {
			t.Fatalf("%s: cells %d", c.name, len(s.Cells))
		}
		saturated := false
		for _, cell := range s.Cells {
			saturated = saturated || cell.Saturated
		}
		if !saturated {
			t.Fatalf("%s: 1.4x capacity not detected as saturated:\n%s", c.name, s)
		}
		light, over := s.Cells[0], s.Cells[2]
		if over.P99Ns <= light.P99Ns {
			t.Fatalf("%s: p99 did not grow past capacity: %v vs %v", c.name, over.P99Ns, light.P99Ns)
		}
		if light.AchievedTxS < 0.9*light.OfferedTxS {
			t.Fatalf("%s: light point should keep up: offered %v achieved %v",
				c.name, light.OfferedTxS, light.AchievedTxS)
		}
		if light.Result.SLO == nil {
			t.Fatalf("%s: open-loop cell has no SLO accounting", c.name)
		}
		out := s.String()
		if !strings.Contains(out, "*") || !strings.Contains(out, "p99 over cells") {
			t.Fatalf("%s: render:\n%s", c.name, out)
		}
	}
}

// TestLoadSweepDeterministic is the campaign half of the determinism
// contract: the full campaign JSON is byte-identical across reruns and
// batch worker counts.
func TestLoadSweepDeterministic(t *testing.T) {
	run := func() string {
		s := mustCampaign(t, Campaign{Sys: P4(), Work: OLTP(),
			Loads: []float64{0.5, 1.1}, Scale: tiny, Seed: 7})
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	serial := run()
	SetParallelism(4)
	parallel := run()
	SetParallelism(0)
	if serial != parallel {
		t.Fatal("campaign JSON differs between serial and parallel batch execution")
	}
	if run() != serial {
		t.Fatal("campaign JSON differs between reruns")
	}
}

// TestOpenLoopOptionsWiring checks WithArrivals/WithOfferedLoad
// assemble exactly the experiment the escape hatch would run. Open-loop
// results hold pointers, so equality is via the versioned JSON.
func TestOpenLoopOptionsWiring(t *testing.T) {
	asJSON := func(r Result) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	got := Run(P4(), OLTP(), WithScale(tiny), WithSeed(9), WithOfferedLoad(2e5))
	want := RunExperiment(Experiment{
		Name:      "oltp",
		Sys:       P4(),
		Work:      core.WorkloadSpec{Kind: core.OLTP, Arrivals: workload.ArrivalSpec{Rate: 2e5}},
		WarmTx:    tiny.Warm,
		MeasureTx: tiny.Measure,
		Seed:      9,
	})
	if asJSON(got) != asJSON(want) {
		t.Fatal("WithOfferedLoad diverged from the experiment descriptor")
	}

	spec := Arrivals{Process: ArrivalMMPP, Rate: 1.5e5, Burst: 4, Capacity: 128}
	got = Run(P4(), OLTP(), WithScale(tiny), WithArrivals(spec))
	want = RunExperiment(Experiment{
		Name:      "oltp",
		Sys:       P4(),
		Work:      core.WorkloadSpec{Kind: core.OLTP, Arrivals: spec},
		WarmTx:    tiny.Warm,
		MeasureTx: tiny.Measure,
	})
	if asJSON(got) != asJSON(want) {
		t.Fatal("WithArrivals diverged from the experiment descriptor")
	}
	if got.Lat == nil || got.Admission == nil {
		t.Fatal("open-loop option produced no latency/admission blocks")
	}
}
