package piranha

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// chaosPlan composes message-level faults with one fail-stop node death
// early in the measured window.
func chaosPlan() FaultPlan {
	p := testPlan()
	p.FailStop = []NodeFailure{{Node: 1, At: 10 * 1000 * 1000}} // 10 us in ps
	return p
}

func chaosCfg() Campaign {
	return Campaign{
		Sys:        MultiChip(2, 2),
		Work:       Workload{Kind: OLTP().Kind, Arrivals: Arrivals{Capacity: 256, RetryBudget: 2}},
		Loads:      []float64{0.5, 1.1},
		FaultMults: []float64{0, 1},
		Plan:       chaosPlan(),
		Scale:      faultScale,
		Seed:       9,
		Intervals:  20 * time.Microsecond,
	}
}

func TestChaosSweepComposed(t *testing.T) {
	c := mustCampaign(t, chaosCfg())
	if len(c.Cells) != 4 {
		t.Fatalf("grid size %d, want 4", len(c.Cells))
	}
	for li := range c.Loads {
		base, faulted := c.Cells[li], c.Cells[len(c.Loads)+li]
		if base.FaultMult != 0 || faulted.FaultMult != 1 {
			t.Fatalf("cells not fault-major: %v then %v", base.FaultMult, faulted.FaultMult)
		}
		if base.MTTRNs != 0 || base.Result.Faults != nil {
			t.Fatalf("fault x0 column not fault-free: %+v", base)
		}
		if faulted.MTTRNs <= 0 {
			t.Fatalf("fail-stop cell has no MTTR: %+v", faulted)
		}
		rec := faulted.Result.Recovery
		if rec == nil || rec.CapacityFrac != 0.5 {
			t.Fatalf("fail-stop cell missing degraded capacity: %+v", rec)
		}
		// The RAS takeover: the mirror adopts the dead node's homes and
		// the kernel moves its processes to the survivors.
		if len(rec.Events) != 1 || rec.Events[0].HomesAdopted <= 0 || rec.Events[0].Migrated <= 0 {
			t.Fatalf("fail-stop cell recovered without a takeover: %+v", rec.Events)
		}
	}
	for _, cell := range c.Cells {
		if cell.Result.SLO == nil {
			t.Fatalf("cell %g/%g missing SLO accounting", cell.Load, cell.FaultMult)
		}
		if cell.Result.SLO.Target <= 0 {
			t.Fatalf("cell %g/%g: SLO target not auto-derived", cell.Load, cell.FaultMult)
		}
		if cell.AchievedTxS <= 0 {
			t.Fatalf("cell %g/%g achieved nothing", cell.Load, cell.FaultMult)
		}
	}
}

// TestChaosSweepDeterministic reruns the composed campaign and compares
// the full JSON surface byte for byte.
func TestChaosSweepDeterministic(t *testing.T) {
	a, err := json.Marshal(mustCampaign(t, chaosCfg()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mustCampaign(t, chaosCfg()))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("chaos campaign rerun diverged")
	}
}

// TestFailStopMirrorServesDeadHomeReads: once node 1 of three dies, its
// RAS mirror adopts the dead home's directory entries and serves the
// survivors' reads of those lines, each counted in MirrorReads; a rerun
// gives the same Result.
func TestFailStopMirrorServesDeadHomeReads(t *testing.T) {
	run := func() Result {
		return Run(MultiChip(3, 2), OLTP(), WithSeed(7), WithScale(Scale{Warm: 50, Measure: 200}),
			WithFaults(FaultPlan{FailStop: []NodeFailure{{Node: 1, At: 5 * 1000 * 1000}}})) // 5 us in ps
	}
	a := run()
	fs := a.Faults
	if fs == nil || fs.NodesFailed != 1 {
		t.Fatalf("fail-stop plan killed no node: %+v", fs)
	}
	if fs.HomesAdopted == 0 || fs.MirrorReads == 0 {
		t.Fatalf("mirror adopted %d homes and served %d reads, want both > 0", fs.HomesAdopted, fs.MirrorReads)
	}
	if b := run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("rerun diverged:\n a %+v\n b %+v", a, b)
	}
}

// TestServeChaosIndependentOfGOMAXPROCS runs a scaled-down serve-chaos
// shape (2×P4, an open-loop 3:1 OLTP:DSS mix, link bit errors, message
// loss and one fail-stop) at GOMAXPROCS 1 and 2 and requires the same
// Result JSON. Each link channel draws its wire errors ahead on a helper
// goroutine, so the run must not depend on when that goroutine runs.
func TestServeChaosIndependentOfGOMAXPROCS(t *testing.T) {
	mix := []TenantShare{{Kind: "oltp", Weight: 3}, {Kind: "dss", Weight: 1}}
	run := func() []byte {
		r := Run(MultiChip(2, 4),
			Workload{Kind: OLTP().Kind, Arrivals: Arrivals{Rate: 3.4e4, Capacity: 256, RetryBudget: 2, Mix: mix}},
			WithSeed(3), WithScale(Scale{Warm: 60, Measure: 240}),
			WithIntervals(50*time.Microsecond), WithSLO(2*time.Millisecond, 0.1),
			WithFaults(FaultPlan{
				LinkBER: 2e-6, MsgLoss: 2e-3,
				FailStop: []NodeFailure{{Node: 1, At: 3 * Millisecond}},
			}))
		if r.Faults == nil || r.Faults.LinkWordErrors == 0 || r.Faults.MessagesLost == 0 {
			t.Fatalf("no link word errors or message losses: %+v", r.Faults)
		}
		if r.Recovery == nil || len(r.Recovery.Events) != 1 {
			t.Fatalf("want one fail-stop recovery, got %+v", r.Recovery)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(2)
	if two := run(); !bytes.Equal(one, two) {
		t.Fatalf("Result JSON differs between GOMAXPROCS 1 and 2:\n%s\n%s", one, two)
	}
}
