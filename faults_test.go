package piranha

import (
	"testing"
	"time"
)

// faultScale keeps the fault tests fast; the campaigns only need enough
// transactions for every fault class to fire.
var faultScale = Scale{Warm: 20, Measure: 60}

// testPlan is an aggressive campaign: every class fires within a short
// run, and recovery sweeps are frequent so lost transactions heal fast.
func testPlan() FaultPlan {
	return FaultPlan{
		LinkBER:       2e-5,
		MsgLoss:       0.05,
		MemFlip:       1e-3,
		MemDoubleFrac: 0.2,
		StallProb:     1e-5,
		Mirrored:      true,
		SweepPeriod:   10 * 1000 * 1000, // 10 us in ps
		Timeout:       4 * 1000 * 1000,  // 4 us in ps
	}
}

// TestZeroRatePlanIdentical: a zero-rate fault plan must be inert — the
// Result (counters, elapsed time, everything) is identical to a run that
// never heard of fault injection.
func TestZeroRatePlanIdentical(t *testing.T) {
	base := Run(P2(), OLTP(), WithSeed(11), WithScale(faultScale))
	faulted := Run(P2(), OLTP(), WithSeed(11), WithScale(faultScale), WithFaults(FaultPlan{}))
	if faulted.Faults != nil {
		t.Fatalf("zero-rate plan produced a Faults block: %+v", *faulted.Faults)
	}
	if base != faulted {
		t.Errorf("zero-rate plan perturbed the run:\n base   %+v\n faults %+v", base, faulted)
	}

	multi := Run(MultiChip(2, 2), OLTP(), WithSeed(11), WithScale(faultScale))
	multiF := Run(MultiChip(2, 2), OLTP(), WithSeed(11), WithScale(faultScale), WithFaults(FaultPlan{}))
	if multi != multiF {
		t.Errorf("zero-rate plan perturbed the multi-chip run:\n base   %+v\n faults %+v", multi, multiF)
	}
}

// TestFaultCampaignDeterministic: a fixed seed and nonzero rates must
// reproduce identical fault counters and timing across reruns.
func TestFaultCampaignDeterministic(t *testing.T) {
	run := func() Result {
		return Run(MultiChip(2, 2), OLTP(), WithSeed(5), WithScale(faultScale),
			WithFaults(testPlan()))
	}
	a, b := run(), run()
	if a.Faults == nil || b.Faults == nil {
		t.Fatal("campaign produced no Faults block")
	}
	if *a.Faults != *b.Faults {
		t.Errorf("fault counters diverged across reruns:\n a %+v\n b %+v", *a.Faults, *b.Faults)
	}
	if a.Elapsed != b.Elapsed || a.Tx != b.Tx {
		t.Errorf("timing diverged across reruns: %d/%d vs %d/%d", a.Elapsed, a.Tx, b.Elapsed, b.Tx)
	}
	if a.Faults.Injected == 0 {
		t.Errorf("aggressive plan injected nothing: %+v", *a.Faults)
	}
}

// TestLostRepliesRecovered: a message lost on the inter-chip fabric holds
// its TSRF entry until the recovery sweep tick past the timeout, and the
// transaction retries from there: the run completes (watchdog silent) and
// the counters show the healing.
func TestLostRepliesRecovered(t *testing.T) {
	res := Run(MultiChip(2, 2), OLTP(), WithSeed(5), WithScale(faultScale),
		WithIntervals(10*time.Microsecond),
		WithFaults(testPlan()))
	fs := res.Faults
	if fs == nil {
		t.Fatal("no Faults block")
	}
	if fs.MessagesLost == 0 {
		t.Fatalf("no messages lost at 5%% loss: %+v", *fs)
	}
	if fs.Recovered == 0 || fs.RecoveryLatency == 0 {
		t.Errorf("losses never recovered: %+v", *fs)
	}
	if fs.SweepReclaims != fs.MessagesLost || fs.Recovered != fs.MessagesLost {
		t.Errorf("%d losses, %d recovered, %d reclaimed; want every loss reclaimed once: %+v",
			fs.MessagesLost, fs.Recovered, fs.SweepReclaims, *fs)
	}
	// The recovery-latency series rides the interval sampler.
	recoveries := uint64(0)
	for _, b := range res.Series.Bins {
		recoveries += b.Recoveries
	}
	if recoveries != fs.Recovered {
		t.Errorf("series recoveries %d != counter %d", recoveries, fs.Recovered)
	}
}

// TestUncorrectableEscalatesToMirror: with a mirrored plan, double-bit
// memory errors fail over to the mirror (ras.Failover) instead of
// counting unrecoverable.
func TestUncorrectableEscalatesToMirror(t *testing.T) {
	plan := FaultPlan{MemFlip: 5e-3, MemDoubleFrac: 1, Mirrored: true}
	res := Run(P2(), OLTP(), WithSeed(5), WithScale(faultScale), WithFaults(plan))
	fs := res.Faults
	if fs == nil || fs.MemFlips == 0 {
		t.Fatalf("no memory faults injected: %+v", fs)
	}
	if fs.MemFailovers == 0 || fs.MemUnrecoverable != 0 {
		t.Errorf("mirrored plan: failovers=%d unrecoverable=%d, want all failovers: %+v",
			fs.MemFailovers, fs.MemUnrecoverable, *fs)
	}

	// Unmirrored, the same errors count unrecoverable.
	plan.Mirrored = false
	res = Run(P2(), OLTP(), WithSeed(5), WithScale(faultScale), WithFaults(plan))
	if res.Faults.MemUnrecoverable == 0 || res.Faults.MemFailovers != 0 {
		t.Errorf("unmirrored plan: failovers=%d unrecoverable=%d, want all unrecoverable",
			res.Faults.MemFailovers, res.Faults.MemUnrecoverable)
	}
}
