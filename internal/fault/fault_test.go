package fault

import (
	"testing"

	"piranha/internal/cache"
	"piranha/internal/sim"
)

// drive exercises every injector hook in a fixed pattern and returns the
// folded stats.
func drive(j *Injector) Stats {
	for i := 0; i < 500; i++ {
		j.HopRetransmits(uint64(i%4), 16+64*(i%2))
		j.LinkDelay(uint64(i%4), 80)
		j.StallDelay(uint64(i % 4))
		if j.LoseMessage() {
			start := sim.Time(i) * sim.Microsecond
			j.NoteRecovery(start, j.RecoverTime(start))
		}
		j.MemRead(sim.Time(i)*sim.Microsecond, cache.Addr(0x1000*64))
	}
	return j.Collect()
}

// TestInjectorDeterministic: the same plan and seed replay the identical
// fault schedule and counters, and those counters are pinned to values
// captured from the bit-serial link implementation. Comparing two runs
// of the same code alone would pass a change that reorders random draws
// the same way in both runs; the pin fixes the schedule itself.
func TestInjectorDeterministic(t *testing.T) {
	plan := Plan{LinkBER: 1e-3, MsgLoss: 0.02, MemFlip: 0.05, MemDoubleFrac: 0.3, StallProb: 0.01, Mirrored: true}
	a := drive(New(plan, 7))
	b := drive(New(plan, 7))
	if a != b {
		t.Fatalf("same seed diverged:\n a=%+v\n b=%+v", a, b)
	}
	want := Stats{
		Injected: 1172, LinkWordErrors: 1134, Retransmits: 1134,
		MessagesLost: 6, Recovered: 6, SweepReclaims: 6,
		MemFlips: 28, MemCorrected: 22, MemFailovers: 6,
		Stalls: 4, RecoveryLatency: 341 * sim.Microsecond,
	}
	if a != want {
		t.Fatalf("schedule moved:\n got  %#v\n want %#v", a, want)
	}
	c := drive(New(plan, 8))
	if a == c {
		t.Fatal("different run seeds produced the identical schedule")
	}
}

// TestNilAndDisabledInjectorNoOps: the nil injector and a zero-rate plan
// both inject nothing and charge nothing.
func TestNilAndDisabledInjectorNoOps(t *testing.T) {
	var nilInj *Injector
	if nilInj.Enabled() {
		t.Error("nil injector claims enabled")
	}
	if d := nilInj.LinkDelay(0, 80) + nilInj.StallDelay(0) + nilInj.MemRead(0, 0); d != 0 {
		t.Errorf("nil injector charged %d", d)
	}
	if nilInj.LoseMessage() {
		t.Error("nil injector lost a message")
	}
	nilInj.NoteRecovery(0, 3)
	nilInj.ResetStats()
	if s := nilInj.Collect(); s != (Stats{}) {
		t.Errorf("nil injector stats = %+v", s)
	}

	off := New(Plan{}, 7)
	if off.Enabled() {
		t.Error("zero-rate plan claims enabled")
	}
	if s := drive(off); s != (Stats{}) {
		t.Errorf("disabled injector injected: %+v", s)
	}
}

// TestMemReadOutcomes: single-bit flips are always corrected (scrub
// charged); forced double flips fail over at the plan's mirror latency
// when Mirrored and count unrecoverable otherwise.
func TestMemReadOutcomes(t *testing.T) {
	// All flips, all single-bit: every read pays exactly the scrub.
	j := New(Plan{MemFlip: 1, MemDoubleFrac: 0, ScrubLatency: 80 * sim.Nanosecond}, 1)
	for i := 0; i < 200; i++ {
		if d := j.MemRead(0, cache.Addr(64*i)); d != 80*sim.Nanosecond {
			t.Fatalf("read %d: scrub = %d, want 80ns", i, d)
		}
	}
	if j.Stats.MemCorrected != 200 || j.Stats.MemUnrecoverable != 0 {
		t.Fatalf("corrected=%d fatal=%d, want 200/0", j.Stats.MemCorrected, j.Stats.MemUnrecoverable)
	}

	// All double-bit, unmirrored: counted unrecoverable, no latency.
	j = New(Plan{MemFlip: 1, MemDoubleFrac: 1}, 1)
	for i := 0; i < 50; i++ {
		if d := j.MemRead(0, cache.Addr(64*i)); d != 0 {
			t.Fatalf("unmirrored double error charged %d", d)
		}
	}
	if j.Stats.MemUnrecoverable != 50 {
		t.Fatalf("unrecoverable = %d, want 50", j.Stats.MemUnrecoverable)
	}

	// Mirrored plan: every double error fails over at the mirror cost.
	j = New(Plan{MemFlip: 1, MemDoubleFrac: 1, Mirrored: true, MirrorLatency: 120 * sim.Nanosecond}, 1)
	for i := 0; i < 50; i++ {
		if d := j.MemRead(0, cache.Addr(64*i)); d != 120*sim.Nanosecond {
			t.Fatalf("mirrored double error charged %d, want 120ns", d)
		}
	}
	if j.Stats.MemFailovers != 50 || j.Stats.MemUnrecoverable != 0 {
		t.Fatalf("failovers=%d fatal=%d, want 50/0", j.Stats.MemFailovers, j.Stats.MemUnrecoverable)
	}
}

// TestRecoverTime pins the sweep-alignment formula: a lost
// transaction's entry is reclaimed at a multiple of SweepPeriod whose
// age strictly exceeds Timeout, and at no earlier tick.
func TestRecoverTime(t *testing.T) {
	const period, timeout = 50 * sim.Microsecond, 20 * sim.Microsecond
	j := New(Plan{MsgLoss: 1, SweepPeriod: period, Timeout: timeout}, 1)
	cases := []struct{ start, want sim.Time }{
		{0, 50 * sim.Microsecond},
		{29*sim.Microsecond + 1, 50 * sim.Microsecond},
		{30 * sim.Microsecond, 100 * sim.Microsecond}, // age at t=50us is exactly 20us: not yet stale
		{80 * sim.Microsecond, 150 * sim.Microsecond},
	}
	for _, c := range cases {
		got := j.RecoverTime(c.start)
		if got != c.want {
			t.Errorf("RecoverTime(%d) = %d, want %d", c.start, got, c.want)
		}
		if got%period != 0 {
			t.Errorf("start %d: %d is not a sweep tick", c.start, got)
		}
		if got-c.start <= timeout {
			t.Errorf("start %d: reclaimed at %d, age %d not past the timeout", c.start, got, got-c.start)
		}
		if prev := got - period; prev-c.start > timeout {
			t.Errorf("start %d: the tick at %d was already past the timeout", c.start, prev)
		}
	}
}

// TestScaledAndEnabled: grid scaling multiplies rates, saturates at 1,
// and a x0 plan is disabled.
func TestScaledAndEnabled(t *testing.T) {
	base := Plan{LinkBER: 1e-5, MsgLoss: 0.4, MemFlip: 1e-4, StallProb: 0, Mirrored: true}
	s := base.Scaled(4)
	if s.LinkBER != 4e-5 || s.MsgLoss != 1 || s.MemFlip != 4e-4 {
		t.Errorf("Scaled(4) = %+v", s)
	}
	if !s.Mirrored {
		t.Error("Scaled dropped Mirrored")
	}
	if z := base.Scaled(0); z.Enabled() {
		t.Errorf("x0 plan still enabled: %+v", z)
	}
	if (Plan{}).Enabled() {
		t.Error("zero plan enabled")
	}
}

// TestResetStatsClearsChannels: warm-phase link corruption must not leak
// into measured counters — ResetStats zeroes the per-source channels too.
func TestResetStatsClearsChannels(t *testing.T) {
	j := New(Plan{LinkBER: 5e-3}, 3)
	for i := 0; i < 200; i++ {
		j.HopRetransmits(uint64(i%2), 80)
	}
	warm := j.Collect()
	if warm.LinkWordErrors == 0 {
		t.Fatal("no warm-phase corruption at BER 5e-3; test needs a hotter plan")
	}
	j.ResetStats()
	if s := j.Collect(); s != (Stats{}) {
		t.Fatalf("counters survived ResetStats: %+v", s)
	}
	// The channels keep injecting afterwards (RNG position preserved).
	for i := 0; i < 200; i++ {
		j.HopRetransmits(uint64(i%2), 80)
	}
	if s := j.Collect(); s.LinkWordErrors == 0 {
		t.Fatal("channels dead after ResetStats")
	}
}
