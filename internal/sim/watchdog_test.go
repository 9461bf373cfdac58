package sim

import (
	"strings"
	"testing"
)

// TestWatchdogFailsOnFrozenProgress: a run whose queue keeps ticking but
// whose progress counter froze must fail with a diagnostic.
func TestWatchdogFailsOnFrozenProgress(t *testing.T) {
	eng := NewEngine()
	var failMsg string
	progress := uint64(7) // never moves
	NewWatchdog(eng, 100, 3, func() uint64 { return progress }, func(msg string) { failMsg = msg })
	eng.Run()
	if failMsg == "" {
		t.Fatal("watchdog never fired on frozen progress")
	}
	for _, want := range []string{"no progress", "stuck at 7"} {
		if !strings.Contains(failMsg, want) {
			t.Errorf("diagnostic %q missing %q", failMsg, want)
		}
	}
	// First tick primes, then maxIdle idle intervals: fail at 4*interval.
	if eng.Now() != 400 {
		t.Errorf("failed at t=%d, want 400", eng.Now())
	}
}

// TestWatchdogSilentUnderProgress: while the counter moves, the watchdog
// keeps rescheduling and never fires; Stop disarms it.
func TestWatchdogSilentUnderProgress(t *testing.T) {
	eng := NewEngine()
	var progress uint64
	fired := false
	w := NewWatchdog(eng, 100, 2, func() uint64 { return progress }, func(string) { fired = true })
	// Progress bumps faster than the idle threshold.
	var bump func()
	bump = func() {
		progress++
		if eng.Now() < 2000 {
			eng.After(150, bump)
		}
	}
	eng.After(150, bump)
	eng.RunUntil(2000)
	if fired {
		t.Fatal("watchdog fired despite progress")
	}
	w.Stop()
	eng.Run()
	if fired {
		t.Fatal("watchdog fired after Stop")
	}
}

// TestWatchdogDeferForgivesRecoveryWindow: intervals overlapping a
// declared recovery window must not count as strikes — a fail-stop
// reconstruction sweep legitimately freezes progress for its whole
// duration — but the watchdog re-arms afterwards and still catches a
// counter that stays frozen once recovery is over.
func TestWatchdogDeferForgivesRecoveryWindow(t *testing.T) {
	eng := NewEngine()
	var failMsg string
	progress := uint64(7) // frozen throughout
	w := NewWatchdog(eng, 100, 3, func() uint64 { return progress }, func(msg string) { failMsg = msg })
	// Without Defer this fails at t=400; forgive through t=600.
	w.Defer(600)
	eng.Run()
	if failMsg == "" {
		t.Fatal("watchdog never fired after the recovery window closed")
	}
	// Strikes restart after the grace window: the tick at 600 is the last
	// forgiven one (its interval overlaps grace), then 3 idle strikes at
	// 700/800/900 → fail at t=900.
	if eng.Now() != 900 {
		t.Errorf("failed at t=%d, want 900", eng.Now())
	}

	// Progress resuming after the window keeps the watchdog silent.
	eng2 := NewEngine()
	fired := false
	var p2 uint64
	w2 := NewWatchdog(eng2, 100, 2, func() uint64 { return p2 }, func(string) { fired = true })
	w2.Defer(500)
	var bump func()
	bump = func() {
		p2++
		if eng2.Now() < 2000 {
			eng2.After(150, bump)
		}
	}
	eng2.After(500, bump) // blackout until 500, healthy afterwards
	eng2.RunUntil(2000)
	w2.Stop()
	if fired {
		t.Fatal("watchdog fired despite post-recovery progress")
	}

	// Nil receiver is a no-op (fault-free runs carry no watchdog).
	var wn *Watchdog
	wn.Defer(100)
}

// TestWatchdogStopTickFiresOnce: Stop only flags the watchdog. The tick
// already armed still runs, once, as a no-op: it neither judges progress
// nor re-arms, so Run drains the queue and fail is never called, even
// with a counter that would otherwise trip the alarm.
func TestWatchdogStopTickFiresOnce(t *testing.T) {
	for _, tc := range []struct {
		name     string
		runUntil Time // ticks allowed to fire before Stop
		tickAt   Time // when the armed tick fires after Stop
	}{
		{"before-first-tick", 0, 100},
		{"mid-run", 250, 300}, // the armed tick is the failing one
	} {
		eng := NewEngine()
		fired := false
		// A frozen counter with maxIdle 2 would fail at the t=300 tick.
		w := NewWatchdog(eng, 100, 2, func() uint64 { return 0 }, func(string) { fired = true })
		eng.RunUntil(tc.runUntil)
		if eng.Pending() != 1 {
			t.Fatalf("%s: pending = %d before Stop, want the one armed tick", tc.name, eng.Pending())
		}
		w.Stop()
		if eng.Pending() != 1 {
			t.Fatalf("%s: pending = %d after Stop, want the armed tick still queued", tc.name, eng.Pending())
		}
		ran := eng.Executed()
		eng.Run()
		if got := eng.Executed() - ran; got != 1 {
			t.Errorf("%s: %d events ran after Stop, want the armed tick once", tc.name, got)
		}
		if eng.Pending() != 0 || eng.Now() != tc.tickAt {
			t.Errorf("%s: pending = %d at t=%d after Run, want 0 at t=%d", tc.name, eng.Pending(), eng.Now(), tc.tickAt)
		}
		if fired {
			t.Errorf("%s: watchdog failed after Stop", tc.name)
		}
	}
}

// TestPoolHoldIsAllocationFree: a Hold is a value, so holding and
// releasing allocate nothing.
func TestPoolHoldIsAllocationFree(t *testing.T) {
	p := NewPool("tsrf", 4)
	now := Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now += 10
		h := p.Hold(now)
		p.Release(h, h.Start()+35)
	})
	if allocs != 0 {
		t.Fatalf("Hold/Release allocate %.1f objects", allocs)
	}
}
