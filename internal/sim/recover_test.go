package sim

import (
	"strings"
	"testing"
)

// TestPoolLateReleaseAfterRecoverIsNoOp pins the RecoverStale fix: a
// release closure firing after the sweep already reclaimed (and another
// reservation reused) its server must not clobber the new occupant.
func TestPoolLateReleaseAfterRecoverIsNoOp(t *testing.T) {
	p := NewPool("tsrf", 1)

	// Reservation A at t=100 is abandoned (its reply was lost).
	startA, releaseA := p.Reserve(100)
	if startA != 100 {
		t.Fatalf("start A = %d, want 100", startA)
	}

	// The sweep at t=5000 reclaims it (timeout 1000).
	if n := p.RecoverStale(5000, 1000); n != 1 {
		t.Fatalf("RecoverStale = %d, want 1", n)
	}
	if p.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", p.Recovered)
	}
	if got := p.InUse(5000); got != 0 {
		t.Fatalf("InUse after recover = %d, want 0", got)
	}

	// Reservation B reuses the server.
	startB, releaseB := p.Reserve(5000)
	if startB != 5000 {
		t.Fatalf("start B = %d, want 5000", startB)
	}
	busyBefore := p.BusyTime

	// A's release arrives late (the transaction's code path finally
	// unwound). It must be a no-op: B still holds the server.
	releaseA(6000)
	if p.BusyTime != busyBefore {
		t.Errorf("late release changed BusyTime: %d -> %d", busyBefore, p.BusyTime)
	}
	if got := p.InUse(7000); got != 1 {
		t.Errorf("late release freed B's server: InUse = %d, want 1", got)
	}

	// B's own release still works.
	releaseB(8000)
	if got := p.InUse(9000); got != 0 {
		t.Errorf("B's release ignored: InUse = %d, want 0", got)
	}
	if p.BusyTime != busyBefore+3000 {
		t.Errorf("BusyTime = %d, want %d", p.BusyTime, busyBefore+3000)
	}
}

// TestPoolRecoverStaleRespectsTimeout: a young open reservation and a
// closed (Acquire-style) busy server are both left alone.
func TestPoolRecoverStaleRespectsTimeout(t *testing.T) {
	p := NewPool("tsrf", 2)
	_, release := p.Reserve(0)
	p.Acquire(0, 10_000) // closed-end occupancy, not an open reservation

	if n := p.RecoverStale(500, 1000); n != 0 {
		t.Fatalf("RecoverStale reclaimed a young reservation: %d", n)
	}
	// Exactly at the timeout boundary the entry is not yet stale
	// (strictly-greater comparison).
	if n := p.RecoverStale(1000, 1000); n != 0 {
		t.Fatalf("RecoverStale reclaimed at age == timeout: %d", n)
	}
	if n := p.RecoverStale(1001, 1000); n != 1 {
		t.Fatalf("RecoverStale past timeout = %d, want 1", n)
	}
	release(2000) // late release of the reclaimed entry: must be inert
	if got := p.InUse(5000); got != 1 {
		t.Errorf("InUse = %d, want 1 (the Acquire occupancy)", got)
	}
}

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
// releasing allocate nothing, and a Hold outlived by RecoverStale is
// refused by the same generation check the Reserve closure relies on.
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

	q := NewPool("tsrf", 1)
	stale := q.Hold(100)
	q.RecoverStale(10_000, 1_000)
	fresh := q.Hold(10_000)
	q.Release(stale, 20_000)
	if got := q.InUse(30_000); got != 1 {
		t.Fatalf("stale Release freed the new holder: InUse = %d, want 1", got)
	}
	q.Release(fresh, 40_000)
	if got := q.InUse(40_000); got != 0 {
		t.Fatalf("InUse after the holder's Release = %d, want 0", got)
	}
}
