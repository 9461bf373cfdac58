package sim

import "fmt"

// Watchdog detects a wedged simulation: a run whose event queue keeps
// ticking but whose progress counter has frozen — the failure mode a
// lost protocol message would cause if timeout recovery did not heal it.
// It schedules itself on the engine at a fixed interval and compares a
// caller-supplied progress counter across intervals; after maxIdle
// consecutive intervals with no movement it calls fail with a diagnostic
// instead of letting the run spin forever.
//
// The watchdog's self-rescheduling keeps the queue non-empty, which is
// exactly what makes the wedge observable: a run with nothing left but
// watchdog ticks executes them, time advances, and the frozen counter
// trips the alarm. Because each tick consumes an engine sequence number,
// attach a watchdog only to runs whose perturbation is acceptable (fault
// campaigns); fault-free runs must not carry one or their event
// tie-breaking — and thus byte-identity with the golden output — shifts.
type Watchdog struct {
	eng      *Engine
	interval Time
	maxIdle  int
	progress func() uint64
	fail     func(msg string)

	last    uint64
	primed  bool
	idle    int
	stopped bool
	grace   Time    // strikes forgiven through this time (declared recovery)
	pending EventID // the armed tick, cancelled by Stop
	diag    func() string
}

// Defer declares a recovery window: intervals overlapping it are
// forgiven instead of counted as strikes. A fail-stop reconstruction
// sweep legitimately pre-books the surviving home engines for its whole
// duration — a service blackout, not a wedge — and must not trip the
// alarm. The tick cadence is unchanged (the watchdog consumes the same
// engine sequence numbers), so byte-identity is unaffected.
func (w *Watchdog) Defer(until Time) {
	if w == nil {
		return
	}
	if until > w.grace {
		w.grace = until
	}
}

// SetDiagnostic attaches an extra diagnostic source appended to the
// failure message — a fault campaign passes its injector's counters here
// so a wedged run fails loudly with what was injected, recovered and
// still pending instead of hanging anonymously.
func (w *Watchdog) SetDiagnostic(diag func() string) { w.diag = diag }

// NewWatchdog arms a watchdog on e. progress must be monotone while the
// run is healthy (a transaction counter is ideal). fail receives the
// diagnostic when the run wedges; nil means panic, which is the right
// default — a wedged simulation has no valid results to salvage.
func NewWatchdog(e *Engine, interval Time, maxIdle int, progress func() uint64, fail func(msg string)) *Watchdog {
	if interval <= 0 {
		interval = Millisecond
	}
	if maxIdle < 1 {
		maxIdle = 1
	}
	if fail == nil {
		fail = func(msg string) { panic(msg) }
	}
	w := &Watchdog{
		eng:      e,
		interval: interval,
		maxIdle:  maxIdle,
		progress: progress,
		fail:     fail,
	}
	w.pending = e.After(interval, w.tick)
	return w
}

// Stop disarms the watchdog and cancels its pending tick, so a stopped
// watchdog no longer keeps the event queue alive (a run that stops its
// watchdog and drains its real work leaves an empty queue, not a tail
// of dead ticks).
func (w *Watchdog) Stop() {
	w.stopped = true
	w.eng.Cancel(w.pending)
}

func (w *Watchdog) tick() {
	if w.stopped {
		return
	}
	cur := w.progress()
	if w.eng.Now()-w.interval < w.grace {
		// This interval overlaps a declared recovery window: forgive it,
		// but keep the counter current so the first fully post-recovery
		// interval is judged on its own progress alone.
		w.primed = true
		w.last = cur
		w.idle = 0
		w.pending = w.eng.After(w.interval, w.tick)
		return
	}
	if !w.primed || cur != w.last {
		w.primed = true
		w.last = cur
		w.idle = 0
	} else {
		w.idle++
		if w.idle >= w.maxIdle {
			msg := fmt.Sprintf(
				"sim: watchdog: no progress over %d intervals of %d ps (progress counter stuck at %d, now=%d ps, %d events pending, %d executed)",
				w.idle, w.interval, cur, w.eng.Now(), w.eng.Pending(), w.eng.Executed())
			if w.diag != nil {
				msg += "; " + w.diag()
			}
			w.fail(msg)
			return
		}
	}
	w.pending = w.eng.After(w.interval, w.tick)
}
