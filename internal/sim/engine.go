// Package sim provides the deterministic discrete-event simulation kernel
// used by every timing model in the Piranha simulator.
//
// Time is measured in integer picoseconds so that the 500 MHz ASIC core
// (2000 ps/cycle), the 1 GHz out-of-order core (1000 ps/cycle), and the
// 1.25 GHz full-custom core (800 ps/cycle) all have exact periods. The
// engine executes events from a 4-ary min-heap of value-typed entries
// ordered by (time, sequence number); ties are broken by insertion order,
// which makes every simulation run bit-for-bit reproducible. Each entry
// carries its callback, and the heap's backing array is reused, so
// steady-state Schedule/Step cycles perform no heap allocation. Events
// cannot be cancelled: a model that must ignore a wake-up checks its own
// state (a generation count or a stopped flag) when the callback runs.
package sim

// Time is a simulated instant or duration in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// entry is one heap element: the ordering key plus the callback. Keeping
// entries value-typed (24 bytes) means heap maintenance moves small values
// instead of chasing per-event pointers.
type entry struct {
	at  Time
	seq uint64
	do  func()
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	now  Time
	seq  uint64
	heap []entry // 4-ary min-heap ordered by (at, seq)
	nRun uint64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.nRun }

// Pending returns the number of scheduled, not-yet-executed events.
func (e *Engine) Pending() int { return len(e.heap) }

// Schedule runs do at absolute time at. Scheduling in the past panics: it
// always indicates a model bug, and silently reordering time would
// corrupt every downstream statistic.
//
//piranha:hotpath
func (e *Engine) Schedule(at Time, do func()) {
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.siftUp(entry{at: at, seq: e.seq, do: do})
}

// After runs do d picoseconds from now.
//
//piranha:hotpath
func (e *Engine) After(d Time, do func()) { e.Schedule(e.now+d, do) }

// Step executes the next event, if any, and reports whether one ran.
//
//piranha:hotpath
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	top := e.heap[0]
	e.popRoot()
	e.now = top.at
	e.nRun++
	top.do()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued; the clock is left at the last executed
// event (or advanced to deadline if nothing remains before it).
func (e *Engine) RunUntil(deadline Time) {
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunWhile executes events until cond() becomes false or the queue drains.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// less is the (time, seq) total order shared by sift-up and sift-down.
func less(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp appends ent and restores the heap by walking the parent chain,
// shifting displaced parents down rather than swapping pairwise.
//
//piranha:hotpath
func (e *Engine) siftUp(ent entry) {
	e.heap = append(e.heap, ent)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(ent, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
}

// popRoot removes the minimum entry and restores the heap by sifting the
// last element down. A 4-ary layout does ~half the levels of a binary
// heap, trading slightly more comparisons per level for far fewer moves —
// a net win at the queue depths the timing models sustain.
//
//piranha:hotpath
func (e *Engine) popRoot() {
	h := e.heap
	n := len(h) - 1
	ent := h[n]
	h[n] = entry{} // drop the vacated slot's callback for the collector
	h = h[:n]
	e.heap = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(h[j], h[m]) {
				m = j
			}
		}
		if !less(h[m], ent) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ent
}
