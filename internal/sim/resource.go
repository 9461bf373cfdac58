package sim

// Pool models a unit with k identical servers (e.g. the 16 TSRF entries of
// a protocol engine, or the MSHRs of an out-of-order core). Requests are
// served FIFO by the earliest-free server.
type Pool struct {
	Name string
	free []Time // next-free time per server
	// heldSince records when an open-ended Hold claimed each server
	// (zero when the server is not under an open hold).
	heldSince []Time
	// gen counts hold epochs per server. A Hold carries the generation
	// it was issued under, so a Release arriving after RecoverStale
	// already reclaimed (and possibly re-held) the server is a no-op
	// instead of clobbering the new occupant.
	gen []uint32

	Requests uint64
	WaitTime Time
	MaxWait  Time
	BusyTime Time

	// Recovered counts holds force-released by RecoverStale.
	Recovered uint64
}

// Hold is an open-ended claim on one server of a Pool: the server index,
// the generation it was issued under, and the time service began. It is
// a plain value, so holding and releasing allocate nothing.
type Hold struct {
	start  Time
	server int32
	gen    uint32
}

// Start returns the time the held server began serving.
func (h Hold) Start() Time { return h.start }

// NewPool returns a Pool with k servers, all free at time zero.
func NewPool(name string, k int) *Pool {
	if k < 1 {
		k = 1
	}
	return &Pool{
		Name:      name,
		free:      make([]Time, k),
		heldSince: make([]Time, k),
		gen:       make([]uint32, k),
	}
}

// Size returns the number of servers.
func (p *Pool) Size() int { return len(p.free) }

// claim picks the earliest-free server for a request arriving at now,
// counts the request and its queueing delay, and returns the server and
// the time its service starts.
//
//piranha:hotpath
func (p *Pool) claim(now Time) (server int, start Time) {
	for i := 1; i < len(p.free); i++ {
		if p.free[i] < p.free[server] {
			server = i
		}
	}
	start = now
	if p.free[server] > start {
		start = p.free[server]
	}
	wait := start - now
	p.Requests++
	p.WaitTime += wait
	if wait > p.MaxWait {
		p.MaxWait = wait
	}
	return server, start
}

// Acquire allocates the earliest-available server for duration s starting
// no earlier than now and returns the completion time.
func (p *Pool) Acquire(now Time, s Time) (done Time) {
	i, start := p.claim(now)
	p.BusyTime += s
	p.free[i] = start + s
	return p.free[i]
}

// Hold claims the earliest-available server starting no earlier than now
// for a holding whose length depends on downstream events (e.g. a TSRF
// entry held for a whole coherence transaction). The caller ends it with
// Release once the end time is known, or abandons it to RecoverStale.
//
//piranha:hotpath
func (p *Pool) Hold(now Time) Hold {
	i, start := p.claim(now)
	// Mark the server busy indefinitely until released.
	p.free[i] = start + reservedMark // placeholder; Release overwrites
	p.heldSince[i] = start + 1       // +1 so a t=0 hold is visible
	return Hold{start: start, server: int32(i), gen: p.gen[i]}
}

// Release ends a hold at end (clamped to its start). It is a no-op when
// RecoverStale already reclaimed the server.
//
//piranha:hotpath
func (p *Pool) Release(h Hold, end Time) {
	i := h.server
	if p.gen[i] != h.gen {
		return // RecoverStale already reclaimed this hold
	}
	if end < h.start {
		end = h.start
	}
	p.BusyTime += end - h.start
	p.free[i] = end
	p.heldSince[i] = 0
	p.gen[i]++
}

// Reserve is Hold with the release bound into a function value.
func (p *Pool) Reserve(now Time) (start Time, release func(end Time)) {
	h := p.Hold(now)
	return h.start, func(end Time) { p.Release(h, end) }
}

// reservedMark flags a server under an open-ended hold. It is far beyond
// any plausible simulated horizon (~1.1 s) so a held server is not
// misclassified as free, yet small enough that retry loops which back
// off past it (the baseline NAK protocol under a saturated TSRF) still
// terminate. Stale-release safety does not depend on its magnitude: the
// per-server generation counters make a release that arrives after
// RecoverStale reclaimed the entry a no-op.
const reservedMark Time = 1 << 40

// RecoverStale force-releases open holds older than timeout — the
// protocol engines' error recovery: a transaction whose response never
// arrived is detected by its TSRF timer and its entry reclaimed (its
// state would be encapsulated for recovery software). Returns how many
// entries were recovered.
func (p *Pool) RecoverStale(now, timeout Time) int {
	n := 0
	for i, h := range p.heldSince {
		if h != 0 && now-(h-1) > timeout {
			p.BusyTime += now - (h - 1)
			p.free[i] = now
			p.heldSince[i] = 0
			p.gen[i]++ // invalidate the outstanding Hold
			p.Recovered++
			n++
		}
	}
	return n
}

// InUse reports how many servers are busy at time t.
func (p *Pool) InUse(t Time) int {
	n := 0
	for _, f := range p.free {
		if f > t {
			n++
		}
	}
	return n
}
