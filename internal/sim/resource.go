package sim

// Pool models a unit with k identical servers (e.g. the 16 TSRF entries of
// a protocol engine, or the MSHRs of an out-of-order core). Requests are
// served FIFO by the earliest-free server. A server under an open Hold
// reads busy until its Release.
type Pool struct {
	Name string
	free []Time // next-free time per server

	Requests uint64
	WaitTime Time
	BusyTime Time
}

// Hold is an open-ended claim on one server of a Pool: the server index
// and the time service began. It is a plain value, so holding and
// releasing allocate nothing.
type Hold struct {
	start  Time
	server int32
}

// Start returns the time the held server began serving.
func (h Hold) Start() Time { return h.start }

// NewPool returns a Pool with k servers, all free at time zero.
func NewPool(name string, k int) *Pool {
	if k < 1 {
		k = 1
	}
	return &Pool{Name: name, free: make([]Time, k)}
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
	p.Requests++
	p.WaitTime += start - now
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
// Release once the end time is known.
//
//piranha:hotpath
func (p *Pool) Hold(now Time) Hold {
	i, start := p.claim(now)
	p.free[i] = start + reservedMark // busy until Release overwrites it
	return Hold{start: start, server: int32(i)}
}

// Release ends a hold at end (clamped to its start).
//
//piranha:hotpath
func (p *Pool) Release(h Hold, end Time) {
	if end < h.start {
		end = h.start
	}
	p.BusyTime += end - h.start
	p.free[h.server] = end
}

// Reserve is Hold with the release bound into a function value.
func (p *Pool) Reserve(now Time) (start Time, release func(end Time)) {
	h := p.Hold(now)
	return h.start, func(end Time) { p.Release(h, end) }
}

// reservedMark is the next-free time of a server under an open Hold, so
// that claim and InUse read it busy until Release. It is far beyond any
// plausible simulated horizon (~1.1 s), yet small enough that retry
// loops which back off past it (the baseline NAK protocol under a
// saturated TSRF) still terminate.
const reservedMark Time = 1 << 40

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
