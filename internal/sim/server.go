package sim

// Server models a shared hardware unit (an L2 bank controller, a memory
// channel, the ICS datapaths) under the kernel's coarse-grained CPU
// interleaving. CPUs simulate in bounded-skew batches, so their requests
// reach shared resources slightly out of time order; a strict FIFO
// next-free model (Resource) would convert that harmless skew into large
// spurious queueing delays. Server instead derives the queueing delay
// from the unit's measured utilization over a decaying window — the
// standard approximation wait = service * rho/(1-rho), scaled down for
// multi-server units — which is insensitive to request ordering while
// still producing back-pressure as the unit approaches saturation.
type Server struct {
	// K is the number of identical servers (1 = a single controller).
	K int

	epochStart Time
	epochBusy  Time
	lastNow    Time

	Requests uint64
	BusyTime Time
	WaitTime Time
}

// serverWindow is the span over which a Server averages its utilization.
const serverWindow = 20 * Microsecond

// NewServer returns a unit with k servers.
func NewServer(k int) *Server {
	if k < 1 {
		k = 1
	}
	return &Server{K: k}
}

// Acquire charges one request of the given service time arriving at now
// and returns its completion time.
func (s *Server) Acquire(now Time, service Time) Time {
	if service < 0 {
		service = 0
	}
	if now > s.lastNow {
		s.lastNow = now
	}
	span := s.lastNow - s.epochStart
	if span > serverWindow {
		// Decay: halve the accumulated busy time over half the window.
		s.epochStart = s.lastNow - serverWindow/2
		s.epochBusy /= 2
		span = serverWindow / 2
	}
	var wait Time
	if span > 0 {
		rho := float64(s.epochBusy) / float64(span*Time(s.K))
		if rho > 0.95 {
			rho = 0.95
		}
		if rho > 0 {
			// M/D/1-flavored delay, reduced for multi-server pools
			// (a request only queues when all K servers are busy).
			w := float64(service) * rho / (2 * (1 - rho))
			for i := 1; i < s.K; i++ {
				w *= rho
			}
			wait = Time(w)
		}
	}
	s.Requests++
	s.BusyTime += service
	s.WaitTime += wait
	s.epochBusy += service
	return now + wait + service
}

// Utilization returns busy time over the elapsed span (cumulative).
func (s *Server) Utilization(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(s.BusyTime) / float64(elapsed*Time(s.K))
}

// AvgWait returns the mean queueing delay per request in picoseconds.
func (s *Server) AvgWait() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.WaitTime) / float64(s.Requests)
}
