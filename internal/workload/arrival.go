package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"piranha/internal/sim"
)

// Arrival process names accepted by ArrivalSpec.Process.
const (
	ArrivalPoisson = "poisson" // memoryless stream at the mean rate
	ArrivalMMPP    = "mmpp"    // two-state Markov-modulated on/off bursts
	ArrivalDiurnal = "diurnal" // sinusoidal load shape around the mean
)

// TenantShare is one entry of a multi-tenant arrival mix: a workload
// kind ("oltp", "dss", "web", "tpcc") and its integer weight in the
// arrival stream.
type TenantShare struct {
	Kind   string `json:"kind"`
	Weight int    `json:"weight"`
}

// ArrivalSpec describes an open-loop arrival stream. The zero value
// (Rate == 0) means closed-loop: the classic fixed-processes-per-CPU
// mode where every server process always has a next transaction. A
// positive Rate switches the run to open-loop — transactions arrive on
// a deterministic seeded stochastic process and wait in the kernel's
// admission queue for a server process — the same enable-by-value
// pattern as fault.Plan.
type ArrivalSpec struct {
	// Process selects the arrival process; empty means ArrivalPoisson.
	Process string
	// Rate is the mean offered load in transactions per second of
	// simulated time. Zero disables open-loop arrivals entirely.
	Rate float64
	// Burst is the MMPP on-state rate multiplier (default 8): during a
	// burst the instantaneous rate is Burst× the off-state rate, scaled
	// so the long-run mean stays Rate.
	Burst float64
	// OnFrac is the MMPP fraction of time spent in the on (burst) state
	// (default 0.2).
	OnFrac float64
	// Period is the modulation timescale: the MMPP mean on+off cycle
	// (default 100 µs) or the diurnal cycle length (default 500 µs).
	Period sim.Time
	// Depth is the diurnal amplitude in [0, 1): instantaneous rate
	// swings between Rate·(1−Depth) and Rate·(1+Depth) (default 0.8).
	Depth float64
	// Capacity bounds the admission queue; arrivals beyond it are shed
	// (counted, never executed). Zero means unbounded.
	Capacity int
	// RetryBudget, when positive on a bounded queue, re-offers a rejected
	// arrival up to that many times with deterministic exponential backoff
	// before shedding it for good. Zero keeps the immediate-shed policy.
	RetryBudget int
	// RetryBackoff is the delay before the first re-offer (default 1 µs).
	RetryBackoff sim.Time
	// RetryFactor multiplies the backoff per attempt (default 2).
	RetryFactor int
	// Mix is the multi-tenant composition of the stream. Empty means a
	// single tenant running the experiment's own workload kind. A
	// non-empty mix assigns each arrival a tenant drawn by weight, and
	// the system hosts one server-process pool per tenant.
	Mix []TenantShare
}

// Enabled reports whether the spec describes an open-loop run.
func (a ArrivalSpec) Enabled() bool { return a.Rate > 0 }

// withDefaults fills unset shape parameters.
func (a ArrivalSpec) withDefaults() ArrivalSpec {
	if a.Process == "" {
		a.Process = ArrivalPoisson
	}
	if a.Burst <= 1 {
		a.Burst = 8
	}
	if a.OnFrac <= 0 || a.OnFrac >= 1 {
		a.OnFrac = 0.2
	}
	if a.Period <= 0 {
		if a.Process == ArrivalDiurnal {
			a.Period = 500 * sim.Microsecond
		} else {
			a.Period = 100 * sim.Microsecond
		}
	}
	if a.Depth <= 0 || a.Depth >= 1 {
		a.Depth = 0.8
	}
	return a
}

// Validate rejects specs the generator cannot realize.
func (a ArrivalSpec) Validate() error {
	if !a.Enabled() {
		return nil
	}
	switch a.Process {
	case "", ArrivalPoisson, ArrivalMMPP, ArrivalDiurnal:
	default:
		return fmt.Errorf("workload: unknown arrival process %q", a.Process)
	}
	if a.Capacity < 0 {
		return fmt.Errorf("workload: negative admission capacity %d", a.Capacity)
	}
	if a.RetryBudget < 0 {
		return fmt.Errorf("workload: negative retry budget %d", a.RetryBudget)
	}
	if a.RetryBudget > 0 && a.Capacity == 0 {
		return fmt.Errorf("workload: retry budget %d needs a bounded queue (cap > 0)", a.RetryBudget)
	}
	for _, t := range a.Mix {
		if t.Weight <= 0 {
			return fmt.Errorf("workload: tenant %q has non-positive weight %d", t.Kind, t.Weight)
		}
	}
	return nil
}

// Tenants returns the number of tenant pools the spec implies (≥ 1).
func (a ArrivalSpec) Tenants() int {
	if len(a.Mix) == 0 {
		return 1
	}
	return len(a.Mix)
}

// ArrivalGen produces the arrival timestamps of one open-loop run. It
// owns a split sim.RNG stream, so the sequence is a pure function of
// (spec, seed): byte-identical across reruns and independent of how the
// rest of the simulation consumes randomness.
type ArrivalGen struct {
	spec ArrivalSpec
	rng  *sim.RNG

	last sim.Time // previous arrival timestamp

	// MMPP modulation state.
	on       bool
	stateEnd sim.Time

	// Tenant weight table (cumulative) for the weighted draw.
	cumW   []int
	totalW int
}

// NewArrivalGen builds a generator. rng must be a dedicated split
// stream; the generator consumes it exclusively.
func NewArrivalGen(spec ArrivalSpec, rng *sim.RNG) *ArrivalGen {
	g := &ArrivalGen{spec: spec.withDefaults(), rng: rng}
	for _, t := range spec.Mix {
		g.totalW += t.Weight
		g.cumW = append(g.cumW, g.totalW)
	}
	return g
}

// perPs converts a rate in tx/s of simulated time to tx/ps.
func perPs(rate float64) float64 { return rate / 1e12 }

// expStep draws an exponential inter-arrival step for the given rate,
// clamped to at least 1 ps so timestamps are strictly monotone.
func (g *ArrivalGen) expStep(lambdaPerPs float64) sim.Time {
	u := g.rng.Float64()
	d := -math.Log(1-u) / lambdaPerPs
	if d < 1 {
		return 1
	}
	if d > 1e15 { // 1000 s of simulated time: effectively "never"
		d = 1e15
	}
	return sim.Time(d)
}

// Next returns the next arrival's absolute timestamp (strictly greater
// than the previous one) and its tenant index.
func (g *ArrivalGen) Next() (at sim.Time, tenant int) {
	switch g.spec.Process {
	case ArrivalMMPP:
		at = g.nextMMPP()
	case ArrivalDiurnal:
		at = g.nextDiurnal()
	default:
		at = g.last + g.expStep(perPs(g.spec.Rate))
	}
	g.last = at
	if g.totalW > 0 {
		w := g.rng.Intn(g.totalW)
		for i, c := range g.cumW {
			if w < c {
				tenant = i
				break
			}
		}
	}
	return at, tenant
}

// nextMMPP samples from a two-state on/off modulated Poisson process.
// Off- and on-state rates are scaled so the long-run mean equals Rate:
// λ_off·(1−OnFrac) + Burst·λ_off·OnFrac = Rate. Dwell times are
// exponential with means OnFrac·Period and (1−OnFrac)·Period. Because
// the conditional arrival process is memoryless, resampling the
// inter-arrival gap at each state crossing is exact.
func (g *ArrivalGen) nextMMPP() sim.Time {
	s := g.spec
	lambdaOff := perPs(s.Rate / ((1 - s.OnFrac) + s.OnFrac*s.Burst))
	lambdaOn := s.Burst * lambdaOff
	meanOn := float64(s.Period) * s.OnFrac
	meanOff := float64(s.Period) * (1 - s.OnFrac)

	t := g.last
	for {
		lam := lambdaOff
		if g.on {
			lam = lambdaOn
		}
		cand := t + g.expStep(lam)
		if cand <= g.stateEnd {
			return cand
		}
		// Cross into the next modulation state and resample from there.
		t = g.stateEnd
		g.on = !g.on
		mean := meanOff
		if g.on {
			mean = meanOn
		}
		dwell := -math.Log(1-g.rng.Float64()) * mean
		if dwell < 1 {
			dwell = 1
		}
		g.stateEnd += sim.Time(dwell)
	}
}

// nextDiurnal samples from a sinusoidally-modulated Poisson process by
// Lewis-Shedler thinning against the peak rate λmax = Rate·(1+Depth).
func (g *ArrivalGen) nextDiurnal() sim.Time {
	s := g.spec
	lambdaMax := perPs(s.Rate * (1 + s.Depth))
	t := g.last
	for {
		t += g.expStep(lambdaMax)
		phase := 2 * math.Pi * float64(t%s.Period) / float64(s.Period)
		lam := perPs(s.Rate * (1 + s.Depth*math.Sin(phase)))
		if g.rng.Float64()*lambdaMax <= lam {
			return t
		}
	}
}

// ParseArrivals parses cmd/piranha's -arrivals spec grammar:
//
//	poisson,rate=2e5,cap=4096
//	mmpp,rate=1.5e5,burst=8,onfrac=0.2,period=100us
//	diurnal,rate=2e5,depth=0.8,period=500us
//	poisson,rate=2e5,mix=oltp:3/dss:1
//	poisson,rate=2e5,cap=64,retry=3,backoff=2us,factor=2
//
// The first comma-separated token may name the process; every other
// token is key=value. Durations accept ns/us/ms suffixes.
func ParseArrivals(s string) (ArrivalSpec, error) {
	var a ArrivalSpec
	for i, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if i == 0 && !strings.Contains(tok, "=") {
			a.Process = tok
			continue
		}
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return a, fmt.Errorf("arrivals: token %q is not key=value", tok)
		}
		var err error
		switch k {
		case "rate":
			a.Rate, err = strconv.ParseFloat(v, 64)
		case "burst":
			a.Burst, err = strconv.ParseFloat(v, 64)
		case "onfrac":
			a.OnFrac, err = strconv.ParseFloat(v, 64)
		case "depth":
			a.Depth, err = strconv.ParseFloat(v, 64)
		case "period":
			a.Period, err = parseDuration(v)
		case "cap":
			a.Capacity, err = strconv.Atoi(v)
		case "retry":
			a.RetryBudget, err = strconv.Atoi(v)
		case "backoff":
			a.RetryBackoff, err = parseDuration(v)
		case "factor":
			a.RetryFactor, err = strconv.Atoi(v)
		case "mix":
			a.Mix, err = parseMix(v)
		default:
			return a, fmt.Errorf("arrivals: unknown key %q", k)
		}
		if err != nil {
			return a, fmt.Errorf("arrivals: bad %s: %v", k, err)
		}
	}
	if err := a.Validate(); err != nil {
		return a, err
	}
	if !a.Enabled() {
		return a, fmt.Errorf("arrivals: rate must be positive (got %v)", a.Rate)
	}
	return a, nil
}

// parseMix parses "oltp:3/dss:1" tenant lists.
func parseMix(v string) ([]TenantShare, error) {
	var mix []TenantShare
	for _, part := range strings.Split(v, "/") {
		kind, w, ok := strings.Cut(part, ":")
		weight := 1
		if ok {
			n, err := strconv.Atoi(w)
			if err != nil {
				return nil, fmt.Errorf("weight %q: %v", w, err)
			}
			weight = n
		}
		mix = append(mix, TenantShare{Kind: kind, Weight: weight})
	}
	return mix, nil
}

// parseDuration parses simulated durations with ns/us/ms/s suffixes.
func parseDuration(v string) (sim.Time, error) {
	mult := sim.Time(1)
	switch {
	case strings.HasSuffix(v, "ns"):
		mult, v = sim.Nanosecond, strings.TrimSuffix(v, "ns")
	case strings.HasSuffix(v, "us"):
		mult, v = sim.Microsecond, strings.TrimSuffix(v, "us")
	case strings.HasSuffix(v, "ms"):
		mult, v = sim.Millisecond, strings.TrimSuffix(v, "ms")
	case strings.HasSuffix(v, "s"):
		mult, v = sim.Second, strings.TrimSuffix(v, "s")
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	return sim.Time(f * float64(mult)), nil
}
