package workload

import (
	"math"
	"testing"

	"piranha/internal/sim"
)

func drawN(t *testing.T, spec ArrivalSpec, seed uint64, n int) ([]sim.Time, []int) {
	t.Helper()
	g := NewArrivalGen(spec, sim.NewRNG(seed))
	times := make([]sim.Time, n)
	tenants := make([]int, n)
	for i := 0; i < n; i++ {
		times[i], tenants[i] = g.Next()
	}
	return times, tenants
}

func TestArrivalMonotoneAndDeterministic(t *testing.T) {
	for _, proc := range []string{ArrivalPoisson, ArrivalMMPP, ArrivalDiurnal} {
		spec := ArrivalSpec{Process: proc, Rate: 2e5}
		a, _ := drawN(t, spec, 99, 2000)
		b, _ := drawN(t, spec, 99, 2000)
		prev := sim.Time(-1)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: rerun diverged at arrival %d: %d vs %d", proc, i, a[i], b[i])
			}
			if a[i] <= prev {
				t.Fatalf("%s: timestamps not strictly monotone at %d: %d after %d", proc, i, a[i], prev)
			}
			prev = a[i]
		}
	}
}

// TestArrivalMeanRate checks each process realizes its configured mean
// rate over a long horizon.
func TestArrivalMeanRate(t *testing.T) {
	const rate = 2e5 // tx/s → mean gap 5 µs
	for _, proc := range []string{ArrivalPoisson, ArrivalMMPP, ArrivalDiurnal} {
		spec := ArrivalSpec{Process: proc, Rate: rate}
		const n = 50000
		times, _ := drawN(t, spec, 7, n)
		elapsed := float64(times[n-1]) / float64(sim.Second)
		got := float64(n) / elapsed
		if math.Abs(got-rate)/rate > 0.05 {
			t.Errorf("%s: realized rate %.0f tx/s, want %.0f ±5%%", proc, got, rate)
		}
	}
}

// TestArrivalMMPPBurstiness checks the MMPP stream is measurably
// burstier than Poisson: the squared coefficient of variation of
// inter-arrival gaps exceeds 1 (Poisson's CV² is 1).
func TestArrivalMMPPBurstiness(t *testing.T) {
	cv2 := func(spec ArrivalSpec) float64 {
		const n = 40000
		times, _ := drawN(t, spec, 21, n)
		gaps := make([]float64, n-1)
		var mean float64
		for i := 1; i < n; i++ {
			gaps[i-1] = float64(times[i] - times[i-1])
			mean += gaps[i-1]
		}
		mean /= float64(len(gaps))
		var variance float64
		for _, g := range gaps {
			variance += (g - mean) * (g - mean)
		}
		variance /= float64(len(gaps))
		return variance / (mean * mean)
	}
	poisson := cv2(ArrivalSpec{Process: ArrivalPoisson, Rate: 2e5})
	mmpp := cv2(ArrivalSpec{Process: ArrivalMMPP, Rate: 2e5, Burst: 16, OnFrac: 0.1})
	if poisson < 0.9 || poisson > 1.1 {
		t.Errorf("poisson CV² = %.2f, want ~1", poisson)
	}
	if mmpp < poisson*1.5 {
		t.Errorf("mmpp CV² = %.2f not burstier than poisson %.2f", mmpp, poisson)
	}
}

// TestArrivalDiurnalShape checks the diurnal stream concentrates
// arrivals in the high-rate half of the cycle.
func TestArrivalDiurnalShape(t *testing.T) {
	spec := ArrivalSpec{Process: ArrivalDiurnal, Rate: 2e5, Depth: 0.9, Period: 500 * sim.Microsecond}
	times, _ := drawN(t, spec, 5, 40000)
	var peak, trough int
	for _, at := range times {
		// sin > 0 on the first half-period (peak), < 0 on the second.
		if at%spec.Period < spec.Period/2 {
			peak++
		} else {
			trough++
		}
	}
	if peak <= trough*2 {
		t.Errorf("diurnal arrivals not concentrated: peak-half %d vs trough-half %d", peak, trough)
	}
}

func TestArrivalMixWeights(t *testing.T) {
	spec := ArrivalSpec{Rate: 2e5, Mix: []TenantShare{{Kind: "oltp", Weight: 3}, {Kind: "dss", Weight: 1}}}
	_, tenants := drawN(t, spec, 3, 20000)
	counts := map[int]int{}
	for _, tn := range tenants {
		counts[tn]++
	}
	frac := float64(counts[0]) / 20000
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("tenant 0 got %.3f of arrivals, want 0.75", frac)
	}
	if counts[0]+counts[1] != 20000 {
		t.Errorf("unexpected tenant indices: %v", counts)
	}
}

func TestArrivalSpecEnabled(t *testing.T) {
	if (ArrivalSpec{}).Enabled() {
		t.Error("zero spec must be disabled")
	}
	if !(ArrivalSpec{Rate: 1}).Enabled() {
		t.Error("positive rate must enable")
	}
}

func TestParseArrivals(t *testing.T) {
	a, err := ParseArrivals("mmpp,rate=1.5e5,burst=8,onfrac=0.2,period=100us,cap=256")
	if err != nil {
		t.Fatal(err)
	}
	want := ArrivalSpec{Process: ArrivalMMPP, Rate: 1.5e5, Burst: 8, OnFrac: 0.2,
		Period: 100 * sim.Microsecond, Capacity: 256}
	if a.Process != want.Process || a.Rate != want.Rate || a.Burst != want.Burst ||
		a.OnFrac != want.OnFrac || a.Period != want.Period || a.Capacity != want.Capacity {
		t.Errorf("got %+v, want %+v", a, want)
	}

	a, err = ParseArrivals("poisson,rate=2e5,mix=oltp:3/dss:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Mix) != 2 || a.Mix[0] != (TenantShare{"oltp", 3}) || a.Mix[1] != (TenantShare{"dss", 1}) {
		t.Errorf("mix = %+v", a.Mix)
	}

	// The second group once ran away (rate=+Inf, depth=NaN), panicked
	// (burst=NaN) or ran an unknown tenant as OLTP (mix=bogus); the rest
	// lie outside their parameter's domain.
	for _, bad := range []string{"", "poisson", "rate=0", "poisson,rate=2e5,bogus=1",
		"warp,rate=1e5", "poisson,rate=1e5,cap=-1", "poisson,rate=1e5,mix=oltp:0",
		"poisson,rate=+Inf", "diurnal,rate=2e5,depth=NaN", "mmpp,rate=1.5e5,burst=NaN",
		"poisson,rate=2e5,mix=bogus:1",
		"poisson,rate=NaN", "poisson,rate=0.5", "diurnal,rate=2e5,depth=1",
		"mmpp,rate=1.5e5,burst=1", "mmpp,rate=1.5e5,onfrac=1", "mmpp,rate=10,period=1us",
		"poisson,rate=2e5,period=2s", "poisson,rate=2e5,period=-1us",
		"poisson,rate=2e5,mix=oltp:1/", "poisson,rate=2e5,mix=oltp:2000000",
		"poisson,rate=2e5,cap=8,retry=30", "poisson,rate=2e5,cap=8,retry=2,factor=-1"} {
		if _, err := ParseArrivals(bad); err == nil {
			t.Errorf("ParseArrivals(%q) accepted", bad)
		}
	}
}

// FuzzParseArrivals: every spec the grammar accepts yields a stream
// whose first 10,000 arrivals have strictly increasing timestamps (no
// NaN-derived or overflowed time, no event in the past) and tenant
// indices inside the mix. The seed corpus covers every key, plus the
// inputs that once hung or crashed a run.
func FuzzParseArrivals(f *testing.F) {
	for _, s := range []string{
		"poisson,rate=2e5,cap=4096",
		"mmpp,rate=1.5e5,burst=8,onfrac=0.2,period=100us",
		"diurnal,rate=2e5,depth=0.8,period=500us",
		"poisson,rate=2e5,mix=oltp:3/dss:1/tpcc:1/web:2",
		"poisson,rate=2e5,cap=64,retry=3,backoff=2us,factor=2",
		"mmpp,rate=1,period=1s,burst=1000,onfrac=0.99",
		"rate=+Inf",
		"diurnal,rate=2e5,depth=NaN",
		"mmpp,rate=1.5e5,burst=NaN",
		"poisson,rate=2e5,mix=bogus:1",
		"mmpp,rate=1,period=1ns",
		"poisson,rate=2e5,cap=8,retry=100",
		"poisson,rate=2e5,period=1e300ms",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseArrivals(s)
		if err != nil {
			return
		}
		g := NewArrivalGen(a, sim.NewRNG(1))
		var prev sim.Time
		for i := 0; i < 10000; i++ {
			at, tenant := g.Next()
			if at <= prev {
				t.Fatalf("%q: arrival %d at %d ps, not after %d", s, i, at, prev)
			}
			if tenant < 0 || tenant >= a.Tenants() {
				t.Fatalf("%q: arrival %d has tenant %d of %d", s, i, tenant, a.Tenants())
			}
			prev = at
		}
	})
}
