package sim

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 100 {
			e.After(5, chain)
		}
	}
	e.Schedule(0, chain)
	e.Run()
	if count != 100 {
		t.Fatalf("chain executed %d times, want 100", count)
	}
	if e.Now() != 99*5 {
		t.Fatalf("Now() = %d, want %d", e.Now(), 99*5)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(50, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := Time(10); i <= 100; i += 10 {
		e.Schedule(i, func() { ran++ })
	}
	e.RunUntil(50)
	if ran != 5 {
		t.Fatalf("ran %d events by t=50, want 5", ran)
	}
	if e.Pending() != 5 {
		t.Fatalf("pending %d, want 5", e.Pending())
	}
	if e.Now() != 50 {
		t.Fatalf("Now() = %d, want 50", e.Now())
	}
	e.Run()
	if ran != 10 {
		t.Fatalf("ran %d total, want 10", ran)
	}
}

func TestClock(t *testing.T) {
	c := MHz(500)
	if c.Period != 2000 {
		t.Fatalf("500MHz period = %d ps, want 2000", c.Period)
	}
	if MHz(1000).Period != 1000 {
		t.Fatalf("1GHz period wrong")
	}
	if GHzX1000(1250).Period != 800 {
		t.Fatalf("1.25GHz period = %d, want 800", GHzX1000(1250).Period)
	}
	if c.Cycles(3) != 6000 {
		t.Fatalf("Cycles(3) = %d", c.Cycles(3))
	}
	if c.ToCycles(6001) != 4 {
		t.Fatalf("ToCycles rounds up: got %d", c.ToCycles(6001))
	}
	if c.Freq() != 500 {
		t.Fatalf("Freq() = %d", c.Freq())
	}
}

func TestPoolParallelism(t *testing.T) {
	p := NewPool("tsrf", 2)
	d1 := p.Acquire(0, 10)
	d2 := p.Acquire(0, 10)
	d3 := p.Acquire(0, 10)
	if d1 != 10 || d2 != 10 {
		t.Fatalf("two servers should run in parallel: %d, %d", d1, d2)
	}
	if d3 != 20 {
		t.Fatalf("third request should queue: %d", d3)
	}
	if p.InUse(5) != 2 {
		t.Fatalf("InUse(5) = %d, want 2", p.InUse(5))
	}
	if p.InUse(25) != 0 {
		t.Fatalf("InUse(25) = %d, want 0", p.InUse(25))
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	base := NewRNG(7)
	s1 := base.Split(1)
	s2 := base.Split(2)
	if s1.Uint64() == s2.Uint64() {
		t.Fatal("split streams identical")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(9)
	z := NewZipf(1000, 0.8)
	counts := make([]int, 1000)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next(r)]++
	}
	// Rank 0 should be drawn far more than a uniform share.
	if counts[0] < draws/200 {
		t.Fatalf("hot item drawn only %d of %d times", counts[0], draws)
	}
	// Top decile should dominate.
	top := 0
	for i := 0; i < 100; i++ {
		top += counts[i]
	}
	if float64(top)/draws < 0.4 {
		t.Fatalf("top-10%% share = %v, expected heavy skew", float64(top)/draws)
	}
}

func BenchmarkEngine(b *testing.B) {
	e := NewEngine()
	var chain func()
	n := 0
	chain = func() {
		n++
		if n < b.N {
			e.After(1, chain)
		}
	}
	e.Schedule(0, chain)
	b.ResetTimer()
	e.Run()
}

func TestPoolReserveRelease(t *testing.T) {
	p := NewPool("tsrf", 2)
	s1, rel1 := p.Reserve(0)
	s2, _ := p.Reserve(0)
	if s1 != 0 || s2 != 0 {
		t.Fatalf("starts %d %d", s1, s2)
	}
	// Third reservation waits until a release.
	rel1(100)
	s3, rel3 := p.Reserve(10)
	if s3 != 100 {
		t.Fatalf("third reservation starts at %d, want 100", s3)
	}
	rel3(200)
	if p.InUse(250) != 1 {
		t.Fatalf("InUse(250) = %d, want 1 (the unreleased one)", p.InUse(250))
	}
}

// TestZipfMatchesReference replays draws against the sampler's defining
// inverse CDF, which recomputes every term per draw, so hoisting terms
// into NewZipf can never move a sample. Each sampler is built twice, the
// second from the process-wide sum cache, and both must hold the sum of
// the ascending terms and draw alike.
func TestZipfMatchesReference(t *testing.T) {
	for _, c := range []struct {
		n     int
		theta float64
	}{{1, 0.5}, {2, 0.9}, {40, 0.75}, {1000, 0.8}, {16384, 0.95}, {128, 0.01}} {
		z, again := NewZipf(c.n, c.theta), NewZipf(c.n, c.theta)
		zetan := 0.0
		for i := 1; i <= c.n; i++ {
			zetan += 1 / math.Pow(float64(i), c.theta)
		}
		if z.zetan != zetan || again.zetan != zetan {
			t.Fatalf("n=%d theta=%v: zetan %v and %v, want %v", c.n, c.theta, z.zetan, again.zetan, zetan)
		}
		r, r2, ref := NewRNG(uint64(c.n)), NewRNG(uint64(c.n)), NewRNG(uint64(c.n))
		for i := 0; i < 20000; i++ {
			u := ref.Float64()
			want := 0
			switch uz := u * zetan; {
			case uz < 1:
			case uz < 1+math.Pow(0.5, c.theta):
				want = 1
			default:
				want = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
				want = max(min(want, z.n-1), 0)
			}
			if got, got2 := z.Next(r), again.Next(r2); got != want || got2 != want {
				t.Fatalf("n=%d theta=%v draw %d: got %d and %d, want %d", c.n, c.theta, i, got, got2, want)
			}
		}
	}
}

// TestZipfConcurrentFill: samplers built at once on several goroutines
// for a sum no one has cached yet all hold the one ascending sum. Run it
// under -race.
func TestZipfConcurrentFill(t *testing.T) {
	const n, theta = 3001, 0.61
	want := 0.0
	for i := 1; i <= n; i++ {
		want += 1 / math.Pow(float64(i), theta)
	}
	got := make([]float64, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = NewZipf(n, theta).zetan
		}()
	}
	wg.Wait()
	for g, z := range got {
		if z != want {
			t.Errorf("goroutine %d: zetan %v, want %v", g, z, want)
		}
	}
}
