package sim

import (
	"math"
	"testing"
)

// TestBoolMaskMatchesBool: BoolMask(n, p) equals n successive Bool(p)
// calls bit for bit and leaves the generator where those calls would,
// including at the edges of the exact integer threshold (the smallest
// subnormal, multiples of 2^-53, the largest float below 1) and for
// out-of-range p.
func TestBoolMaskMatchesBool(t *testing.T) {
	ps := []float64{
		-1, 0, math.NaN(), 5e-324, 0x1p-53, 3 * 0x1p-53, 2e-6, 0.5,
		math.Nextafter(1, 0), 1, 2,
	}
	for _, p := range ps {
		for n := 0; n <= 64; n++ {
			a, b := NewRNG(uint64(n)+1), NewRNG(uint64(n)+1)
			var want uint64
			for i := 0; i < n; i++ {
				if a.Bool(p) {
					want |= 1 << uint(i)
				}
			}
			if got := b.BoolMask(n, p); got != want {
				t.Fatalf("p=%g n=%d: BoolMask = %#x, Bool calls = %#x", p, n, got, want)
			}
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("p=%g n=%d: generator state diverged after the draws", p, n)
			}
		}
	}
}

// TestBoolMaskThresholdEdges: draws that land exactly on the threshold
// agree with Float64() < p. A generator whose next x = Uint64()>>11 is
// known lets p sit at x/2^53 and one ulp either side.
func TestBoolMaskThresholdEdges(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		probe := NewRNG(seed)
		f := probe.Float64()
		for _, p := range []float64{f, math.Nextafter(f, 0), math.Nextafter(f, 1)} {
			a, b := NewRNG(seed), NewRNG(seed)
			want := a.Bool(p)
			if got := b.BoolMask(1, p) == 1; got != want {
				t.Fatalf("seed %d p=%v (draw %v): BoolMask bit %v, Bool %v", seed, p, f, got, want)
			}
		}
	}
}

var boolMaskSink uint64

// boolMaskLoop is BoolMask written as a plain loop over Uint64, which
// keeps the generator state in memory between draws.
func boolMaskLoop(r *RNG, n int, p float64) uint64 {
	var thr uint64
	switch {
	case p >= 1:
		thr = 1 << 53
	case p > 0:
		thr = uint64(math.Ceil(p * (1 << 53)))
	}
	var mask uint64
	for i := 0; i < n; i++ {
		if r.Uint64()>>11 < thr {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// BenchmarkBoolMask measures the link layer's per-word wire-error roll,
// 22 draws, three ways. Bool to Loop isolates the integer threshold;
// Loop to BoolMask isolates stepping a local copy of the state.
func BenchmarkBoolMask(b *testing.B) {
	const n, p = 22, 2e-6
	b.Run("Bool", func(b *testing.B) {
		r := NewRNG(1)
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				if r.Bool(p) {
					boolMaskSink ^= 1 << uint(j)
				}
			}
		}
	})
	b.Run("Loop", func(b *testing.B) {
		r := NewRNG(1)
		for i := 0; i < b.N; i++ {
			boolMaskSink ^= boolMaskLoop(r, n, p)
		}
	})
	b.Run("BoolMask", func(b *testing.B) {
		r := NewRNG(1)
		for i := 0; i < b.N; i++ {
			boolMaskSink ^= r.BoolMask(n, p)
		}
	})
}
