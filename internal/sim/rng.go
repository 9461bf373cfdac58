package sim

import (
	"math"
	"math/bits"
	"sync"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**-style splitmix fallback) used by workload generators and
// routing decisions. Each component derives its own stream from a base
// seed so that adding a component never perturbs another component's
// sequence — a property math/rand's shared source does not give us.
type RNG struct {
	s state
}

// state is the xoshiro256** generator state.
type state struct{ s0, s1, s2, s3 uint64 }

// step returns the output for state s and the state after it. It is
// the one definition of the transition: Uint64 applies it to r.s, and
// BoolMask applies it to a local copy so the state stays in registers.
func (s state) step() (uint64, state) {
	out := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return out, s
}

// NewRNG returns a generator seeded from seed via SplitMix64.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s = state{next(), next(), next(), next()}
	// Avoid the all-zero state, which is a fixed point.
	if r.s.s0|r.s.s1|r.s.s2|r.s.s3 == 0 {
		r.s.s0 = 1
	}
	return r
}

// Split derives an independent generator labeled by id.
func (r *RNG) Split(id uint64) *RNG {
	return NewRNG(r.Uint64() ^ (id * 0x9e3779b97f4a7c15) ^ 0x5851f42d4c957f2d)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	out, next := r.s.step()
	r.s = next
	return out
}

// Intn returns a uniform int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n).
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// BoolMask returns n successive Bool(p) draws packed into a word, bit i
// holding the i-th. It consumes exactly the n values those calls would,
// so the generator ends in the same state. n must be in [0, 64].
//
// Float64() < p is evaluated in exact integer form: Float64 is
// x/2^53 for the integer x = Uint64()>>11, and x/2^53 < p holds exactly
// when x < ceil(p·2^53). p <= 0 or NaN sets no bit; p >= 1 sets every
// bit (the threshold is clamped to 2^53, above every x).
//
//piranha:hotpath
func (r *RNG) BoolMask(n int, p float64) uint64 {
	if uint(n) > 64 {
		panic("sim: BoolMask n outside [0, 64]")
	}
	var thr uint64
	switch {
	case p >= 1:
		thr = 1 << 53
	case p > 0:
		thr = uint64(math.Ceil(p * (1 << 53)))
	}
	s := r.s
	var mask uint64
	for i := 0; i < n; i++ {
		var u uint64
		u, s = s.step()
		if u>>11 < thr {
			mask |= 1 << uint(i)
		}
	}
	r.s = s
	return mask
}

// Zipf returns values in [0, n) following an approximate Zipf distribution
// with exponent theta (0 < theta < 1 typical for database hot sets).
// It uses the standard inverse-CDF approximation from Gray et al., which
// is what TPC workload generators use for skewed access.
type Zipf struct {
	n     int
	alpha float64
	zetan float64
	eta   float64
	// rank1 is 1 + 0.5^theta, the inverse-CDF bound below which a draw
	// not taken by rank 0 is rank 1.
	rank1 float64
}

// zetaKey names one normalisation sum.
type zetaKey struct {
	n     int
	theta float64
}

// zetas holds every normalisation sum built in this process, so each
// (n, theta) pays its n math.Pow terms once however many workloads,
// campaign cells or set-ups ask for it. A sum is a fixed function of its
// key, so a concurrent duplicate fill stores the same value.
var zetas sync.Map // zetaKey -> float64

// zeta returns sum_{i=1..n} 1/i^theta, summed in ascending i.
func zeta(n int, theta float64) float64 {
	k := zetaKey{n, theta}
	if v, ok := zetas.Load(k); ok {
		return v.(float64)
	}
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / pow(float64(i), theta)
	}
	zetas.Store(k, sum)
	return sum
}

// NewZipf prepares a Zipf sampler over [0, n) with skew theta.
func NewZipf(n int, theta float64) *Zipf {
	if n < 1 {
		n = 1
	}
	z := &Zipf{n: n, rank1: 1 + pow(0.5, theta), zetan: zeta(n, theta)}
	zeta2 := 1 + 1/pow(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

// Next samples a value in [0, n).
func (z *Zipf) Next(r *RNG) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	v := int(float64(z.n) * pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	if v < 0 {
		v = 0
	}
	return v
}

func pow(x, y float64) float64 { return math.Pow(x, y) }
