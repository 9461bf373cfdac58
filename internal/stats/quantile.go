package stats

import (
	"fmt"
	"math/bits"
	"strings"
)

// Quantile is a deterministic streaming quantile sketch for non-negative
// int64 samples (latencies in picoseconds). It is the tail-latency
// counterpart to Histogram: where Histogram reports a mean over a handful
// of caller-chosen buckets, Quantile answers p50/p90/p99/p999 queries
// with a bounded relative error, from a fixed-size structure.
//
// The sketch is HDR-histogram-style log-linear: values below 2^subBits
// land in exact unit buckets; above that, each power-of-two octave is
// split into 2^subBits sub-buckets, bounding the relative error of any
// reported quantile by 2^-subBits (~3.1%). All state is integer counts,
// so Observe order never changes the result and Merge is associative and
// commutative — two sketches merged in either order are bit-identical.
// No floating point touches the stored state; float enters only when a
// quantile rank is computed from a caller-supplied p.
type Quantile struct {
	Name    string
	count   uint64
	sum     int64
	min     int64
	max     int64
	buckets [nQBuckets]uint64
}

const (
	qSubBits  = 5
	qSubCount = 1 << qSubBits // 32 sub-buckets per octave
	// Highest exponent group: values up to 2^63-1 have bit length 63,
	// giving exp = 63 - (qSubBits+1) = 57, so groups 0..57 exist above
	// the exact region.
	nQBuckets = (64 - qSubBits) * qSubCount
)

// NewQuantile returns an empty sketch.
func NewQuantile(name string) *Quantile {
	return &Quantile{Name: name, min: int64(^uint64(0) >> 1)}
}

// qBucket maps a sample to its bucket index.
func qBucket(v int64) int {
	u := uint64(v)
	if u < qSubCount {
		return int(u)
	}
	exp := bits.Len64(u) - qSubBits - 1
	// u>>exp is in [qSubCount, 2*qSubCount); group exp occupies indices
	// [(exp+1)*qSubCount, (exp+2)*qSubCount).
	return exp*qSubCount + int(u>>uint(exp))
}

// qUpper returns the largest value mapping to bucket i.
func qUpper(i int) int64 {
	if i < qSubCount {
		return int64(i)
	}
	exp := i/qSubCount - 1
	sub := i%qSubCount + qSubCount
	return int64(uint64(sub+1)<<uint(exp) - 1)
}

// Observe records one sample. Negative samples are clamped to zero: the
// only way a latency goes negative is a bug upstream, and a poisoned
// sketch would hide it less visibly than a fat zero bucket.
func (q *Quantile) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	q.buckets[qBucket(v)]++
	q.count++
	q.sum += v
	if v < q.min {
		q.min = v
	}
	if v > q.max {
		q.max = v
	}
}

// Merge folds another sketch's samples into q. Merging in any order
// yields identical state.
func (q *Quantile) Merge(o *Quantile) {
	if o == nil || o.count == 0 {
		return
	}
	for i, c := range o.buckets {
		q.buckets[i] += c
	}
	q.count += o.count
	q.sum += o.sum
	if o.min < q.min {
		q.min = o.min
	}
	if o.max > q.max {
		q.max = o.max
	}
}

// Count returns the number of samples observed.
func (q *Quantile) Count() uint64 { return q.count }

// Mean returns the exact sample mean (zero when empty).
func (q *Quantile) Mean() float64 {
	if q.count == 0 {
		return 0
	}
	return float64(q.sum) / float64(q.count)
}

// Min returns the smallest sample (zero when empty).
func (q *Quantile) Min() int64 {
	if q.count == 0 {
		return 0
	}
	return q.min
}

// Max returns the largest sample (zero when empty).
func (q *Quantile) Max() int64 { return q.max }

// Quantile returns an upper bound for the p-quantile (0 ≤ p ≤ 1) with
// relative error at most 2^-qSubBits. An empty sketch reports zero — the
// same sentinel discipline as Histogram.String, which renders zeros
// rather than leaking the fresh-state min.
func (q *Quantile) Quantile(p float64) int64 {
	if q.count == 0 {
		return 0
	}
	if p <= 0 {
		return q.min
	}
	if p >= 1 {
		return q.max
	}
	// 0-based rank of the requested order statistic.
	rank := uint64(p * float64(q.count-1))
	var cum uint64
	for i, c := range q.buckets {
		cum += c
		if cum > rank {
			v := qUpper(i)
			if v > q.max {
				v = q.max
			}
			if v < q.min {
				v = q.min
			}
			return v
		}
	}
	return q.max
}

// Reset discards all samples in place.
func (q *Quantile) Reset() {
	*q = Quantile{Name: q.Name, min: int64(^uint64(0) >> 1)}
}

// String renders the headline percentiles on one line.
func (q *Quantile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d mean=%.1f min=%d max=%d", q.Name, q.count, q.Mean(), q.Min(), q.Max())
	if q.count > 0 {
		fmt.Fprintf(&b, " p50=%d p90=%d p99=%d p999=%d",
			q.Quantile(0.50), q.Quantile(0.90), q.Quantile(0.99), q.Quantile(0.999))
	}
	return b.String()
}
