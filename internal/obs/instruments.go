package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. All methods are safe
// for concurrent use and safe on a nil receiver (no-op), so handles
// can be threaded through code without nil checks.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.n.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a float64 value that can move in both directions. Updates
// are atomic on the value's bits; Add and SetMax use CAS loops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta to the gauge.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark update queue-depth instrumentation uses. The
// fast path (v not a new maximum) is a single atomic load.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default histogram buckets, spanning sub-ms
// pipeline latencies through multi-second stalls (seconds).
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets (cumulative ≤ upper
// bound on exposition, like Prometheus). Observe is lock-free: a
// binary search over the bounds plus two atomic adds.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf overflow
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First i with bounds[i] >= v: v lands in that bucket (le is
	// inclusive); past the end means the +Inf overflow bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observed
// distribution from the bucket counts, with Prometheus-style linear
// interpolation inside the target bucket. It returns the first bucket's
// upper bound for ranks inside the first bucket (no lower edge to
// interpolate from), the last finite bound if the rank lands in the
// +Inf overflow bucket, and NaN when the histogram is empty or nil.
// The estimate is monotone in q and safe to call concurrently with
// Observe (a racing read may mix observations across buckets; the
// ledger reads after its load phase drains, so the skew is zero
// there).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.bounds) {
			// Overflow bucket: no upper edge; the last finite bound is
			// the best (under)estimate, matching Prometheus.
			return h.bounds[len(h.bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = h.bounds[i-1]
		} else {
			// First bucket: Prometheus reports its upper bound rather
			// than interpolating down to an assumed zero edge.
			return h.bounds[0]
		}
		return lower + (h.bounds[i]-lower)*(rank-float64(prev))/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// bucketCounts returns the per-bucket (non-cumulative) counts,
// including the +Inf overflow as the last element.
func (h *Histogram) bucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
