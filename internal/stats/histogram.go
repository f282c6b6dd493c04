package stats

import (
	"math"
	"math/bits"
	"slices"

	"gonoc/internal/sim"
)

// Histogram is a fixed-bucket latency histogram. Every histogram has the
// one bucket layout that bucket and upper compute, so histograms from a
// sweep fan-out merge bucket-for-bucket. All state is integral (counts
// and a cycle sum), which makes Merge associative and bit-exact
// regardless of merge order or of the worker count that produced the
// inputs — the property the sweep and parallel-stepping conformance
// tests pin.
//
// The layout keeps one-cycle-wide buckets up to maxExactLatency cycles,
// so quantile extraction is exact there (the common case for every
// workload in this repo), and log-linear buckets above it (8 per
// octave, each at most 12.5% of its lower edge wide) up to 2^24 cycles;
// larger values go to an overflow bucket.
//
// The zero Histogram is empty and ready to use.
type Histogram struct {
	// counts is indexed by bucket; bucket overflow is the last. It is
	// small-first: nil until the first observation, shortBuckets long
	// while every value has landed below that, and the full overflow+1
	// from the first value that does not. Buckets past len(counts) read
	// as zero.
	counts []uint64
	total  uint64
	sum    uint64 // sum of observed values, in cycles
	min    sim.Cycle
	max    sim.Cycle
	// shared marks counts as aliased by a Clone: the next write must
	// copy first. Lets checkpoint/restore clone histograms in O(1).
	shared bool
}

// shortBuckets is the length counts starts at. Model-check and
// low-load latencies (a few tens of cycles) never leave it, so the
// histograms a snapshot clones and a restore copies on write are 512
// bytes, not the full 33 KB layout.
const shortBuckets = 64

// own makes counts privately owned and long enough to index bucket i,
// before a write. It grows in two steps only — short, then straight to
// the full layout — so a histogram's lifetime allocation is one full
// array plus at most one short one however its values climb.
func (h *Histogram) own(i int) {
	n := len(h.counts)
	if i >= n {
		n = overflow + 1
		if i < shortBuckets {
			n = shortBuckets
		}
	}
	if h.shared || n != len(h.counts) {
		c := make([]uint64, n)
		copy(c, h.counts)
		h.counts = c
		h.shared = false
	}
}

const (
	// maxExactLatency is the largest latency with a one-cycle-wide
	// bucket; quantiles at or below it are exact.
	maxExactLatency = 4096
	// subBuckets is the number of buckets per octave above
	// maxExactLatency, and octaves the number of octaves: the last
	// finite bucket ends at maxExactLatency<<octaves = 2^24 cycles.
	subBuckets = 8
	octaves    = 12
	// overflow is the index of the bucket holding every larger value.
	overflow = maxExactLatency + 1 + subBuckets*octaves
)

// bucket returns the index of the bucket holding v: the bucket whose
// inclusive upper bound, upper(i), is the least one >= v, or overflow.
// Values up to maxExactLatency are their own index. Above it, v lies in
// octave k, (4096·2^k, 8192·2^k], where v−1 has 13+k bits, and the
// octave's 8 sub-buckets are 2^(9+k) cycles wide.
func bucket(v sim.Cycle) int {
	if v <= maxExactLatency {
		return int(v)
	}
	if v > maxExactLatency<<octaves {
		return overflow
	}
	k := bits.Len64(uint64(v)-1) - 13
	sub := (uint64(v) - 1 - maxExactLatency<<k) >> (9 + k)
	return maxExactLatency + 1 + subBuckets*k + int(sub)
}

// upper returns the inclusive upper bound of bucket i < overflow.
func upper(i int) sim.Cycle {
	if i <= maxExactLatency {
		return sim.Cycle(i)
	}
	k, sub := (i-maxExactLatency-1)/subBuckets, (i-maxExactLatency-1)%subBuckets
	return sim.Cycle(maxExactLatency+(sub+1)*(maxExactLatency/subBuckets)) << k
}

// Observe records one value.
func (h *Histogram) Observe(v sim.Cycle) {
	i := bucket(v)
	if h.shared || i >= len(h.counts) {
		h.own(i)
	}
	h.counts[i]++
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.total++
	h.sum += uint64(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the integer sum of all observed values in cycles.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min and Max return the observed extremes, or 0 with no observations.
func (h *Histogram) Min() sim.Cycle {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observed value, or 0 with no observations.
func (h *Histogram) Max() sim.Cycle {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Mean returns the average observed value, or 0 with no observations
// (never NaN — see the Collector warmup edge case).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile returns the q-th percentile (0 < q <= 100) as the upper bound
// of the bucket holding that rank — exact for values with one-cycle-wide
// buckets (<= maxExactLatency), and within the bucket's relative width
// above. The overflow bucket reports the exact
// observed maximum. With no observations it returns 0.
func (h *Histogram) Quantile(q float64) sim.Cycle {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(float64(h.total) * q / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i == overflow {
				return h.max // overflow bucket: max is exact
			}
			return upper(i)
		}
	}
	return h.max
}

// Merge adds o's observations into h. Merging is pure integer
// arithmetic, so the result is bit-exact regardless of how the inputs
// were sharded — merging one collector per sweep worker reproduces the
// single-collector histogram.
func (h *Histogram) Merge(o *Histogram) {
	if o.total == 0 {
		return
	}
	h.own(len(o.counts) - 1)
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	h.sum += o.sum
}

// Equal reports whether h and o hold the same observations: counts (a
// short counts array equals a full one with the same buckets filled),
// sum and extremes.
func (h *Histogram) Equal(o *Histogram) bool {
	if h.total != o.total || h.sum != o.sum || h.min != o.min || h.max != o.max {
		return false
	}
	if h.total == 0 {
		return true
	}
	long, short := h.counts, o.counts
	if len(long) < len(short) {
		long, short = short, long
	}
	return slices.Equal(long[:len(short)], short) && !slices.ContainsFunc(long[len(short):], func(c uint64) bool { return c != 0 })
}

// Bucket is one cumulative histogram bucket in export form: Count
// observations had a value <= UpperBound.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound in cycles.
	UpperBound sim.Cycle `json:"le"`
	// Count is the cumulative observation count at this bound.
	Count uint64 `json:"count"`
}

// exportBounds are the coarse power-of-two bounds used for the
// Prometheus exposition: fine-grained internal buckets are folded into
// these so a scrape stays small (24 series per histogram, plus +Inf).
var exportBounds = func() []sim.Cycle {
	var b []sim.Cycle
	for v := sim.Cycle(1); v <= 1<<23; v *= 2 {
		b = append(b, v)
	}
	return b
}()

// Cumulative folds the histogram into the coarse export bounds and
// returns cumulative counts, the Prometheus histogram convention. The
// final implicit +Inf bucket is Count().
func (h *Histogram) Cumulative() []Bucket {
	out := make([]Bucket, len(exportBounds))
	for i, ub := range exportBounds {
		out[i].UpperBound = ub
	}
	var cum uint64
	ei := 0
	for i, c := range h.counts {
		if i == overflow {
			break // overflow lands in +Inf only
		}
		for ei < len(exportBounds) && upper(i) > exportBounds[ei] {
			out[ei].Count = cum
			ei++
		}
		cum += c
	}
	for ; ei < len(exportBounds); ei++ {
		out[ei].Count = cum
	}
	return out
}

// HistogramSnapshot is a point-in-time copy of a histogram, safe to hand
// to another goroutine (the live Histogram is owned by the simulation
// loop and is not synchronized).
type HistogramSnapshot struct {
	// Count and Sum aggregate all observations (Sum in cycles).
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	// Min and Max are the observed extremes (0 when Count is 0).
	Min sim.Cycle `json:"min"`
	Max sim.Cycle `json:"max"`
	// P50, P95 and P99 are extracted quantiles.
	P50 sim.Cycle `json:"p50"`
	P95 sim.Cycle `json:"p95"`
	P99 sim.Cycle `json:"p99"`
	// Buckets is the cumulative export-form histogram.
	Buckets []Bucket `json:"buckets"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.total, Sum: h.sum,
		Min: h.Min(), Max: h.Max(),
		P50: h.Quantile(50), P95: h.Quantile(95), P99: h.Quantile(99),
		Buckets: h.Cumulative(),
	}
}
