package stats

import (
	"fmt"
	"math"
	"slices"

	"gonoc/internal/sim"
)

// Histogram is a fixed-bucket latency histogram. Bucket boundaries are
// inclusive upper bounds shared by every histogram built from the same
// bounds slice, so histograms from a sweep fan-out merge bucket-for-
// bucket. All state is integral (counts and a cycle sum), which makes
// Merge associative and bit-exact regardless of merge order or of the
// worker count that produced the inputs — the property the sweep and
// parallel-stepping conformance tests pin.
//
// The default latency bounds keep one-cycle-wide buckets up to
// maxExactLatency cycles, so quantile extraction is exact there (the
// common case for every workload in this repo), and log-linear buckets
// (8 per octave, ≤ ~9% relative width) above it.
//
// A zero Histogram reads as empty and, from its first observation or
// merge, uses the default latency bounds.
type Histogram struct {
	bounds []sim.Cycle // ascending inclusive upper bounds; shared, read-only
	// counts is indexed by bucket; bucket len(bounds) is overflow. It is
	// small-first: nil until the first observation, shortBuckets long
	// while every value has landed below that, and the full
	// len(bounds)+1 from the first value that does not. Buckets past
	// len(counts) read as zero.
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
		n = len(h.bounds) + 1
		if i < shortBuckets && shortBuckets < n {
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

// maxExactLatency is the largest latency with a one-cycle-wide bucket;
// quantiles at or below it are exact.
const maxExactLatency = 4096

// latencyBounds is the shared default bucket layout, built once.
var latencyBounds = func() []sim.Cycle {
	var b []sim.Cycle
	for v := sim.Cycle(0); v <= maxExactLatency; v++ {
		b = append(b, v)
	}
	// Log-linear tail: 8 sub-buckets per octave up to ~16M cycles.
	for lo := sim.Cycle(maxExactLatency); lo < 1<<24; lo *= 2 {
		step := lo / 8
		for v := lo + step; v <= lo*2; v += step {
			b = append(b, v)
		}
	}
	return b
}()

// NewHistogram returns an empty histogram over bounds; nil bounds selects
// the shared default latency bounds. bounds must be ascending.
func NewHistogram(bounds []sim.Cycle) *Histogram {
	if bounds == nil {
		bounds = latencyBounds
	}
	return &Histogram{bounds: bounds}
}

// Observe records one value.
func (h *Histogram) Observe(v sim.Cycle) {
	if h.bounds == nil {
		h.bounds = latencyBounds
	}
	i := h.bucket(v)
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

// bucket returns the index of the bucket containing v: the first bound
// >= v, or the overflow bucket.
func (h *Histogram) bucket(v sim.Cycle) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
// buckets (<= maxExactLatency with the default bounds), and within the
// bucket's relative width above. The overflow bucket reports the exact
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
			if i == len(h.bounds) {
				return h.max // overflow bucket: max is exact
			}
			return h.bounds[i]
		}
	}
	return h.max
}

// Merge adds o's observations into h. Both histograms must share the
// same bucket layout — not just the same bucket count: mismatched bounds
// are rejected with an error rather than silently adding counts that
// mean different latency ranges. Merging is pure integer arithmetic, so
// the result is bit-exact regardless of how the inputs were sharded —
// merging one collector per sweep worker reproduces the single-collector
// histogram.
func (h *Histogram) Merge(o *Histogram) error {
	if o.total == 0 {
		return nil
	}
	if h.bounds == nil {
		h.bounds = latencyBounds
	}
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("stats: merging histograms with %d vs %d buckets", len(h.bounds)+1, len(o.bounds)+1)
	}
	// Same backing array (the common shared-default-bounds case) needs no
	// element scan; otherwise every bound must match.
	if len(h.bounds) > 0 && &h.bounds[0] != &o.bounds[0] {
		for i := range h.bounds {
			if h.bounds[i] != o.bounds[i] {
				return fmt.Errorf("stats: merging histograms with mismatched bucket bounds (bucket %d: %d vs %d cycles)",
					i, h.bounds[i], o.bounds[i])
			}
		}
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
	return nil
}

// Equal reports whether h and o hold the same observations over the
// same bounds: counts (a short counts array equals a full one with the
// same buckets filled), sum and extremes. Two empty histograms are
// equal whatever their bounds.
func (h *Histogram) Equal(o *Histogram) bool {
	if h.total != o.total || h.sum != o.sum || h.min != o.min || h.max != o.max {
		return false
	}
	if h.total == 0 {
		return true
	}
	if len(h.bounds) != len(o.bounds) || len(h.bounds) > 0 && &h.bounds[0] != &o.bounds[0] && !slices.Equal(h.bounds, o.bounds) {
		return false
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
		if i == len(h.bounds) {
			break // overflow lands in +Inf only
		}
		for ei < len(exportBounds) && h.bounds[i] > exportBounds[ei] {
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
