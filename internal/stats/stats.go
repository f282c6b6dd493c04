// Package stats collects packet-level performance statistics from a NoC
// simulation: latency (creation to ejection, i.e. including source
// queueing), network latency (injection to ejection), hop counts and
// throughput, with a warmup window excluded from measurement.
//
// Latency is accumulated in fixed-bucket histograms (see Histogram), so
// a collector's memory stays bounded over arbitrarily long campaigns
// while still supporting distribution queries — p50/p95/p99 extraction,
// Prometheus-style cumulative buckets for the telemetry layer, and a
// bit-exact Merge for sweep fan-out.
package stats

import (
	"fmt"
	"math"
	"sort"

	"gonoc/internal/flit"
	"gonoc/internal/sim"
)

// IntPercentile returns the p-th percentile (0 < p <= 100) of values by
// the nearest-rank method — the same semantics Histogram.Quantile uses —
// or 0 with no values. The input is copied, not modified. Campaign
// drivers use it for small per-trial populations (fault counts) that
// don't warrant a histogram.
func IntPercentile(values []int, p float64) int {
	if len(values) == 0 {
		return 0
	}
	s := make([]int, len(values))
	copy(s, values)
	sort.Ints(s)
	rank := int(math.Ceil(float64(len(s)) * p / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Collector accumulates per-packet statistics. Packets created before
// Warmup are counted but excluded from latency measurement, the standard
// methodology for steady-state NoC measurement.
//
// Warmup edge case: when every created packet predates the warmup cutoff
// (Measured() == 0 — short runs, or a warmup longer than the run), all
// latency statistics — averages, percentiles, extremes, class averages —
// return 0 rather than NaN or an uninitialized extreme, so downstream
// report formatting never has to special-case an empty measurement
// window.
type Collector struct {
	// Warmup is the cycle before which created packets are not measured.
	Warmup sim.Cycle

	created uint64
	ejected uint64

	// dropped counts packets discarded by the network (dead links,
	// unreachable destinations); duplicates counts redundant deliveries
	// suppressed at sink NIs; retransmits counts re-injected copies
	// issued by the end-to-end reliability layer. Every physical packet
	// ends in exactly one of ejected, dropped or duplicates, which is
	// what keeps InFlight draining to zero under faults.
	dropped     uint64
	duplicates  uint64
	retransmits uint64

	// flits counts the measured packets' flits; accepted counts the
	// flits of every packet ejected at or after Warmup, whenever it was
	// created (ThroughputFlits).
	flits    uint64
	accepted uint64

	// lat and net hold the total (creation→ejection) and in-network
	// (injection→ejection) latency distributions; classLat splits the
	// total latency per message class. Every latency statistic is read
	// from them: their counts, integer sums and extremes. They are held
	// by value and start as zero histograms, so a zero-value Collector
	// works and an all-warmup run allocates nothing.
	lat      Histogram
	net      Histogram
	classLat [flit.NumClasses]Histogram
}

// NewCollector returns a collector measuring packets created at or after
// warmup.
func NewCollector(warmup sim.Cycle) *Collector {
	return &Collector{Warmup: warmup}
}

// RecordCreation notes that a packet was offered to the network.
func (c *Collector) RecordCreation(*flit.Packet) { c.created++ }

// RecordDrop notes that a packet was discarded by the network — at a
// dead link, or because no path to its destination survives the fault
// set. Called at most once per physical packet.
func (c *Collector) RecordDrop(*flit.Packet) { c.dropped++ }

// RecordDuplicate notes that a sink NI suppressed a redundant delivery
// of an already-delivered packet.
func (c *Collector) RecordDuplicate(*flit.Packet) { c.duplicates++ }

// RecordRetransmit notes that a source NI re-injected an unacknowledged
// packet. The copy is also recorded with RecordCreation, so unique
// offered packets = Created() - Retransmits().
func (c *Collector) RecordRetransmit(*flit.Packet) { c.retransmits++ }

// RecordEjection records a completed packet. The packet must have its
// CreatedAt and EjectedAt stamps set.
func (c *Collector) RecordEjection(p *flit.Packet) {
	c.ejected++
	if p.EjectedAt >= c.Warmup {
		c.accepted += uint64(p.Size)
	}
	if p.CreatedAt < c.Warmup {
		return
	}
	lat := p.Latency()
	c.flits += uint64(p.Size)
	c.lat.Observe(lat)
	c.net.Observe(p.NetworkLatency())
	if int(p.Class) < len(c.classLat) {
		c.classLat[p.Class].Observe(lat)
	}
}

// Created returns the number of packets offered.
func (c *Collector) Created() uint64 { return c.created }

// Ejected returns the number of packets delivered.
func (c *Collector) Ejected() uint64 { return c.ejected }

// Measured returns the number of packets included in latency statistics.
func (c *Collector) Measured() uint64 { return c.lat.Count() }

// Dropped returns the number of packets discarded by the network.
func (c *Collector) Dropped() uint64 { return c.dropped }

// Duplicates returns the number of deliveries suppressed as duplicates.
func (c *Collector) Duplicates() uint64 { return c.duplicates }

// Retransmits returns the number of re-injected packet copies.
func (c *Collector) Retransmits() uint64 { return c.retransmits }

// InFlight returns the number of packets offered and still owned by the
// network: not yet delivered, discarded, or suppressed as duplicates.
func (c *Collector) InFlight() uint64 {
	return c.created - c.ejected - c.dropped - c.duplicates
}

// DeliveryRatio returns delivered unique packets over offered unique
// packets — ejected / (created - retransmits) — or 1 when nothing was
// offered. With end-to-end retransmission enabled it reaches 1.0 exactly
// when every offered packet was eventually delivered.
func (c *Collector) DeliveryRatio() float64 {
	unique := c.created - c.retransmits
	if unique == 0 {
		return 1
	}
	return float64(c.ejected) / float64(unique)
}

// AvgLatency returns the mean packet latency in cycles (creation to
// ejection), or 0 with no measured packets (see the warmup edge case in
// the Collector docs).
func (c *Collector) AvgLatency() float64 { return c.lat.Mean() }

// AvgNetworkLatency returns the mean in-network latency in cycles, or 0
// with no measured packets.
func (c *Collector) AvgNetworkLatency() float64 { return c.net.Mean() }

// ClassAvgLatency returns the mean latency of one message class, or 0
// when no packet of that class was measured.
func (c *Collector) ClassAvgLatency(cls flit.Class) float64 {
	if int(cls) >= len(c.classLat) {
		return 0
	}
	return c.classLat[cls].Mean()
}

// MinLatency and MaxLatency return the observed latency extremes, or 0
// with no measured packets.
func (c *Collector) MinLatency() sim.Cycle { return c.lat.Min() }

// MaxLatency returns the largest observed packet latency.
func (c *Collector) MaxLatency() sim.Cycle { return c.lat.Max() }

// Percentile returns the p-th latency percentile (0 < p <= 100),
// extracted from the latency histogram: exact for latencies with
// one-cycle-wide buckets (up to 4096 cycles) and bucket-resolution
// above. Returns 0 with no measured packets.
func (c *Collector) Percentile(p float64) float64 { return float64(c.lat.Quantile(p)) }

// NetworkPercentile is Percentile over the in-network latency
// distribution.
func (c *Collector) NetworkPercentile(p float64) float64 { return float64(c.net.Quantile(p)) }

// ClassPercentile is Percentile over one message class's latency
// distribution.
func (c *Collector) ClassPercentile(cls flit.Class, p float64) float64 {
	if int(cls) >= len(c.classLat) {
		return 0
	}
	return float64(c.classLat[cls].Quantile(p))
}

// ThroughputFlits returns accepted flits per cycle over the measurement
// interval ending at cycle end: every flit ejected at or after Warmup,
// including those of packets created during it, which past saturation
// are most of them. It returns 0 when end is inside the warmup window
// (end <= Warmup would otherwise divide by zero).
func (c *Collector) ThroughputFlits(end sim.Cycle) float64 {
	if end <= c.Warmup {
		return 0
	}
	return float64(c.accepted) / float64(end-c.Warmup)
}

// Merge folds other's measurements into c, for aggregating per-worker
// collectors after a sweep fan-out. Every merge is integer arithmetic
// (counters and histograms), so the result is bit-exact in any merge
// order. The receivers' Warmup values are not reconciled; each shard
// applies its own cutoff when recording. The error is always nil: every
// histogram has the one layout, so there is no mismatch to report. It
// stays in the signature only because the benchmark module's callers
// check it.
func (c *Collector) Merge(other *Collector) error {
	if other == nil {
		return nil
	}
	c.created += other.created
	c.ejected += other.ejected
	c.dropped += other.dropped
	c.duplicates += other.duplicates
	c.retransmits += other.retransmits
	c.flits += other.flits
	c.accepted += other.accepted
	c.lat.Merge(&other.lat)
	c.net.Merge(&other.net)
	for i := range c.classLat {
		c.classLat[i].Merge(&other.classLat[i])
	}
	return nil
}

// Equal reports whether c and o hold the same measurements: every
// counter, the warmup cutoff and every histogram. It implies equal
// Snapshots and Summaries without building either.
func (c *Collector) Equal(o *Collector) bool {
	if c.Warmup != o.Warmup || c.created != o.created || c.ejected != o.ejected ||
		c.dropped != o.dropped || c.duplicates != o.duplicates || c.retransmits != o.retransmits ||
		c.flits != o.flits || c.accepted != o.accepted ||
		!c.lat.Equal(&o.lat) || !c.net.Equal(&o.net) {
		return false
	}
	for i := range c.classLat {
		if !c.classLat[i].Equal(&o.classLat[i]) {
			return false
		}
	}
	return true
}

// Snapshot is a point-in-time copy of a collector's aggregates, safe to
// publish to another goroutine (the live Collector is owned by the
// simulation loop and is not synchronized — the telemetry layer captures
// snapshots from a cycle hook, which runs in the serial phase of the
// network step).
type Snapshot struct {
	Created  uint64 `json:"created"`
	Ejected  uint64 `json:"ejected"`
	Measured uint64 `json:"measured"`
	InFlight uint64 `json:"in_flight"`

	Dropped       uint64  `json:"dropped"`
	Duplicates    uint64  `json:"duplicates"`
	Retransmits   uint64  `json:"retransmits"`
	DeliveryRatio float64 `json:"delivery_ratio"`

	AvgLatency        float64 `json:"avg_latency"`
	AvgNetworkLatency float64 `json:"avg_network_latency"`

	// Latency and NetworkLatency carry the distribution state; Classes
	// holds the per-message-class total-latency distributions, indexed
	// by flit.Class.
	Latency        HistogramSnapshot                  `json:"latency"`
	NetworkLatency HistogramSnapshot                  `json:"network_latency"`
	Classes        [flit.NumClasses]HistogramSnapshot `json:"classes"`
}

// Snapshot captures the collector's current aggregates.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Created: c.created, Ejected: c.ejected, Measured: c.Measured(),
		InFlight: c.InFlight(),
		Dropped:  c.dropped, Duplicates: c.duplicates, Retransmits: c.retransmits,
		DeliveryRatio: c.DeliveryRatio(),
		AvgLatency:    c.AvgLatency(), AvgNetworkLatency: c.AvgNetworkLatency(),
	}
	if c.lat.Count() > 0 {
		s.Latency = c.lat.Snapshot()
		s.NetworkLatency = c.net.Snapshot()
		for i := range c.classLat {
			s.Classes[i] = c.classLat[i].Snapshot()
		}
	}
	return s
}

// String implements fmt.Stringer.
func (c *Collector) String() string {
	return fmt.Sprintf("stats{created=%d ejected=%d avgLat=%.1f}", c.created, c.ejected, c.AvgLatency())
}

// Summary renders every aggregate the collector holds as a multi-line
// string. Two runs of the same simulation produce byte-identical
// summaries — every aggregate is integral, and the averages divide
// integer sums — so golden-determinism and serial/parallel conformance
// tests compare Summary outputs directly. The float columns (hopsum,
// class latsum) print the integer totals as floats.
func (c *Collector) Summary() string {
	var b []byte
	app := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	app("created %d ejected %d measured %d in-flight %d\n",
		c.created, c.ejected, c.Measured(), c.InFlight())
	if c.dropped != 0 || c.duplicates != 0 || c.retransmits != 0 {
		app("dropped %d duplicates %d retransmits %d\n",
			c.dropped, c.duplicates, c.retransmits)
	}
	app("latency avg %v net %v min %d max %d\n",
		c.AvgLatency(), c.AvgNetworkLatency(), c.MinLatency(), c.MaxLatency())
	app("latency p50 %v p95 %v p99 %v\n",
		c.Percentile(50), c.Percentile(95), c.Percentile(99))
	if c.lat.Count() > 0 {
		app("hist count %d sum %d netsum %d\n", c.lat.Count(), c.lat.Sum(), c.net.Sum())
	}
	app("flits %d hopsum %v\n", c.flits, float64(c.flits))
	for cls := range c.classLat {
		if h := &c.classLat[cls]; h.Count() > 0 {
			app("class %d n %d latsum %v\n", cls, h.Count(), float64(h.Sum()))
		}
	}
	return string(b)
}
