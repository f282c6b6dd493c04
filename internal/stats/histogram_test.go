package stats

import (
	"reflect"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/rng"
	"gonoc/internal/sim"
	"gonoc/internal/sweep"
)

func TestHistogramExactQuantiles(t *testing.T) {
	h := NewHistogram(nil)
	for v := sim.Cycle(1); v <= 100; v++ {
		h.Observe(v)
	}
	cases := []struct {
		q    float64
		want sim.Cycle
	}{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}}
	for _, tc := range cases {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if h.Count() != 100 || h.Sum() != 5050 {
		t.Errorf("count/sum = %d/%d", h.Count(), h.Sum())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
	if h.Mean() != 50.5 {
		t.Errorf("mean = %v", h.Mean())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(nil)
	if h.Quantile(50) != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("empty histogram returned nonzero statistics")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.P99 != 0 {
		t.Errorf("empty snapshot: %+v", s)
	}
	for _, b := range s.Buckets {
		if b.Count != 0 {
			t.Fatalf("empty histogram has nonzero bucket at le=%d", b.UpperBound)
		}
	}
}

func TestHistogramTailBuckets(t *testing.T) {
	h := NewHistogram(nil)
	// Values beyond the exact region land in log-linear buckets; the
	// quantile must come back within the bucket's relative width.
	h.Observe(100_000)
	if got := h.Quantile(50); got < 100_000 || float64(got) > 100_000*1.15 {
		t.Errorf("tail quantile = %d, want within ~12%% above 100000", got)
	}
	// Beyond the largest bound the overflow bucket reports the exact max.
	h2 := NewHistogram(nil)
	h2.Observe(1 << 30)
	if got := h2.Quantile(99); got != 1<<30 {
		t.Errorf("overflow quantile = %d, want exact max", got)
	}
}

func TestHistogramCumulativeExport(t *testing.T) {
	h := NewHistogram(nil)
	for _, v := range []sim.Cycle{0, 1, 2, 3, 4, 8, 9, 1000, 5000, 1 << 25} {
		h.Observe(v)
	}
	buckets := h.Cumulative()
	if len(buckets) == 0 {
		t.Fatal("no export buckets")
	}
	// Cumulative counts must be monotonic and end at Count() minus the
	// overflow observations (which only the implicit +Inf bucket holds).
	var prev uint64
	at := func(ub sim.Cycle) uint64 {
		for _, b := range buckets {
			if b.UpperBound == ub {
				return b.Count
			}
		}
		t.Fatalf("no export bucket le=%d", ub)
		return 0
	}
	for _, b := range buckets {
		if b.Count < prev {
			t.Fatalf("cumulative counts not monotonic at le=%d", b.UpperBound)
		}
		prev = b.Count
	}
	if got := at(1); got != 2 { // values 0, 1
		t.Errorf("le=1 count = %d, want 2", got)
	}
	if got := at(4); got != 5 { // + 2, 3, 4
		t.Errorf("le=4 count = %d, want 5", got)
	}
	if got := at(16); got != 7 { // + 8, 9
		t.Errorf("le=16 count = %d, want 7", got)
	}
	if got := buckets[len(buckets)-1].Count; got != 9 { // all but 1<<25
		t.Errorf("last finite bucket = %d, want 9", got)
	}
	if h.Count() != 10 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestHistogramMergeBitExact(t *testing.T) {
	r := rng.New(7)
	values := make([]sim.Cycle, 5000)
	for i := range values {
		values[i] = sim.Cycle(r.Intn(20000))
	}
	whole := NewHistogram(nil)
	for _, v := range values {
		whole.Observe(v)
	}
	// Shard the observations over 8 histograms and merge: the result
	// must be identical field-for-field regardless of sharding.
	shards := make([]*Histogram, 8)
	for i := range shards {
		shards[i] = NewHistogram(nil)
	}
	for i, v := range values {
		shards[i%8].Observe(v)
	}
	merged := NewHistogram(nil)
	for _, s := range shards {
		if err := merged.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(whole.Snapshot(), merged.Snapshot()) {
		t.Fatal("merged histogram diverged from whole-stream histogram")
	}
	if whole.Quantile(99) != merged.Quantile(99) {
		t.Fatal("p99 diverged after merge")
	}
}

func TestHistogramMergeBoundsMismatch(t *testing.T) {
	a := NewHistogram(nil)
	b := NewHistogram([]sim.Cycle{1, 2, 3})
	b.Observe(2)
	if err := a.Merge(b); err == nil {
		t.Fatal("merge accepted mismatched bucket layouts")
	}
}

// TestCollectorMergeSweepFanOut is the sweep fan-out acceptance test:
// recording a packet population into one collector versus sharding it
// over per-worker collectors (at any worker count) and merging in index
// order must produce byte-identical summaries and identical histogram
// snapshots.
func TestCollectorMergeSweepFanOut(t *testing.T) {
	mk := func(i int) *flit.Packet {
		return &flit.Packet{
			CreatedAt: sim.Cycle(i), InjectedAt: sim.Cycle(i + 1 + i%3),
			EjectedAt: sim.Cycle(i + 10 + (i*i)%97),
			Class:     flit.Class(i % 2), Size: 1 + i%5,
		}
	}
	const n = 2000
	whole := NewCollector(5)
	for i := 0; i < n; i++ {
		p := mk(i)
		whole.RecordCreation(p)
		whole.RecordEjection(p)
	}
	for _, workers := range []int{1, 8} {
		const shards = 16
		parts := sweep.Run(shards, workers, func(s int) *Collector {
			c := NewCollector(5)
			for i := s; i < n; i += shards {
				p := mk(i)
				c.RecordCreation(p)
				c.RecordEjection(p)
			}
			return c
		})
		merged := NewCollector(5)
		for _, part := range parts {
			if err := merged.Merge(part); err != nil {
				t.Fatal(err)
			}
		}
		if merged.Measured() != whole.Measured() {
			t.Fatalf("workers=%d: measured %d vs %d", workers, merged.Measured(), whole.Measured())
		}
		if !reflect.DeepEqual(whole.Snapshot(), merged.Snapshot()) {
			t.Fatalf("workers=%d: merged latency histograms diverged", workers)
		}
		for q := range []int{50, 95, 99} {
			if whole.Percentile(float64(q)) != merged.Percentile(float64(q)) {
				t.Fatalf("workers=%d: p%d diverged", workers, q)
			}
		}
		if whole.MinLatency() != merged.MinLatency() || whole.MaxLatency() != merged.MaxLatency() {
			t.Fatalf("workers=%d: extremes diverged", workers)
		}
	}
}

func TestCollectorSnapshot(t *testing.T) {
	c := NewCollector(0)
	for i := 0; i < 10; i++ {
		p := &flit.Packet{CreatedAt: 0, InjectedAt: 2, EjectedAt: sim.Cycle(10 + i), Size: 2}
		c.RecordCreation(p)
		c.RecordEjection(p)
	}
	s := c.Snapshot()
	if s.Created != 10 || s.Ejected != 10 || s.Measured != 10 || s.InFlight != 0 {
		t.Fatalf("snapshot counts: %+v", s)
	}
	if s.Latency.P50 != sim.Cycle(c.Percentile(50)) {
		t.Errorf("snapshot p50 %d vs collector %v", s.Latency.P50, c.Percentile(50))
	}
	if s.AvgLatency != c.AvgLatency() {
		t.Errorf("snapshot avg %v vs %v", s.AvgLatency, c.AvgLatency())
	}
	// Snapshot of an empty collector must be all zeros, not NaN.
	empty := NewCollector(100).Snapshot()
	if empty.AvgLatency != 0 || empty.Latency.P99 != 0 || empty.Latency.Count != 0 {
		t.Errorf("empty snapshot: %+v", empty)
	}
}

// TestHistogramMergeSameLengthDifferentBounds: equal bucket counts with
// different bounds must be rejected too — adding such counts silently
// reassigns observations to different latency ranges.
func TestHistogramMergeSameLengthDifferentBounds(t *testing.T) {
	a := NewHistogram([]sim.Cycle{1, 2, 3})
	b := NewHistogram([]sim.Cycle{1, 2, 4})
	a.Observe(1)
	b.Observe(4)
	if err := a.Merge(b); err == nil {
		t.Fatal("merge accepted same-length histograms with different bounds")
	}
	// Identical (but separately allocated) bounds merge fine.
	c := NewHistogram([]sim.Cycle{1, 2, 3})
	c.Observe(3)
	if err := a.Merge(c); err != nil {
		t.Fatalf("merge rejected identical bounds: %v", err)
	}
	if a.Count() != 2 {
		t.Fatalf("count after merge = %d, want 2", a.Count())
	}
}

// TestHistogramQuantileEdges pins Quantile's edge behavior: empty,
// single-element and p=100 inputs, plus ranks landing in the overflow
// bucket (where the exact observed max is reported).
func TestHistogramQuantileEdges(t *testing.T) {
	empty := NewHistogram(nil)
	for _, p := range []float64{1, 50, 100} {
		if got := empty.Quantile(p); got != 0 {
			t.Errorf("empty p%v = %d, want 0", p, got)
		}
	}
	single := NewHistogram(nil)
	single.Observe(37)
	for _, p := range []float64{0.01, 1, 50, 99, 100} {
		if got := single.Quantile(p); got != 37 {
			t.Errorf("single-element p%v = %d, want 37", p, got)
		}
	}
	overflow := NewHistogram([]sim.Cycle{10, 20})
	overflow.Observe(5)
	overflow.Observe(123456) // overflow bucket
	if got := overflow.Quantile(100); got != 123456 {
		t.Errorf("overflow p100 = %d, want the exact max 123456", got)
	}
	if got := overflow.Quantile(50); got != 10 {
		t.Errorf("p50 = %d, want bucket bound 10", got)
	}
}
