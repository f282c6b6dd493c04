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
	h := new(Histogram)
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
	h := new(Histogram)
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
	h := new(Histogram)
	// Values beyond the exact region land in log-linear buckets; the
	// quantile must come back within the bucket's relative width.
	h.Observe(100_000)
	if got := h.Quantile(50); got < 100_000 || float64(got) > 100_000*1.15 {
		t.Errorf("tail quantile = %d, want within ~12%% above 100000", got)
	}
	// Beyond the largest bound the overflow bucket reports the exact max.
	h2 := new(Histogram)
	h2.Observe(1 << 30)
	if got := h2.Quantile(99); got != 1<<30 {
		t.Errorf("overflow quantile = %d, want exact max", got)
	}
}

func TestHistogramCumulativeExport(t *testing.T) {
	h := new(Histogram)
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
	whole := new(Histogram)
	for _, v := range values {
		whole.Observe(v)
	}
	// Shard the observations over 8 histograms and merge: the result
	// must be identical field-for-field regardless of sharding.
	shards := make([]*Histogram, 8)
	for i := range shards {
		shards[i] = new(Histogram)
	}
	for i, v := range values {
		shards[i%8].Observe(v)
	}
	merged := new(Histogram)
	for _, s := range shards {
		merged.Merge(s)
	}
	if !reflect.DeepEqual(whole.Snapshot(), merged.Snapshot()) {
		t.Fatal("merged histogram diverged from whole-stream histogram")
	}
	if whole.Quantile(99) != merged.Quantile(99) {
		t.Fatal("p99 diverged after merge")
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

// TestHistogramQuantileEdges pins Quantile's edge behavior: empty,
// single-element and p=100 inputs, plus ranks landing in the overflow
// bucket (where the exact observed max is reported).
func TestHistogramQuantileEdges(t *testing.T) {
	empty := new(Histogram)
	for _, p := range []float64{1, 50, 100} {
		if got := empty.Quantile(p); got != 0 {
			t.Errorf("empty p%v = %d, want 0", p, got)
		}
	}
	single := new(Histogram)
	single.Observe(37)
	for _, p := range []float64{0.01, 1, 50, 99, 100} {
		if got := single.Quantile(p); got != 37 {
			t.Errorf("single-element p%v = %d, want 37", p, got)
		}
	}
	over := new(Histogram)
	over.Observe(5000)
	over.Observe(1<<24 + 1) // the overflow bucket
	if got := over.Quantile(100); got != 1<<24+1 {
		t.Errorf("overflow p100 = %d, want the exact max %d", got, 1<<24+1)
	}
	if got := over.Quantile(50); got != 5120 {
		t.Errorf("p50 = %d, want bucket bound 5120", got)
	}
}

// TestBucketLayoutMatchesTable holds bucket and upper to a reference
// table of inclusive upper bounds, built by the plain loop over the
// exact region and the octaves: upper(i) is the table's bound i, and
// bucket(v) is the index of the first bound >= v (len(table), the
// overflow bucket, past the last one), for every v up to just past the
// last bound.
func TestBucketLayoutMatchesTable(t *testing.T) {
	var table []sim.Cycle
	for v := sim.Cycle(0); v <= maxExactLatency; v++ {
		table = append(table, v)
	}
	for lo := sim.Cycle(maxExactLatency); lo < 1<<24; lo *= 2 {
		step := lo / 8
		for v := lo + step; v <= lo*2; v += step {
			table = append(table, v)
		}
	}
	if len(table) != overflow {
		t.Fatalf("the table has %d bounds, the layout %d finite buckets", len(table), overflow)
	}
	for i, b := range table {
		if got := upper(i); got != b {
			t.Fatalf("upper(%d) = %d, table %d", i, got, b)
		}
	}
	i := 0
	for v := sim.Cycle(0); v <= 1<<24+2; v++ {
		for i < len(table) && table[i] < v {
			i++
		}
		if got := bucket(v); got != i {
			t.Fatalf("bucket(%d) = %d, table %d", v, got, i)
		}
	}
	if i != overflow {
		t.Fatalf("the scan ended at bucket %d, not overflow (%d)", i, overflow)
	}
}
