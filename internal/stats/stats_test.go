package stats

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/sim"
)

func mkPkt(created, ejected sim.Cycle, cls flit.Class, size int) *flit.Packet {
	return &flit.Packet{CreatedAt: created, InjectedAt: created, EjectedAt: ejected, Class: cls, Size: size}
}

func TestBasicAccounting(t *testing.T) {
	c := NewCollector(0)
	p := &flit.Packet{CreatedAt: 10, InjectedAt: 12, EjectedAt: 40, Size: 5}
	c.RecordCreation(p)
	c.RecordEjection(p)
	if c.Created() != 1 || c.Ejected() != 1 || c.Measured() != 1 {
		t.Fatalf("counts: %d/%d/%d", c.Created(), c.Ejected(), c.Measured())
	}
	if c.AvgLatency() != 30 {
		t.Errorf("AvgLatency = %v", c.AvgLatency())
	}
	if c.AvgNetworkLatency() != 28 {
		t.Errorf("AvgNetworkLatency = %v", c.AvgNetworkLatency())
	}
	if c.InFlight() != 0 {
		t.Errorf("InFlight = %d", c.InFlight())
	}
}

func TestInFlight(t *testing.T) {
	c := NewCollector(0)
	p := mkPkt(0, 10, flit.Request, 1)
	c.RecordCreation(p)
	if c.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", c.InFlight())
	}
	c.RecordEjection(p)
	if c.InFlight() != 0 {
		t.Fatalf("InFlight = %d, want 0", c.InFlight())
	}
}

func TestWarmupExclusion(t *testing.T) {
	c := NewCollector(100)
	early := mkPkt(50, 90, flit.Request, 1)
	late := mkPkt(150, 170, flit.Request, 1)
	for _, p := range []*flit.Packet{early, late} {
		c.RecordCreation(p)
		c.RecordEjection(p)
	}
	if c.Measured() != 1 {
		t.Fatalf("Measured = %d, want 1", c.Measured())
	}
	if c.AvgLatency() != 20 {
		t.Errorf("AvgLatency = %v, want 20 (early packet excluded)", c.AvgLatency())
	}
	if c.Ejected() != 2 {
		t.Errorf("Ejected = %d, want 2", c.Ejected())
	}
}

func TestMinMaxPercentile(t *testing.T) {
	c := NewCollector(0)
	for _, lat := range []sim.Cycle{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		p := mkPkt(0, lat, flit.Request, 1)
		c.RecordCreation(p)
		c.RecordEjection(p)
	}
	if c.MinLatency() != 10 || c.MaxLatency() != 100 {
		t.Errorf("min/max = %d/%d", c.MinLatency(), c.MaxLatency())
	}
	if got := c.Percentile(50); got != 50 {
		t.Errorf("p50 = %v", got)
	}
	if got := c.Percentile(100); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	if got := c.Percentile(1); got != 10 {
		t.Errorf("p1 = %v", got)
	}
}

func TestClassBreakdown(t *testing.T) {
	c := NewCollector(0)
	req := mkPkt(0, 10, flit.Request, 1)
	rsp := mkPkt(0, 30, flit.Response, 5)
	for _, p := range []*flit.Packet{req, rsp} {
		c.RecordCreation(p)
		c.RecordEjection(p)
	}
	if got := c.ClassAvgLatency(flit.Request); got != 10 {
		t.Errorf("request avg = %v", got)
	}
	if got := c.ClassAvgLatency(flit.Response); got != 30 {
		t.Errorf("response avg = %v", got)
	}
	if got := c.AvgLatency(); got != 20 {
		t.Errorf("overall avg = %v", got)
	}
}

func TestThroughput(t *testing.T) {
	c := NewCollector(100)
	for i := 0; i < 10; i++ {
		p := mkPkt(150, 160, flit.Request, 4)
		c.RecordCreation(p)
		c.RecordEjection(p)
	}
	// 40 flits over cycles 100..300 = 0.2 flits/cycle.
	if got := c.ThroughputFlits(300); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("throughput = %v, want 0.2", got)
	}
	if got := c.ThroughputFlits(50); got != 0 {
		t.Errorf("throughput before warmup end = %v", got)
	}
}

// TestThroughputCountsBacklog: ThroughputFlits counts every flit
// ejected in the measured window, the packets created during the warmup
// among them, and none ejected before it.
func TestThroughputCountsBacklog(t *testing.T) {
	c := NewCollector(100)
	for _, p := range []*flit.Packet{
		mkPkt(10, 90, flit.Request, 5),    // ejected in the warmup
		mkPkt(50, 120, flit.Request, 4),   // created in the warmup
		mkPkt(150, 160, flit.Response, 6), // measured
	} {
		c.RecordCreation(p)
		c.RecordEjection(p)
	}
	// 10 flits over cycles 100..300.
	if got := c.ThroughputFlits(300); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("throughput = %v, want 0.05", got)
	}
	if c.Measured() != 1 {
		t.Errorf("measured %d packets, want 1: latency stays tagged by creation", c.Measured())
	}
}

// TestCollectorEqual: Equal agrees with comparing Snapshots and
// Summaries, a short and a full counts array with the same buckets
// filled included.
func TestCollectorEqual(t *testing.T) {
	fill := func(c *Collector, lats ...sim.Cycle) {
		for i, l := range lats {
			p := mkPkt(sim.Cycle(100+i), sim.Cycle(100+i)+l, flit.Class(i%flit.NumClasses), 1+i%5)
			c.RecordCreation(p)
			c.RecordEjection(p)
		}
	}
	a, b := NewCollector(100), NewCollector(100)
	fill(a, 5, 9, 30)
	fill(b, 5, 9, 30)
	b.lat.own(len(latencyBounds)) // same buckets, full-length array
	same := func(x, y *Collector) bool {
		return reflect.DeepEqual(x.Snapshot(), y.Snapshot()) && x.Summary() == y.Summary()
	}
	if !a.Equal(b) || !same(a, b) {
		t.Fatalf("equal collectors: Equal %v, snapshots and summaries equal %v", a.Equal(b), same(a, b))
	}
	for name, change := range map[string]func(c *Collector){
		"one more latency":                 func(c *Collector) { fill(c, 9) },
		"a latency past the short buckets": func(c *Collector) { fill(c, 5000) },
		"a drop":                           func(c *Collector) { c.RecordDrop(nil) },
		"a warmup ejection": func(c *Collector) {
			c.RecordEjection(mkPkt(1, 2, flit.Request, 1))
		},
		"a backlog ejection": func(c *Collector) {
			p := mkPkt(1, 200, flit.Request, 1)
			c.RecordEjection(p)
		},
	} {
		d := a.Clone()
		change(d)
		if d.Equal(a) || a.Equal(d) {
			t.Errorf("%s: Equal still reports the collectors equal", name)
		}
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector(0)
	if c.AvgLatency() != 0 || c.MinLatency() != 0 || c.Percentile(50) != 0 {
		t.Fatal("empty collector returned nonzero stats")
	}
	if c.String() == "" {
		t.Fatal("empty String")
	}
}

// TestAllPacketsInWarmup covers the zero-measured-packets case with
// nonzero traffic: everything was created before Warmup, so every
// latency statistic must return its zero value rather than an
// uninitialized extreme.
func TestAllPacketsInWarmup(t *testing.T) {
	c := NewCollector(1000)
	for i := sim.Cycle(0); i < 5; i++ {
		p := mkPkt(i, i+40, flit.Request, 3)
		c.RecordCreation(p)
		c.RecordEjection(p)
	}
	if c.Created() != 5 || c.Ejected() != 5 {
		t.Fatalf("created/ejected = %d/%d", c.Created(), c.Ejected())
	}
	if c.Measured() != 0 {
		t.Fatalf("Measured = %d, want 0", c.Measured())
	}
	if c.AvgLatency() != 0 || c.AvgNetworkLatency() != 0 {
		t.Errorf("avg latencies = %v/%v, want 0", c.AvgLatency(), c.AvgNetworkLatency())
	}
	// MinLatency must not leak the MaxUint64 initializer.
	if c.MinLatency() != 0 || c.MaxLatency() != 0 {
		t.Errorf("min/max = %d/%d, want 0/0", c.MinLatency(), c.MaxLatency())
	}
	if c.Percentile(50) != 0 || c.Percentile(99) != 0 {
		t.Errorf("percentiles nonzero with no measured packets")
	}
	if c.ClassAvgLatency(flit.Request) != 0 {
		t.Errorf("class avg nonzero with no measured packets")
	}
	// ThroughputFlits at exactly the warmup cutoff must not divide by a
	// zero-length interval.
	if got := c.ThroughputFlits(1000); got != 0 {
		t.Errorf("ThroughputFlits(warmup) = %v, want 0", got)
	}
	// Summary formats every statistic; with measured == 0 it must render
	// zeros, never NaN.
	if s := c.Summary(); strings.Contains(s, "NaN") {
		t.Errorf("Summary contains NaN:\n%s", s)
	}
	// The average-latency methods return float64: assert the exact
	// contract the docs promise — 0, not NaN, on an empty window.
	for name, v := range map[string]float64{
		"AvgLatency": c.AvgLatency(), "AvgNetworkLatency": c.AvgNetworkLatency(),
		"Percentile(95)": c.Percentile(95), "NetworkPercentile(95)": c.NetworkPercentile(95),
		"ClassPercentile": c.ClassPercentile(flit.Response, 99),
	} {
		if math.IsNaN(v) || v != 0 {
			t.Errorf("%s = %v with measured == 0, want 0", name, v)
		}
	}
}

// TestSingleSamplePercentile checks every percentile collapses to the
// lone sample (the index arithmetic must not under- or overflow).
func TestSingleSamplePercentile(t *testing.T) {
	c := NewCollector(0)
	p := mkPkt(0, 37, flit.Request, 1)
	c.RecordCreation(p)
	c.RecordEjection(p)
	for _, q := range []float64{0.1, 1, 50, 99, 100} {
		if got := c.Percentile(q); got != 37 {
			t.Errorf("Percentile(%v) = %v, want 37", q, got)
		}
	}
	if c.MinLatency() != 37 || c.MaxLatency() != 37 {
		t.Errorf("min/max = %d/%d, want 37/37", c.MinLatency(), c.MaxLatency())
	}
}

// TestMinMaxInitialization checks the extremes track a single descending
// then ascending sequence correctly from their initial values.
func TestMinMaxInitialization(t *testing.T) {
	c := NewCollector(0)
	record := func(lat sim.Cycle) {
		p := mkPkt(0, lat, flit.Request, 1)
		c.RecordCreation(p)
		c.RecordEjection(p)
	}
	record(50)
	if c.MinLatency() != 50 || c.MaxLatency() != 50 {
		t.Fatalf("after first sample min/max = %d/%d, want 50/50", c.MinLatency(), c.MaxLatency())
	}
	record(10) // new minimum
	record(90) // new maximum
	if c.MinLatency() != 10 || c.MaxLatency() != 90 {
		t.Errorf("min/max = %d/%d, want 10/90", c.MinLatency(), c.MaxLatency())
	}
}

// TestZeroLatencyPacket: a packet ejected the cycle it was created must
// count as a legitimate 0-cycle minimum, not be confused with "no data".
func TestZeroLatencyPacket(t *testing.T) {
	c := NewCollector(0)
	fast := mkPkt(5, 5, flit.Request, 1)
	slow := mkPkt(5, 25, flit.Request, 1)
	for _, p := range []*flit.Packet{fast, slow} {
		c.RecordCreation(p)
		c.RecordEjection(p)
	}
	if c.MinLatency() != 0 || c.MaxLatency() != 20 {
		t.Errorf("min/max = %d/%d, want 0/20", c.MinLatency(), c.MaxLatency())
	}
	if c.AvgLatency() != 10 {
		t.Errorf("avg = %v, want 10", c.AvgLatency())
	}
}

func TestSummaryDeterministicAndComplete(t *testing.T) {
	build := func() *Collector {
		c := NewCollector(10)
		for i := 0; i < 40; i++ {
			p := &flit.Packet{
				Src: i % 4, Dst: (i + 1) % 4, Size: 1 + i%5,
				CreatedAt: sim.Cycle(i), InjectedAt: sim.Cycle(i + 2),
				EjectedAt: sim.Cycle(i + 20 + i%7),
				Class:     flit.Class(i % 2),
			}
			c.RecordCreation(p)
			c.RecordEjection(p)
		}
		return c
	}
	s1, s2 := build().Summary(), build().Summary()
	if s1 != s2 {
		t.Fatalf("Summary not deterministic:\n%s\nvs\n%s", s1, s2)
	}
	for _, want := range []string{"created 40", "latency avg", "p50", "flits", "class 0", "class 1"} {
		if !strings.Contains(s1, want) {
			t.Fatalf("summary missing %q:\n%s", want, s1)
		}
	}
}

func TestIntPercentile(t *testing.T) {
	if got := IntPercentile(nil, 50); got != 0 {
		t.Errorf("empty = %d", got)
	}
	vals := []int{30, 10, 20, 50, 40, 60, 70, 80, 90, 100}
	cases := []struct {
		p    float64
		want int
	}{{50, 50}, {95, 100}, {99, 100}, {100, 100}, {1, 10}, {10, 10}}
	for _, tc := range cases {
		if got := IntPercentile(vals, tc.p); got != tc.want {
			t.Errorf("IntPercentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	// The input must not be reordered.
	if vals[0] != 30 || vals[9] != 100 {
		t.Error("IntPercentile mutated its input")
	}
	// Nearest-rank must agree with Histogram.Quantile on the same data.
	h := NewHistogram(nil)
	for _, v := range vals {
		h.Observe(sim.Cycle(v))
	}
	for _, p := range []float64{1, 50, 95, 99, 100} {
		if int(h.Quantile(p)) != IntPercentile(vals, p) {
			t.Errorf("histogram and nearest-rank disagree at p%v", p)
		}
	}
}

// TestIntPercentileEdges is the edge table for nearest-rank extraction:
// empty, single-element, and boundary percentiles (clamped, never
// indexing out of range).
func TestIntPercentileEdges(t *testing.T) {
	cases := []struct {
		name string
		vals []int
		p    float64
		want int
	}{
		{"empty/p50", nil, 50, 0},
		{"empty/p100", []int{}, 100, 0},
		{"single/p0.01", []int{7}, 0.01, 7},
		{"single/p50", []int{7}, 50, 7},
		{"single/p100", []int{7}, 100, 7},
		{"pair/p50", []int{9, 3}, 50, 3},
		{"pair/p51", []int{9, 3}, 51, 9},
		{"pair/p100", []int{9, 3}, 100, 9},
		{"clamp/p0", []int{5, 6, 7}, 0, 5},
		{"clamp/p150", []int{5, 6, 7}, 150, 7},
		{"clamp/negative", []int{5, 6, 7}, -10, 5},
	}
	for _, tc := range cases {
		if got := IntPercentile(tc.vals, tc.p); got != tc.want {
			t.Errorf("%s: IntPercentile(%v, %v) = %d, want %d", tc.name, tc.vals, tc.p, got, tc.want)
		}
	}
}

// TestZeroValueCollector: the zero Collector is usable, and its minimum
// is the smallest measured latency, not the zero it starts from.
func TestZeroValueCollector(t *testing.T) {
	var c Collector
	p := mkPkt(3, 10, flit.Request, 2)
	c.RecordCreation(p)
	c.RecordEjection(p)
	if c.Measured() != 1 || c.MinLatency() != 7 || c.MaxLatency() != 7 || c.AvgLatency() != 7 {
		t.Fatalf("measured %d min %d max %d avg %v, want 1/7/7/7",
			c.Measured(), c.MinLatency(), c.MaxLatency(), c.AvgLatency())
	}
	if c.ClassAvgLatency(flit.Request) != 7 || c.Percentile(50) != 7 {
		t.Errorf("class avg %v p50 %v, want 7/7", c.ClassAvgLatency(flit.Request), c.Percentile(50))
	}
}

// TestSummaryBeforeFirstMeasuredPacket pins what a collector reports
// while every packet it has seen fell in the warmup: Summary prints no
// hist or class line, and Snapshot leaves every distribution at its
// zero value, with no export buckets.
func TestSummaryBeforeFirstMeasuredPacket(t *testing.T) {
	c := NewCollector(1000)
	for i := sim.Cycle(0); i < 5; i++ {
		p := mkPkt(i, i+40, flit.Request, 3)
		c.RecordCreation(p)
		c.RecordEjection(p)
	}
	const want = "created 5 ejected 5 measured 0 in-flight 0\n" +
		"latency avg 0 net 0 min 0 max 0\n" +
		"latency p50 0 p95 0 p99 0\n" +
		"flits 0 hopsum 0\n"
	if got := c.Summary(); got != want {
		t.Errorf("Summary:\n%s\nwant:\n%s", got, want)
	}
	s := c.Snapshot()
	if !reflect.DeepEqual(s.Latency, HistogramSnapshot{}) || !reflect.DeepEqual(s.NetworkLatency, HistogramSnapshot{}) ||
		!reflect.DeepEqual(s.Classes, [flit.NumClasses]HistogramSnapshot{}) {
		t.Errorf("Snapshot before the first measured packet holds distributions: %+v", s)
	}
}

// summaryRun fills a collector with a fixed, varied packet stream.
func summaryRun(c *Collector, from, to int) {
	for i := from; i < to; i++ {
		p := &flit.Packet{
			Size:      1 + i%5,
			CreatedAt: sim.Cycle(i), InjectedAt: sim.Cycle(i + 2 + i%3),
			EjectedAt: sim.Cycle(i + 20 + (i*37)%101),
			Class:     flit.Class(i % int(flit.NumClasses)),
		}
		c.RecordCreation(p)
		c.RecordEjection(p)
	}
}

// TestSummaryGolden pins Summary's bytes for a fixed packet stream: the
// averages, extremes and float columns read from the histograms' integer
// state print exactly what the former float accumulators printed.
func TestSummaryGolden(t *testing.T) {
	c := NewCollector(10)
	summaryRun(c, 0, 300)
	c.RecordRetransmit(nil)
	const want = "created 300 ejected 300 measured 290 in-flight 0\n" +
		"dropped 0 duplicates 0 retransmits 1\n" +
		"latency avg 70.05172413793103 net 67.04827586206896 min 20 max 120\n" +
		"latency p50 70 p95 116 p99 120\n" +
		"hist count 290 sum 20315 netsum 19444\n" +
		"flits 870 hopsum 870\n" +
		"class 0 n 145 latsum 10202\n" +
		"class 1 n 145 latsum 10113\n"
	if got := c.Summary(); got != want {
		t.Errorf("Summary:\n%s\nwant:\n%s", got, want)
	}
}

// TestCollectorMergeOrderFree merges the same shards in two orders and
// requires identical summaries.
func TestCollectorMergeOrderFree(t *testing.T) {
	shards := make([]*Collector, 4)
	for i := range shards {
		shards[i] = NewCollector(10)
		summaryRun(shards[i], i*75, (i+1)*75)
	}
	merge := func(order ...int) string {
		var c Collector
		for _, i := range order {
			if err := c.Merge(shards[i]); err != nil {
				t.Fatal(err)
			}
		}
		return c.Summary()
	}
	if a, b := merge(0, 1, 2, 3), merge(3, 1, 0, 2); a != b {
		t.Fatalf("merge order changed the summary:\n%s\nvs\n%s", a, b)
	}
	whole := NewCollector(10)
	summaryRun(whole, 0, 300)
	if got := merge(2, 0, 3, 1); got != whole.Summary() {
		t.Errorf("merged shards:\n%s\nsingle collector:\n%s", got, whole.Summary())
	}
}
