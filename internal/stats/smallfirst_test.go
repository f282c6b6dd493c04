package stats

import (
	"reflect"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/rng"
	"gonoc/internal/sim"
)

// fullHistogram returns a histogram whose counts are the full layout
// from the start: what every histogram was before counts became
// small-first, and the reference the short ones must agree with bit for
// bit.
func fullHistogram() *Histogram {
	h := new(Histogram)
	h.own(overflow)
	return h
}

// TestHistogramSmallFirstAllocation pins the two-step growth policy: a
// histogram that only sees values below shortBuckets holds the short
// array and Observe allocates nothing once it exists; the first larger
// value takes counts straight to the full layout; and a histogram's
// lifetime allocation is one short array and one full one however
// slowly its values climb (growing geometrically instead cost
// 14-17% more heap on the loaded-mesh workloads).
func TestHistogramSmallFirstAllocation(t *testing.T) {
	h := new(Histogram)
	if h.counts != nil {
		t.Errorf("a new histogram holds %d buckets before any observation", len(h.counts))
	}
	h.Observe(0)
	if allocs := testing.AllocsPerRun(10, func() {
		for v := sim.Cycle(0); v < shortBuckets; v++ {
			h.Observe(v)
		}
	}); allocs != 0 {
		t.Errorf("observing values below %d allocates %.0f objects/run, want 0", shortBuckets, allocs)
	}
	if len(h.counts) != shortBuckets {
		t.Errorf("counts holds %d buckets after values below %d, want %d", len(h.counts), shortBuckets, shortBuckets)
	}
	h.Observe(shortBuckets)
	if want := overflow + 1; len(h.counts) != want {
		t.Errorf("counts holds %d buckets after a value of %d, want the full %d", len(h.counts), shortBuckets, want)
	}
	if h.counts[5] != 11 || h.counts[shortBuckets] != 1 {
		t.Errorf("growing lost counts: bucket 5 = %d (want 11), bucket %d = %d (want 1)",
			h.counts[5], shortBuckets, h.counts[shortBuckets])
	}

	climb := testing.AllocsPerRun(5, func() {
		c := new(Histogram)
		for v := sim.Cycle(0); v < 6000; v++ {
			c.Observe(v)
		}
	})
	if climb != 2 {
		t.Errorf("a histogram climbing through 6000 buckets allocates %.0f arrays, want 2 (short, then full)", climb)
	}
}

// TestHistogramCloneCopiesWhatExists checks copy-on-write over a short
// array: the clone's first write copies shortBuckets counters, not the
// full layout, and neither side sees the other's later observations.
func TestHistogramCloneCopiesWhatExists(t *testing.T) {
	h := new(Histogram)
	h.Observe(3)
	c := h.Clone()
	c.Observe(3)
	c.Observe(7)
	if len(c.counts) != shortBuckets {
		t.Errorf("clone's first write produced %d buckets, want the %d that existed", len(c.counts), shortBuckets)
	}
	h.Observe(9)
	if h.counts[3] != 1 || h.counts[7] != 0 || h.counts[9] != 1 {
		t.Errorf("original saw the clone's writes: %v", h.counts[:10])
	}
	if c.counts[3] != 2 || c.counts[7] != 1 || c.counts[9] != 0 {
		t.Errorf("clone saw the original's writes: %v", c.counts[:10])
	}
	if h.Count() != 2 || c.Count() != 3 {
		t.Errorf("counts %d/%d, want 2/3", h.Count(), c.Count())
	}

	// A clone taken while short that then grows leaves the original short.
	g := h.Clone()
	g.Observe(5000)
	if len(h.counts) != shortBuckets || len(g.counts) != overflow+1 {
		t.Errorf("after the clone grew: original %d buckets, clone %d", len(h.counts), len(g.counts))
	}
}

// TestHistogramShortFullEquivalence observes the same values into
// small-first histograms and into all-full references and requires every
// derived result — the snapshot (count, sum, extremes, p50/p95/p99,
// cumulative export buckets), a sweep of quantiles, and merges in both
// directions between a short and a full histogram — to be identical.
func TestHistogramShortFullEquivalence(t *testing.T) {
	r := rng.New(11)
	var small, large []sim.Cycle
	for i := 0; i < 400; i++ {
		small = append(small, sim.Cycle(r.Intn(shortBuckets)))
		large = append(large, sim.Cycle(r.Intn(30000)))
	}
	fill := func(h *Histogram, vs []sim.Cycle) *Histogram {
		for _, v := range vs {
			h.Observe(v)
		}
		return h
	}
	same := func(name string, got, want *Histogram) {
		t.Helper()
		if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
			t.Errorf("%s: snapshot differs from the all-full reference:\n got %+v\nwant %+v", name, got.Snapshot(), want.Snapshot())
		}
		for q := 0.5; q <= 100; q += 0.5 {
			if g, w := got.Quantile(q), want.Quantile(q); g != w {
				t.Errorf("%s: Quantile(%v) = %d, reference %d", name, q, g, w)
			}
		}
		for i, w := range want.counts {
			var g uint64
			if i < len(got.counts) {
				g = got.counts[i]
			}
			if g != w {
				t.Fatalf("%s: bucket %d = %d, reference %d", name, i, g, w)
			}
		}
	}

	short := fill(new(Histogram), small)
	if len(short.counts) != shortBuckets {
		t.Fatalf("the short operand holds %d buckets", len(short.counts))
	}
	same("short", short, fill(fullHistogram(), small))
	same("grown", fill(new(Histogram), large), fill(fullHistogram(), large))

	merge := func(dst, src *Histogram) *Histogram {
		dst.Merge(src)
		return dst
	}
	wantSL := merge(fill(fullHistogram(), small), fill(fullHistogram(), large))
	same("short.Merge(full)", merge(fill(new(Histogram), small), fill(new(Histogram), large)), wantSL)
	wantLS := merge(fill(fullHistogram(), large), fill(fullHistogram(), small))
	same("full.Merge(short)", merge(fill(new(Histogram), large), fill(new(Histogram), small)), wantLS)
	same("empty.Merge(short)", merge(new(Histogram), fill(new(Histogram), small)), fill(fullHistogram(), small))
	shortBoth := merge(fill(new(Histogram), small), fill(new(Histogram), small))
	if len(shortBoth.counts) != shortBuckets {
		t.Errorf("merging two short histograms produced %d buckets", len(shortBoth.counts))
	}
	same("short.Merge(short)", shortBoth, merge(fill(fullHistogram(), small), fill(fullHistogram(), small)))

	// Merging into a clone must not write through to the original.
	orig := fill(new(Histogram), small)
	cl := orig.Clone()
	merge(cl, fill(new(Histogram), large))
	same("original after its clone merged", orig, fill(fullHistogram(), small))
}

// TestCheckpointRoundTrip uses a Collector value as a checkpoint, as a
// network snapshot does: CopyFrom into it, and later back, restores the
// statistics it was taken at whatever the collector recorded since —
// into the collector it came from (without allocating) and into a fresh
// one — it survives being restored from twice, and a checkpoint of a
// collector that has not recorded anything restores an empty one.
func TestCheckpointRoundTrip(t *testing.T) {
	eject := func(c *Collector, lat sim.Cycle, class flit.Class) {
		p := &flit.Packet{Size: 2, Class: class, CreatedAt: 10, InjectedAt: 12, EjectedAt: 10 + lat}
		c.RecordCreation(p)
		c.RecordEjection(p)
	}
	c := NewCollector(0)
	var empty, cp Collector
	empty.CopyFrom(c)
	for i := 0; i < 20; i++ {
		eject(c, sim.Cycle(5+i), flit.Class(i%2))
	}
	want, wantSummary := c.Snapshot(), c.Summary()
	cp.CopyFrom(c)
	eject(c, 300, flit.Response) // past shortBuckets: the live histograms grow, the checkpoint must not
	if reflect.DeepEqual(c.Snapshot(), want) {
		t.Fatal("recording after the checkpoint changed nothing; case exercises nothing")
	}

	fresh := NewCollector(7)
	for round := 0; round < 2; round++ {
		if got := testing.AllocsPerRun(5, func() { c.CopyFrom(&cp) }); got != 0 {
			t.Errorf("round %d: restoring into the collector the checkpoint came from allocates %.0f objects", round, got)
		}
		fresh.CopyFrom(&cp)
		for name, got := range map[string]*Collector{"same collector": c, "fresh collector": fresh} {
			if !reflect.DeepEqual(got.Snapshot(), want) || got.Summary() != wantSummary {
				t.Errorf("round %d, %s: restored statistics differ from those checkpointed:\n%s\n%s", round, name, got.Summary(), wantSummary)
			}
		}
		eject(c, 400, flit.Request)
		eject(fresh, 2, flit.Request)
	}

	c.CopyFrom(&empty)
	if !reflect.DeepEqual(c.Snapshot(), NewCollector(0).Snapshot()) {
		t.Errorf("the checkpoint of an unused collector restored %s", c.Summary())
	}
	eject(c, 9, flit.Request)
	if c.Ejected() != 1 {
		t.Errorf("a collector restored to empty recorded %d ejections of 1", c.Ejected())
	}
}
