package stats

import (
	"reflect"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/rng"
	"gonoc/internal/sim"
)

// fullHistogram returns a histogram over the default bounds whose counts
// are the full layout from the start: what every histogram was before
// counts became small-first, and the reference the short ones must agree
// with bit for bit.
func fullHistogram() *Histogram {
	h := NewHistogram(nil)
	h.own(len(h.bounds))
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
	h := NewHistogram(nil)
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
	if want := len(h.bounds) + 1; len(h.counts) != want {
		t.Errorf("counts holds %d buckets after a value of %d, want the full %d", len(h.counts), shortBuckets, want)
	}
	if h.counts[5] != 11 || h.counts[shortBuckets] != 1 {
		t.Errorf("growing lost counts: bucket 5 = %d (want 11), bucket %d = %d (want 1)",
			h.counts[5], shortBuckets, h.counts[shortBuckets])
	}

	climb := testing.AllocsPerRun(5, func() {
		c := NewHistogram(nil)
		for v := sim.Cycle(0); v < 6000; v++ {
			c.Observe(v)
		}
	})
	if climb != 2 {
		t.Errorf("a histogram climbing through 6000 buckets allocates %.0f arrays, want 2 (short, then full)", climb)
	}

	// A layout no longer than the short array is allocated whole.
	tiny := NewHistogram([]sim.Cycle{1, 2, 3})
	tiny.Observe(2)
	if len(tiny.counts) != 4 {
		t.Errorf("3-bound histogram holds %d buckets, want 4", len(tiny.counts))
	}
}

// TestHistogramCloneCopiesWhatExists checks copy-on-write over a short
// array: the clone's first write copies shortBuckets counters, not the
// full layout, and neither side sees the other's later observations.
func TestHistogramCloneCopiesWhatExists(t *testing.T) {
	h := NewHistogram(nil)
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
	if len(h.counts) != shortBuckets || len(g.counts) != len(g.bounds)+1 {
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

	short := fill(NewHistogram(nil), small)
	if len(short.counts) != shortBuckets {
		t.Fatalf("the short operand holds %d buckets", len(short.counts))
	}
	same("short", short, fill(fullHistogram(), small))
	same("grown", fill(NewHistogram(nil), large), fill(fullHistogram(), large))

	merge := func(dst, src *Histogram) *Histogram {
		t.Helper()
		if err := dst.Merge(src); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	wantSL := merge(fill(fullHistogram(), small), fill(fullHistogram(), large))
	same("short.Merge(full)", merge(fill(NewHistogram(nil), small), fill(NewHistogram(nil), large)), wantSL)
	wantLS := merge(fill(fullHistogram(), large), fill(fullHistogram(), small))
	same("full.Merge(short)", merge(fill(NewHistogram(nil), large), fill(NewHistogram(nil), small)), wantLS)
	same("empty.Merge(short)", merge(NewHistogram(nil), fill(NewHistogram(nil), small)), fill(fullHistogram(), small))
	shortBoth := merge(fill(NewHistogram(nil), small), fill(NewHistogram(nil), small))
	if len(shortBoth.counts) != shortBuckets {
		t.Errorf("merging two short histograms produced %d buckets", len(shortBoth.counts))
	}
	same("short.Merge(short)", shortBoth, merge(fill(fullHistogram(), small), fill(fullHistogram(), small)))

	// Merging into a clone must not write through to the original.
	orig := fill(NewHistogram(nil), small)
	cl := orig.Clone()
	merge(cl, fill(NewHistogram(nil), large))
	same("original after its clone merged", orig, fill(fullHistogram(), small))
}

// TestHistogramMergeLayoutMismatchWhileShort covers the merges that
// len(counts) used to reject and no longer can: two histograms whose
// counts are equally long only because both are still short (or because
// a custom layout happens to be shortBuckets long) but whose bounds
// differ must still be refused, and must be left unmodified.
func TestHistogramMergeLayoutMismatchWhileShort(t *testing.T) {
	ramp := func(n int, step sim.Cycle) []sim.Cycle {
		b := make([]sim.Cycle, n)
		for i := range b {
			b[i] = sim.Cycle(i) * step
		}
		return b
	}
	def := NewHistogram(nil)
	def.Observe(5)
	for _, tc := range []struct {
		name   string
		bounds []sim.Cycle
	}{
		{"custom layout exactly shortBuckets long", ramp(shortBuckets-1, 1)},
		{"longer custom layout, still short", ramp(200, 1)},
		{"same bucket count as the default, other bounds", ramp(len(latencyBounds), 2)},
	} {
		o := NewHistogram(tc.bounds)
		o.Observe(5)
		if len(o.counts) != len(def.counts) {
			t.Fatalf("%s: operands hold %d vs %d buckets; the case needs them equal", tc.name, len(o.counts), len(def.counts))
		}
		for _, pair := range [][2]*Histogram{{def, o}, {o, def}} {
			dst := pair[0].Clone()
			if err := dst.Merge(pair[1]); err == nil {
				t.Errorf("%s: merge accepted mismatched bucket layouts", tc.name)
			}
			if dst.Count() != 1 {
				t.Errorf("%s: a refused merge changed the receiver (count %d)", tc.name, dst.Count())
			}
		}
	}
}

// TestCheckpointRoundTrip holds Collector.SaveTo/RestoreFrom to what
// Clone/CopyFrom do: a checkpoint restores the statistics it was taken
// at whatever the collector recorded since — into the collector it came
// from (whose histogram structs are reused: no allocation) and into a
// fresh one — it survives being restored from twice, and a checkpoint of
// a collector that has not recorded anything restores an empty one.
func TestCheckpointRoundTrip(t *testing.T) {
	eject := func(c *Collector, lat sim.Cycle, class flit.Class) {
		p := &flit.Packet{Size: 2, Class: class, CreatedAt: 10, InjectedAt: 12, EjectedAt: 10 + lat}
		c.RecordCreation(p)
		c.RecordEjection(p)
	}
	c := NewCollector(0)
	var empty, cp Checkpoint
	c.SaveTo(&empty)
	for i := 0; i < 20; i++ {
		eject(c, sim.Cycle(5+i), flit.Class(i%2))
	}
	want := c.Clone()
	c.SaveTo(&cp)
	eject(c, 300, flit.Response) // past shortBuckets: the live histograms grow, the checkpoint must not
	if reflect.DeepEqual(c.Snapshot(), want.Snapshot()) {
		t.Fatal("recording after the checkpoint changed nothing; case exercises nothing")
	}

	fresh := NewCollector(7)
	for round := 0; round < 2; round++ {
		if got := testing.AllocsPerRun(5, func() { c.RestoreFrom(&cp) }); got != 0 {
			t.Errorf("round %d: restoring into the collector the checkpoint came from allocates %.0f objects", round, got)
		}
		fresh.RestoreFrom(&cp)
		for name, got := range map[string]*Collector{"same collector": c, "fresh collector": fresh} {
			if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) || got.Summary() != want.Summary() {
				t.Errorf("round %d, %s: restored statistics differ from those checkpointed:\n%s\n%s", round, name, got.Summary(), want.Summary())
			}
		}
		eject(c, 400, flit.Request)
		eject(fresh, 2, flit.Request)
	}

	c.RestoreFrom(&empty)
	if !reflect.DeepEqual(c.Snapshot(), NewCollector(0).Snapshot()) {
		t.Errorf("the checkpoint of an unused collector restored %s", c.Summary())
	}
	eject(c, 9, flit.Request)
	if c.Ejected() != 1 {
		t.Errorf("a collector restored to empty recorded %d ejections of 1", c.Ejected())
	}
}
