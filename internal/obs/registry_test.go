package obs

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
)

// seriesDigest folds a snapshot's series — key, value and kind of series,
// in order — into one value.
func seriesDigest(ss []Sample) uint64 {
	h := fnv.New64a()
	for _, s := range ss {
		fmt.Fprintf(h, "%d/%d/%d/%d/%d/%v;", s.Key.Router, s.Key.Kind, s.Key.Port, s.Key.VC, s.Value, s.IsGauge)
	}
	return h.Sum64()
}

// TestSnapshotSeriesGolden pins what Snapshot lists for bound handles:
// the same series, in the same order, zero rows included, as the
// registry that kept every series in one map (counts and digests recorded
// at 6a72585). The last row mixes in series no block holds — fault kinds
// on a bound router, on an unbound one and network-global — which must
// merge into the blocks' order.
func TestSnapshotSeriesGolden(t *testing.T) {
	cases := []struct {
		name         string
		router, node bool
		faults       bool
		series       int
		digest       uint64
	}{
		{"router and node", true, true, false, 158, 0x4fc556bb84388afd},
		{"router only", true, false, false, 140, 0x1926a9e4e77b5b41},
		{"node only", false, true, false, 18, 0xd1ed5623120e2ba5},
		{"with map-held series", true, true, true, 162, 0x716d1aae02a9cf3c},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := New(0)
			if tc.router {
				BindRouter(o, 3, 5, 4)
			}
			if tc.node {
				BindNode(o, 3, 5, 4)
			}
			if tc.faults {
				o.RecordFault(KFaultsInjected, EvFaultInject, 1, 3, 2, 0, 0, "x")
				o.RecordFault(KFaultsDetected, EvFaultDetect, 1, -1, -1, -1, 0, "y")
				o.RecordFault(KFaultsInjected, EvFaultInject, 1, 9, 2, 0, 0, "x")
				o.RecordFault(KFaultsTransient, EvFaultInject, 1, 1, 0, 0, 0, "x")
			}
			ss := o.Metrics.Snapshot()
			if len(ss) != tc.series || seriesDigest(ss) != tc.digest {
				t.Fatalf("Snapshot lists %d series, digest %#x; want %d, %#x",
					len(ss), seriesDigest(ss), tc.series, tc.digest)
			}
			for i := 1; i < len(ss); i++ {
				if !keyLess(ss[i-1].Key, ss[i].Key) {
					t.Fatalf("series %d and %d out of order: %+v, %+v", i-1, i, ss[i-1].Key, ss[i].Key)
				}
			}
			if tc.faults {
				if got := len(o.Metrics.PerRouter()); got != 4 {
					t.Errorf("PerRouter lists %d routers, want 4 (3, 9, 1 and the global -1)", got)
				}
			}
		})
	}
}

// TestSharedRegistrySumsIntoOneBlock binds two networks' worth of
// handles to one Observer: both get the same block, so their counts sum
// (the sweep fan-out contract), and Counter resolves the block's series.
func TestSharedRegistrySumsIntoOneBlock(t *testing.T) {
	o := New(0)
	ra, rb := BindRouter(o, 2, 5, 4), BindRouter(o, 2, 5, 4)
	na, nb := BindNode(o, 2, 5, 4), BindNode(o, 2, 5, 4)
	ra.SAGrant(1, 3, 1, 2, false)
	rb.SAGrant(1, 3, 1, 2, false)
	ra.Stall(StallArbLost, 4, 3)
	rb.Stall(StallArbLost, 4, 3)
	na.LinkFlit(2, 1)
	nb.LinkFlit(2, 1)
	na.NIFlitSent()
	nb.NIFlitSent()
	for _, c := range []struct {
		key  Key
		want uint64
	}{
		{Key{Kind: KSAGrants, Router: 2, Port: 3, VC: NoVC}, 2},
		{Key{Kind: KStallArbLost, Router: 2, Port: 4, VC: 3}, 2},
		{Key{Kind: KLinkFlits, Router: 2, Port: 2, VC: NoVC}, 2},
		{Key{Kind: KNIFlitsSent, Router: 2, Port: NoPort, VC: NoVC}, 2},
		{Key{Kind: KSAGrants, Router: 2, Port: 0, VC: NoVC}, 0},
	} {
		if got := o.Metrics.Counter(c.key).Value(); got != c.want {
			t.Errorf("%+v = %d, want %d", c.key, got, c.want)
		}
	}
	if got := len(o.Metrics.Snapshot()); got != 158 {
		t.Errorf("two networks on one registry list %d series, want one block's 158", got)
	}
	na.NIQueueDepth(3)
	if got := o.Metrics.Gauge(Key{Kind: KNIQueueDepth, Router: 2, Port: NoPort, VC: NoVC}).Value(); got != 3 {
		t.Errorf("queue-depth gauge = %d, want 3", got)
	}
}

// TestRegistryKeysOutsideBlocks covers the series the map still holds:
// fault kinds, a router nothing bound, dimensions a block kind does not
// have. They resolve, keep their identity across lookups and show up in
// Snapshot and PerRouter.
func TestRegistryKeysOutsideBlocks(t *testing.T) {
	o := New(0)
	BindRouter(o, 0, 5, 4)
	BindNode(o, 0, 5, 4)
	outside := []Key{
		{Kind: KFaultsInjected, Router: 0, Port: 2, VC: 1}, // fault kind on a bound router
		{Kind: KFlitsRouted, Router: 0, Port: NoPort, VC: NoVC},
		{Kind: KFlitsRouted, Router: 0, Port: 9, VC: NoVC}, // port the block lacks
		{Kind: KStallArbLost, Router: 0, Port: 1, VC: 7},   // VC the block lacks
		{Kind: KFlitsRouted, Router: 5, Port: 1, VC: NoVC}, // unbound router
		{Kind: KFlitsRouted, Router: -1, Port: NoPort, VC: NoVC},
	}
	for i, k := range outside {
		o.Metrics.Counter(k).Add(uint64(i + 1))
	}
	snap := map[Key]int64{}
	for _, s := range o.Metrics.Snapshot() {
		if _, dup := snap[s.Key]; dup {
			t.Fatalf("series %+v listed twice", s.Key)
		}
		snap[s.Key] = s.Value
	}
	for i, k := range outside {
		if got := o.Metrics.Counter(k).Value(); got != uint64(i+1) {
			t.Errorf("%+v = %d on second lookup, want %d", k, got, i+1)
		}
		if snap[k] != int64(i+1) {
			t.Errorf("Snapshot lists %+v = %d, want %d", k, snap[k], i+1)
		}
	}
	if len(snap) != 158+len(outside) {
		t.Errorf("Snapshot lists %d series, want the block's 158 and %d outside it", len(snap), len(outside))
	}
	var flits uint64
	for _, r := range o.Metrics.PerRouter() {
		if r.Router == 0 {
			flits = r.Total[KFlitsRouted]
		}
	}
	if flits != 2+3 {
		t.Errorf("PerRouter sums router 0's flits_routed to %d, want 5 (the two map-held series)", flits)
	}
}

// TestBoundNetworkLeavesMapEmpty is the registry's size contract: binding
// a 32x32 network's handles puts nothing in the maps — the blocks carry
// all 160,768 counters and 1,024 gauges — and afterwards only the fault
// and global keys someone records are created there.
func TestBoundNetworkLeavesMapEmpty(t *testing.T) {
	const nodes = 32 * 32
	o := New(0)
	for id := 0; id < nodes; id++ {
		BindRouter(o, id, 5, 4)
		BindNode(o, id, 5, 4)
	}
	m := o.Metrics
	if len(m.counters) != 0 || len(m.gauges) != 0 {
		t.Fatalf("binding left %d counters and %d gauges in the maps, want none", len(m.counters), len(m.gauges))
	}
	if got := len(m.Snapshot()); got != nodes*158 {
		t.Fatalf("Snapshot lists %d series, want %d", got, nodes*158)
	}
	o.RecordFault(KFaultsInjected, EvFaultInject, 7, 40, 2, 0, 0, "SA1 arbiter")
	o.RecordFault(KFaultsDetected, EvFaultDetect, 9, -1, int(NoPort), int(NoVC), 0, "monitor")
	if len(m.counters) != 2 || len(m.gauges) != 0 {
		t.Fatalf("two fault records left %d counters and %d gauges in the maps, want 2 and 0", len(m.counters), len(m.gauges))
	}
}

// TestFlightDetailRoundTrip sends an event carrying a Detail through a
// node lane — where it is stored as a handle into the side table — and
// through the global lane, then through Trigger, WriteDumps and
// ReadDumps.
func TestFlightDetailRoundTrip(t *testing.T) {
	f := NewFlightRecorder(4, 8)
	in := []Event{
		{Cycle: 5, Kind: EvFaultInject, Router: 2, Port: 3, VC: 1, Arg: 2, Detail: "SA1 arbiter E"},
		{Cycle: 6, Kind: EvFaultTransient, Router: 2, Port: 3, VC: 1, Arg: 40, Detail: "SA1 arbiter E"},
		{Cycle: 6, Kind: EvSAGrant, Router: 2, Port: 1, VC: 0, Arg: 4},
		{Cycle: 7, Kind: EvFaultDetect, Router: -1, Port: NoPort, VC: NoVC, Arg: 1, Detail: "monitor"},
	}
	for _, e := range in {
		f.Record(e)
	}
	if len(f.details) != 1 {
		t.Fatalf("side table holds %d strings, want 1 (one distinct node-lane detail)", len(f.details))
	}
	d := f.Trigger(8, "detail round trip")
	var buf bytes.Buffer
	if err := WriteDumps(&buf, []Dump{d}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDumps(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]Event(nil), in...)
	SortEvents(want)
	if len(back) != 1 || len(back[0].Events) != len(want) {
		t.Fatalf("read back %+v, want one dump of %d events", back, len(want))
	}
	for i, e := range back[0].Events {
		if e != want[i] || d.Events[i] != want[i] {
			t.Errorf("event %d: dumped %+v, read back %+v, want %+v", i, d.Events[i], e, want[i])
		}
	}
}

// TestFlightDetailTableIsBounded records more distinct details than a
// 16-bit handle can name: the first 65,535 keep theirs, the rest degrade
// to an empty Detail, nothing panics and nothing grows further.
func TestFlightDetailTableIsBounded(t *testing.T) {
	const distinct = 1<<16 + 500
	f := NewFlightRecorder(1, distinct)
	for i := 0; i < distinct; i++ {
		f.Record(Event{Cycle: uint64ToCycle(i), Kind: EvFaultInject, Router: 0, Detail: fmt.Sprintf("site %d", i)})
	}
	if len(f.details) != 1<<16-1 || len(f.detailIdx) != 1<<16-1 {
		t.Fatalf("side table grew to %d strings (%d indexed), want it capped at 65535", len(f.details), len(f.detailIdx))
	}
	d := f.Trigger(uint64ToCycle(distinct), "overflow")
	if len(d.Events) != distinct {
		t.Fatalf("dump holds %d events, want %d", len(d.Events), distinct)
	}
	for i, e := range d.Events {
		want := fmt.Sprintf("site %d", i)
		if i >= 1<<16-1 {
			want = ""
		}
		if e.Detail != want {
			t.Fatalf("event %d has detail %q, want %q", i, e.Detail, want)
		}
	}
	// A detail already in the table still resolves once it is full.
	f.Record(Event{Cycle: uint64ToCycle(distinct), Kind: EvFaultInject, Router: 0, Detail: "site 7"})
	if got := f.lanes[0].ring[f.lanes[0].next-1].detail; got != 8 {
		t.Errorf("known detail got handle %d with the table full, want 8", got)
	}
}
