package obs

import (
	"strings"
	"testing"

	"gonoc/internal/sim"
)

// lineCfg wires two routers 0 --(out 1 / in 3)--> 1; port 0 is local.
func lineCfg() SpanConfig {
	return SpanConfig{
		LocalPort: 0,
		NextHop: func(router, out int) (int, int, bool) {
			if router == 0 && out == 1 {
				return 1, 3, true
			}
			return 0, 0, false
		},
	}
}

// twoHopEvents is one two-flit packet 0 -> 1 exercising every phase and
// every fault-tolerance marker the span builder attributes.
func twoHopEvents() []Event {
	return []Event{
		{Cycle: 1, Kind: EvNIOffer, Router: 0, Port: NoPort, VC: NoVC, Arg: 1},
		// Hop 0 at router 0, local input VC (0, 0).
		{Cycle: 2, Kind: EvRCCompute, Router: 0, Port: 0, VC: 0, Arg: 1},
		{Cycle: 3, Kind: EvVABorrowStall, Router: 0, Port: 0, VC: 0},
		{Cycle: 4, Kind: EvVABorrow, Router: 0, Port: 0, VC: 0, Arg: 1},
		{Cycle: 4, Kind: EvVAAlloc, Router: 0, Port: 0, VC: 0, Arg: 1, Arg2: 0},
		{Cycle: 5, Kind: EvSAGrant, Router: 0, Port: 0, VC: 0, Arg: 1},
		{Cycle: 6, Kind: EvXBTraverse, Router: 0, Port: 0, VC: 0, Arg: 1},
		{Cycle: 7, Kind: EvXBTraverse, Router: 0, Port: 0, VC: 0, Arg: 1},
		// Hop 1 at router 1, input (3, 0); head arrived cycle 7.
		{Cycle: 7, Kind: EvRCCompute, Router: 1, Port: 3, VC: 0, Arg: 0},
		{Cycle: 8, Kind: EvVAAlloc, Router: 1, Port: 3, VC: 0, Arg: 0, Arg2: 0},
		{Cycle: 9, Kind: EvSABypass, Router: 1, Port: 3, VC: 0, Arg: 0},
		{Cycle: 10, Kind: EvXBTraverse, Router: 1, Port: 3, VC: 0, Arg: 0},
		{Cycle: 11, Kind: EvXBSecondary, Router: 1, Port: 3, VC: 0, Arg: 0},
		{Cycle: 11, Kind: EvNIEject, Router: 1, Port: NoPort, VC: NoVC, Arg: 10},
	}
}

func TestBuildSpansTwoHopPacket(t *testing.T) {
	set := BuildSpans(twoHopEvents(), lineCfg())
	if len(set.Packets) != 1 || set.Incomplete != 0 || set.Orphans != 0 || set.Dropped != 0 {
		t.Fatalf("set = %d packets, %d incomplete, %d orphans, %d dropped",
			len(set.Packets), set.Incomplete, set.Orphans, set.Dropped)
	}
	p := set.Packets[0]
	if p.Src != 0 || p.Dst != 1 {
		t.Errorf("src->dst = %d->%d, want 0->1", p.Src, p.Dst)
	}
	if p.Offered != 1 || p.Injected != 2 || p.Ejected != 11 || p.Latency != 10 {
		t.Errorf("offered/injected/ejected/latency = %d/%d/%d/%d",
			p.Offered, p.Injected, p.Ejected, p.Latency)
	}
	if p.SourceQueue() != 1 || p.NetworkLatency() != 9 {
		t.Errorf("queue/network = %d/%d, want 1/9", p.SourceQueue(), p.NetworkLatency())
	}
	if len(p.Hops) != 2 {
		t.Fatalf("hops = %d, want 2", len(p.Hops))
	}
	h0, h1 := p.Hops[0], p.Hops[1]
	if h0.Router != 0 || h0.InPort != 0 || h0.Out != 1 || h0.DownVC != 0 {
		t.Errorf("hop0 = %+v", h0)
	}
	if h0.VAWait() != 2 || h0.SAWait() != 1 || h0.Serialize() != 2 || h0.Flits != 2 {
		t.Errorf("hop0 phases va=%d sa=%d ser=%d flits=%d, want 2/1/2/2",
			h0.VAWait(), h0.SAWait(), h0.Serialize(), h0.Flits)
	}
	if h0.Borrows != 1 || h0.BorrowStalls != 1 {
		t.Errorf("hop0 borrows/stalls = %d/%d, want 1/1", h0.Borrows, h0.BorrowStalls)
	}
	if h1.Router != 1 || h1.InPort != 3 || h1.Out != 0 {
		t.Errorf("hop1 = %+v", h1)
	}
	if h1.BypassGrants != 1 || h1.SecondaryFlits != 1 || h1.Flits != 2 {
		t.Errorf("hop1 bypass/secondary/flits = %d/%d/%d, want 1/1/2",
			h1.BypassGrants, h1.SecondaryFlits, h1.Flits)
	}
}

// TestBuildSpansUnsortedInput emits the same events with the two routers'
// streams concatenated out of order, as two workers might: the tracer's
// merge must hand the builder the order that reconstructs the identical
// span.
func TestBuildSpansUnsortedInput(t *testing.T) {
	evs := twoHopEvents()
	tr := NewTracer(64)
	if err := (&Observer{Tracer: tr}).Attach(2, 5, 4); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int32{1, 0} {
		for _, e := range evs {
			if e.Router == r {
				tr.Emit(e)
			}
		}
	}
	set := BuildSpans(tr.Events(), lineCfg())
	if len(set.Packets) != 1 || len(set.Packets[0].Hops) != 2 {
		t.Fatalf("unsorted input not reconstructed: %+v", set)
	}
	if set.Packets[0].Latency != 10 {
		t.Errorf("latency = %d, want 10", set.Packets[0].Latency)
	}
}

// TestBuildSpansBackToBack sends two single-flit packets through the same
// input VC: the second packet's route compute lands in the same cycle as
// the first's tail crossbar traversal, which must close the first hop and
// open the second — not merge them.
func TestBuildSpansBackToBack(t *testing.T) {
	evs := []Event{
		// Packet A through router 0 (single flit).
		{Cycle: 2, Kind: EvRCCompute, Router: 0, Port: 0, VC: 0, Arg: 1},
		{Cycle: 3, Kind: EvVAAlloc, Router: 0, Port: 0, VC: 0, Arg: 1, Arg2: 0},
		{Cycle: 4, Kind: EvSAGrant, Router: 0, Port: 0, VC: 0, Arg: 1},
		{Cycle: 5, Kind: EvXBTraverse, Router: 0, Port: 0, VC: 0, Arg: 1},
		// Packet B reuses (0, 0) the cycle A's tail left.
		{Cycle: 5, Kind: EvRCCompute, Router: 0, Port: 0, VC: 0, Arg: 1},
		{Cycle: 6, Kind: EvVAAlloc, Router: 0, Port: 0, VC: 0, Arg: 1, Arg2: 0},
		{Cycle: 7, Kind: EvSAGrant, Router: 0, Port: 0, VC: 0, Arg: 1},
		{Cycle: 8, Kind: EvXBTraverse, Router: 0, Port: 0, VC: 0, Arg: 1},
		// Router 1: A then B, FIFO through the same downstream VC.
		{Cycle: 6, Kind: EvRCCompute, Router: 1, Port: 3, VC: 0, Arg: 0},
		{Cycle: 7, Kind: EvVAAlloc, Router: 1, Port: 3, VC: 0, Arg: 0, Arg2: 0},
		{Cycle: 8, Kind: EvSAGrant, Router: 1, Port: 3, VC: 0, Arg: 0},
		{Cycle: 9, Kind: EvXBTraverse, Router: 1, Port: 3, VC: 0, Arg: 0},
		{Cycle: 9, Kind: EvNIEject, Router: 1, Port: NoPort, VC: NoVC, Arg: 9},
		{Cycle: 9, Kind: EvRCCompute, Router: 1, Port: 3, VC: 0, Arg: 0},
		{Cycle: 10, Kind: EvVAAlloc, Router: 1, Port: 3, VC: 0, Arg: 0, Arg2: 0},
		{Cycle: 11, Kind: EvSAGrant, Router: 1, Port: 3, VC: 0, Arg: 0},
		{Cycle: 12, Kind: EvXBTraverse, Router: 1, Port: 3, VC: 0, Arg: 0},
		{Cycle: 12, Kind: EvNIEject, Router: 1, Port: NoPort, VC: NoVC, Arg: 8},
	}
	set := BuildSpans(evs, lineCfg())
	if len(set.Packets) != 2 {
		t.Fatalf("packets = %d, want 2 (incomplete %d orphans %d)",
			len(set.Packets), set.Incomplete, set.Orphans)
	}
	a, b := set.Packets[0], set.Packets[1]
	if a.Latency != 9 || b.Latency != 8 {
		t.Errorf("latencies = %d/%d, want 9/8 (ejection order)", a.Latency, b.Latency)
	}
	for i, p := range set.Packets {
		if len(p.Hops) != 2 || p.Hops[0].Flits != 1 || p.Hops[1].Flits != 1 {
			t.Errorf("packet %d hops malformed: %+v", i, p.Hops)
		}
	}
	if a.Injected != 2 || b.Injected != 5 {
		t.Errorf("injections = %d/%d, want 2/5", a.Injected, b.Injected)
	}
}

// TestBuildSpansOrphanAndDropped: a chain that begins on a non-local
// input with no upstream in the window is a ring-wrap orphan, and
// pipeline events with no open hop are counted as dropped.
func TestBuildSpansOrphanAndDropped(t *testing.T) {
	evs := []Event{
		// Mid-flight arrival at router 1 (input 3 is not local, nothing
		// pending): the upstream events were overwritten.
		{Cycle: 5, Kind: EvRCCompute, Router: 1, Port: 3, VC: 1, Arg: 0},
		{Cycle: 6, Kind: EvVAAlloc, Router: 1, Port: 3, VC: 1, Arg: 0, Arg2: 0},
		{Cycle: 7, Kind: EvSAGrant, Router: 1, Port: 3, VC: 1, Arg: 0},
		{Cycle: 8, Kind: EvXBTraverse, Router: 1, Port: 3, VC: 1, Arg: 0},
		{Cycle: 8, Kind: EvNIEject, Router: 1, Port: NoPort, VC: NoVC, Arg: 30},
		// A stray grant with no hop open on its VC.
		{Cycle: 9, Kind: EvSAGrant, Router: 0, Port: 2, VC: 0, Arg: 1},
	}
	set := BuildSpans(evs, lineCfg())
	if len(set.Packets) != 0 {
		t.Fatalf("orphan chain reported as a packet: %+v", set.Packets)
	}
	if set.Orphans != 1 || set.Dropped != 1 || set.Incomplete != 0 {
		t.Errorf("orphans/dropped/incomplete = %d/%d/%d, want 1/1/0",
			set.Orphans, set.Dropped, set.Incomplete)
	}
}

// TestBuildSpansRecompute: a second route computation before any flit
// leaves is the same head being re-served (e.g. by the duplicate unit
// after a fault), not a new packet.
func TestBuildSpansRecompute(t *testing.T) {
	evs := []Event{
		{Cycle: 2, Kind: EvRCCompute, Router: 0, Port: 0, VC: 0, Arg: 1},
		{Cycle: 3, Kind: EvRCDuplicate, Router: 0, Port: 0, VC: 0, Arg: 1},
		{Cycle: 4, Kind: EvVAAlloc, Router: 0, Port: 0, VC: 0, Arg: 0, Arg2: 0},
	}
	set := BuildSpans(evs, SpanConfig{LocalPort: 0, NextHop: lineCfg().NextHop})
	if set.Incomplete != 1 || set.Orphans != 0 {
		t.Fatalf("incomplete/orphans = %d/%d, want 1/0", set.Incomplete, set.Orphans)
	}
}

func TestFormatSpans(t *testing.T) {
	set := BuildSpans(twoHopEvents(), lineCfg())
	out := FormatSpans(set, 5)
	for _, want := range []string{
		"1 complete packets",
		"VC allocation wait",
		"borrow-stall cycles",
		"switch allocation wait",
		"1 VA borrows (1 stall cycles), 1 SA bypass grants, 1 secondary-crossbar flits",
		"slowest 1 packets",
		"0->1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatSpans missing %q:\n%s", want, out)
		}
	}
	// Empty sets render a header, not a panic.
	if got := FormatSpans(SpanSet{}, 3); !strings.Contains(got, "0 complete packets") {
		t.Errorf("empty FormatSpans = %q", got)
	}
}

// TestHopSpanPhaseGuards: partially observed hops (window truncation)
// must never yield underflowed phase durations.
func TestHopSpanPhaseGuards(t *testing.T) {
	h := HopSpan{Arrive: 10}
	if h.VAWait() != 0 || h.SAWait() != 0 || h.Serialize() != 0 {
		t.Error("unobserved phases must report 0")
	}
	var p PacketSpan
	p.Injected, p.Ejected = 5, 3 // truncated window artifact
	if p.NetworkLatency() != 0 {
		t.Error("negative network latency must clamp to 0")
	}
	_ = sim.Cycle(0)
}
