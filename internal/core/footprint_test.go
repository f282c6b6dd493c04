package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"gonoc/internal/arbiter"
	"gonoc/internal/router"
	"gonoc/internal/topology"
	"gonoc/internal/vc"
)

// TestRouterFootprint pins the router's state at its width: a VC's
// Section V fields, an arbiter's priority and the latch entries are a
// byte or two each (router.Config caps ports and VCs at 64, the depth
// and rotate period at 32,767), so the structs a router holds one of per
// VC, arbiter or cycle's output are these sizes; the router itself holds
// its rows in four blocks behind one slice header each (credits has a
// second), so it is at most 576 bytes (888 when every row had a header
// of its own); and core.New of the paper's protected 5-port, 4-VC router
// allocates at most maxNewBytes in maxNewObjects objects, 3,576 bytes in
// 14 measured, all of which the live heap keeps (the live heap of the
// layout before read 4,340 bytes alone and 4,488 in a whole-package
// run, and 7,932 alone when every one of those fields was an int). A
// field widened back to int, or a row given its own header again, fails
// here with the struct it grew named.
func TestRouterFootprint(t *testing.T) {
	for _, s := range []struct {
		name      string
		size, max uintptr
	}{
		{"vc.VC", unsafe.Sizeof(vc.VC{}), 40},
		{"arbiter.RoundRobin", unsafe.Sizeof(arbiter.RoundRobin{}), 6},
		{"arbiter.Bypassed", unsafe.Sizeof(arbiter.Bypassed{}), 14},
		{"router.Credit", unsafe.Sizeof(router.Credit{}), 3},
		{"router.OutFlit", unsafe.Sizeof(router.OutFlit{}), 16},
		{"core.CreditIn", unsafe.Sizeof(CreditIn{}), 3},
		{"core.FlitIn", unsafe.Sizeof(FlitIn{}), 16},
		{"core.Router", unsafe.Sizeof(Router{}), 576},
		{"core.grant", unsafe.Sizeof(grant{}), 4},
		{"core.saWinner", unsafe.Sizeof(saWinner{}), 4},
	} {
		if s.size > s.max {
			t.Errorf("%s is %d bytes, want <= %d: a field was added or widened", s.name, s.size, s.max)
		}
	}

	const maxNewBytes, maxNewObjects = 3640, 14
	cfg := router.DefaultConfig()
	cfg.FaultTolerant = true
	allocated, objects, kept := newAllocs(cfg)
	t.Logf("core.New allocates %d bytes in %d objects and keeps %d", allocated, objects, kept)
	if allocated > maxNewBytes || objects > maxNewObjects {
		t.Errorf("core.New allocates %d bytes in %d objects for the protected 5-port 4-VC router, want <= %d in %d", allocated, objects, maxNewBytes, maxNewObjects)
	}
	if kept > allocated {
		t.Errorf("core.New keeps %d bytes live, more than the %d it allocates", kept, allocated)
	}
}

// newAllocs returns what one core.New of cfg allocates, in bytes and
// objects, and the bytes it keeps live once built: the TotalAlloc,
// Mallocs and HeapAlloc deltas over many routers kept alive, divided
// among them, the least of three tries. The first two count only what
// is allocated; the live-heap delta also subtracts whatever other heap
// dies in the window, which is why a lone footprint read low here once.
func newAllocs(cfg router.Config) (allocated, objects, kept int) {
	const n = 256
	mesh := topology.NewMesh(8, 8)
	keep := make([]*Router, n)
	allocated, objects, kept = math.MaxInt, math.MaxInt, math.MaxInt
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = MustNew(9, mesh, cfg)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		allocated = min(allocated, int(after.TotalAlloc-before.TotalAlloc)/n)
		objects = min(objects, int(after.Mallocs-before.Mallocs)/n)
		kept = min(kept, int(after.HeapAlloc-before.HeapAlloc)/n)
		clear(keep)
	}
	return allocated, objects, kept
}

// TestWidestRouterCarriesAPacket drives a packet through the widest
// router router.Config allows, 64 ports of 64 VCs, from VC 62 of the last
// input port to the last VC of the last output port: the ports and VC
// indices the router holds in a byte reach their cap on the way, and the
// VA stage-2 arbiter of that downstream VC (4,096 inputs, a 16-bit
// priority, a request set of 64 words) grants input 63*64+62, its
// second-last. The flits, credits and priorities must come out whole,
// and a saved state must restore them.
func TestWidestRouterCarriesAPacket(t *testing.T) {
	cfg := router.Config{Ports: 64, VCs: 64, Depth: 4, Classes: 1, FaultTolerant: true}
	const last, inVC = topology.Port(63), 62
	b := newBench(t, cfg)
	if w, n := b.r.va2Words(), len(b.r.va2req()); w != 64 || n != 64*64*64 {
		t.Fatalf("VA stage-2 request sets of %d words, %d in all: want 64 per downstream VC, %d", w, n, 64*64*64)
	}
	var asked []int
	route := func(cur int, in topology.Port, vcIdx, dst int) (topology.Port, int, int, bool) {
		asked = append(asked, int(in), vcIdx)
		return last, 63, 64, true // the last output port, its last VC
	}
	b.r.SetRouteFn(route)
	pkt := b.sendPacket(last, inVC, 0, 5)
	b.run(10)
	if len(asked) != 2 || asked[0] != 63 || asked[1] != inVC {
		t.Fatalf("routing saw (in, vc) = %v, want (63, %d)", asked, inVC)
	}
	got := b.arrived[last]
	if len(got) != pkt.Size {
		t.Fatalf("%d flits left through port 63, want %d", len(got), pkt.Size)
	}
	for i, a := range got {
		if a.f.Pkt != pkt || a.f.Seq != i || a.dvc != 63 {
			t.Errorf("flit %d out: seq %d into VC %d, want seq %d into VC 63", i, a.f.Seq, a.dvc, i)
		}
	}
	if len(b.credits) != pkt.Size {
		t.Fatalf("%d credits upstream, want %d", len(b.credits), pkt.Size)
	}
	for i, c := range b.credits {
		if c.In != last || c.VC != inVC || c.VCFree != (i == pkt.Size-1) {
			t.Errorf("credit %d: %v, want in=63 vc=%d free only on the tail", i, c, inVC)
		}
	}
	for _, a := range []struct {
		name      string
		got, want int
	}{
		{"VA stage 2 of downstream VC (63, 63)", b.r.va2()[63*64+63].Prio(), 63*64 + inVC + 1},
		{"SA stage 1 of input port 63", b.r.sa1[63].Arb.Prio(), inVC + 1},
		{"credits of downstream VC (63, 63)", b.r.Credits(last, 63), cfg.Depth},
	} {
		if a.got != a.want {
			t.Errorf("%s: %d, want %d", a.name, a.got, a.want)
		}
	}
	if q := b.r.InputVC(last, inVC); !q.IsReset() {
		t.Errorf("input VC (63, %d) after the tail: %v, want it reset", inVC, q)
	}
	twin := MustNew(4, b.mesh, cfg)
	twin.RestoreState(b.r.SaveState(cloneWithPacket), cloneWithPacket)
	if !bytes.Equal(twin.AppendCanonical(nil), b.r.AppendCanonical(nil)) {
		t.Error("a saved 64-port 64-VC router restores into a different state")
	}
}
