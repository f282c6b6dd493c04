package noc

import (
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/router"
	"gonoc/internal/sim"
)

// fakeRouter records flits the NI injects without simulating anything.
type fakeRouter struct {
	cfg router.Config
	got []router.InFlit
}

func (f *fakeRouter) AcceptFlit(in router.InFlit) { f.got = append(f.got, in) }
func (f *fakeRouter) Config() router.Config       { return f.cfg }

func newFakeRouter() *fakeRouter {
	cfg := router.DefaultConfig()
	cfg.Classes = 2
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &fakeRouter{cfg: cfg}
}

func TestNIAllocatesVCAndStreams(t *testing.T) {
	fr := newFakeRouter()
	ni := newNI(0, fr, nil, nil)
	p := &flit.Packet{Dst: 5, Class: flit.Request, Size: 3}
	ni.Offer(p)
	if ni.QueuedPackets() != 1 {
		t.Fatalf("queued = %d", ni.QueuedPackets())
	}
	for c := sim.Cycle(0); c < 3; c++ {
		ni.tick(c)
	}
	if len(fr.got) != 3 {
		t.Fatalf("router received %d flits, want 3", len(fr.got))
	}
	// All flits of the packet on the same request-class VC, in order.
	v := fr.got[0].VC
	if v >= 2 {
		t.Fatalf("request packet on VC %d (response class)", v)
	}
	for i, in := range fr.got {
		if in.VC != v || in.F.Seq != i {
			t.Fatalf("flit %d on VC %d seq %d", i, in.VC, in.F.Seq)
		}
	}
	if p.InjectedAt != 0 {
		t.Fatalf("InjectedAt = %d", p.InjectedAt)
	}
	if ni.Sending() {
		t.Fatal("still sending after last flit")
	}
}

func TestNIOneFlitPerCycle(t *testing.T) {
	fr := newFakeRouter()
	ni := newNI(0, fr, nil, nil)
	// Two packets in different classes: both get VCs immediately, but the
	// local link carries one flit per cycle.
	ni.Offer(&flit.Packet{Dst: 1, Class: flit.Request, Size: 2})
	ni.Offer(&flit.Packet{Dst: 2, Class: flit.Response, Size: 2})
	ni.tick(0)
	if len(fr.got) != 1 {
		t.Fatalf("%d flits in one cycle", len(fr.got))
	}
	for c := sim.Cycle(1); c < 4; c++ {
		ni.tick(c)
	}
	if len(fr.got) != 4 {
		t.Fatalf("total flits %d, want 4", len(fr.got))
	}
}

func TestNIRespectsCredits(t *testing.T) {
	fr := newFakeRouter()
	ni := newNI(0, fr, nil, nil)
	ni.Offer(&flit.Packet{Dst: 1, Class: flit.Request, Size: 6})
	for c := sim.Cycle(0); c < 10; c++ {
		ni.tick(c)
	}
	// Buffer depth 4: only 4 flits may be outstanding without credits.
	if len(fr.got) != 4 {
		t.Fatalf("sent %d flits without credits, want 4", len(fr.got))
	}
	ni.acceptCredit(router.Credit{In: localPort, VC: int8(fr.got[0].VC)})
	ni.tick(10)
	if len(fr.got) != 5 {
		t.Fatalf("sent %d flits after one credit, want 5", len(fr.got))
	}
}

func TestNIVCReuseAfterFree(t *testing.T) {
	fr := newFakeRouter()
	ni := newNI(0, fr, nil, nil)
	ni.Offer(&flit.Packet{Dst: 1, Class: flit.Request, Size: 1})
	ni.tick(0)
	v := fr.got[0].VC
	// Without a VCFree the same class's next packet uses the other VC.
	ni.Offer(&flit.Packet{Dst: 2, Class: flit.Request, Size: 1})
	ni.tick(1)
	if fr.got[1].VC == v {
		t.Fatalf("VC %d reused before VCFree", v)
	}
	// After VCFree (and credit return) the first VC is available again.
	ni.acceptCredit(router.Credit{In: localPort, VC: int8(v), VCFree: true})
	ni.acceptCredit(router.Credit{In: localPort, VC: int8(fr.got[1].VC), VCFree: true})
	ni.Offer(&flit.Packet{Dst: 3, Class: flit.Request, Size: 1})
	ni.tick(2)
	if fr.got[2].VC != v {
		t.Fatalf("freed VC %d not reused (got %d)", v, fr.got[2].VC)
	}
}

func TestNIEjectionCallback(t *testing.T) {
	fr := newFakeRouter()
	var done []*flit.Packet
	ni := newNI(3, fr, nil, func(p *flit.Packet, c sim.Cycle) { done = append(done, p) })
	p := &flit.Packet{Dst: 3, Size: 2}
	fs := flit.Segment(p)
	ni.consume(fs[0], 100)
	if len(done) != 0 {
		t.Fatal("callback before tail")
	}
	ni.consume(fs[1], 101)
	if len(done) != 1 || p.EjectedAt != 101 {
		t.Fatalf("ejection callback wrong: %d packets, EjectedAt=%d", len(done), p.EjectedAt)
	}
}

func TestNIWrongDestinationPanics(t *testing.T) {
	fr := newFakeRouter()
	ni := newNI(3, fr, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("misdelivered packet did not panic")
		}
	}()
	p := &flit.Packet{Dst: 9, Size: 1}
	ni.consume(flit.Segment(p)[0], 5)
}
