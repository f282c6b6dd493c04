package vc

import (
	"reflect"
	"testing"
	"testing/quick"

	"gonoc/internal/flit"
	"gonoc/internal/topology"
)

func mkFlits(n int) []*flit.Flit {
	return flit.Segment(&flit.Packet{ID: 1, Size: n})
}

func TestFIFOOrder(t *testing.T) {
	v := NewVC(0, 4)
	fs := mkFlits(4)
	for _, f := range fs {
		v.Push(f)
	}
	for i, want := range fs {
		if got := v.Pop(); got != want {
			t.Fatalf("pop %d returned wrong flit", i)
		}
	}
	if !v.Empty() {
		t.Fatal("VC not empty after draining")
	}
}

func TestFrontNonDestructive(t *testing.T) {
	v := NewVC(0, 2)
	fs := mkFlits(2)
	v.Push(fs[0])
	if v.Front() != fs[0] || v.Front() != fs[0] {
		t.Fatal("Front changed state")
	}
	if v.Len() != 1 {
		t.Fatal("Front consumed a flit")
	}
	if NewVC(0, 1).Front() != nil {
		t.Fatal("Front of empty VC not nil")
	}
}

func TestFreeAccounting(t *testing.T) {
	v := NewVC(0, 4)
	if v.Free() != 4 || v.Depth() != 4 {
		t.Fatalf("fresh VC: Free=%d Depth=%d", v.Free(), v.Depth())
	}
	fs := mkFlits(3)
	v.Push(fs[0])
	v.Push(fs[1])
	if v.Free() != 2 || v.Len() != 2 {
		t.Fatalf("after 2 pushes: Free=%d Len=%d", v.Free(), v.Len())
	}
	v.Pop()
	if v.Free() != 3 {
		t.Fatalf("after pop: Free=%d", v.Free())
	}
}

func TestOverflowPanics(t *testing.T) {
	v := NewVC(0, 1)
	fs := mkFlits(2)
	v.Push(fs[0])
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	v.Push(fs[1])
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pop from empty did not panic")
		}
	}()
	NewVC(0, 1).Pop()
}

func TestResetPacketState(t *testing.T) {
	v := NewVC(2, 4)
	v.G = Active
	v.R = topology.East
	v.OutVC = 3
	v.FSP = true
	v.SP = topology.South
	v.ResetPacketState()
	if v.G != Idle || v.OutVC != None || v.FSP {
		t.Fatalf("reset left state %+v", v)
	}
}

func TestClearBorrow(t *testing.T) {
	v := NewVC(1, 4)
	v.R2 = topology.West
	v.VF = true
	v.ID = 3
	v.ClearBorrow()
	if v.VF || v.ID != None {
		t.Fatalf("borrow fields not cleared: %+v", v)
	}
}

func TestFindLenderPrefersFirstIdleOrActive(t *testing.T) {
	ip := NewInputPort(topology.North, 4, 4)
	ip.VCs[0].G = VCAlloc // requester
	ip.VCs[1].G = Routing // busy: not eligible
	ip.VCs[2].G = Active  // eligible
	ip.VCs[3].G = Idle    // eligible but later
	if l := ip.FindLender(0, nil); l != 2 {
		t.Fatalf("lender = %d, want 2", l)
	}
}

func TestFindLenderSkipsFaultyAndLending(t *testing.T) {
	ip := NewInputPort(topology.North, 4, 4)
	for _, v := range ip.VCs {
		v.G = Idle
	}
	ip.VCs[1].VF = true // already lending
	faulty := func(i int) bool { return i == 2 }
	if l := ip.FindLender(0, faulty); l != 3 {
		t.Fatalf("lender = %d, want 3", l)
	}
}

func TestFindLenderNone(t *testing.T) {
	ip := NewInputPort(topology.North, 2, 4)
	ip.VCs[0].G = VCAlloc
	ip.VCs[1].G = VCAlloc // also allocating: not eligible this cycle
	if l := ip.FindLender(0, nil); l != None {
		t.Fatalf("lender = %d, want None", l)
	}
}

func TestFindLenderExcludesSelf(t *testing.T) {
	ip := NewInputPort(topology.North, 2, 4)
	ip.VCs[0].G = Idle
	ip.VCs[1].G = Routing
	if l := ip.FindLender(0, nil); l != None {
		t.Fatalf("lender = %d; requester must not lend to itself", l)
	}
}

func TestNewInputPortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewInputPort with 0 VCs did not panic")
		}
	}()
	NewInputPort(topology.Local, 0, 4)
}

// TestNewPortsIsOneBlock pins the router block's layout: the slab and the
// ports' VCs are the same VCs, port-major; every buffer has exactly the
// depth as capacity, so a full VC refuses the next push instead of
// spilling into its neighbour's buffer; and the whole block is four
// allocations however many ports and VCs it holds.
func TestNewPortsIsOneBlock(t *testing.T) {
	const ports, nvc, depth = 5, 4, 3
	vcs, in := NewPorts(ports, nvc, depth)
	if len(vcs) != ports*nvc || len(in) != ports {
		t.Fatalf("got %d VCs in %d ports", len(vcs), len(in))
	}
	for p := range in {
		if in[p].Port != topology.Port(p) || len(in[p].VCs) != nvc {
			t.Fatalf("port %d: %v with %d VCs", p, in[p].Port, len(in[p].VCs))
		}
		for v, q := range in[p].VCs {
			if q != &vcs[p*nvc+v] || q.Index != v || q.Depth() != depth || !q.IsReset() {
				t.Fatalf("port %d VC %d: not slab entry %d in its reset state (index %d, depth %d)", p, v, p*nvc+v, q.Index, q.Depth())
			}
		}
	}
	for i := 0; i < depth; i++ {
		vcs[0].Push(&flit.Flit{Pkt: &flit.Packet{Size: 1}, Seq: i})
	}
	if vcs[1].Len() != 0 || vcs[0].Free() != 0 {
		t.Fatalf("filling VC 0 left VC 1 with %d flits and VC 0 with %d free slots", vcs[1].Len(), vcs[0].Free())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a push past the depth did not panic")
			}
		}()
		vcs[0].Push(&flit.Flit{Pkt: &flit.Packet{Size: 1}})
	}()
	if got := testing.AllocsPerRun(20, func() { NewPorts(ports, nvc, depth) }); got != 4 {
		t.Errorf("NewPorts allocates %.0f objects, want 4", got)
	}
}

// Property: any sequence of pushes and pops preserves FIFO order and never
// loses or duplicates flits.
func TestFIFOProperty(t *testing.T) {
	f := func(ops []bool) bool {
		v := NewVC(0, 8)
		next := 0
		var expect []int
		seq := 0
		for _, push := range ops {
			if push && v.Free() > 0 {
				fl := &flit.Flit{Pkt: &flit.Packet{Size: 1}, Seq: seq}
				seq++
				v.Push(fl)
				expect = append(expect, fl.Seq)
			} else if !push && v.Len() > 0 {
				got := v.Pop()
				if got.Seq != expect[next] {
					return false
				}
				next++
			}
		}
		return v.Len() == len(expect)-next
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStrings(t *testing.T) {
	v := NewVC(0, 2)
	if v.String() == "" {
		t.Fatal("empty VC string")
	}
	for _, g := range []GState{Idle, Routing, VCAlloc, Active, GState(9)} {
		if g.String() == "" {
			t.Fatal("empty GState string")
		}
	}
}

// TestIsResetFollowsEveryField pins IsReset to the fields it must cover:
// a fresh VC is in its reset state, writing any one field (or buffering
// a flit) takes it out, and Clear, ResetPacketState and ClearBorrow
// together bring it back. A VC field added without a line in IsReset
// would let a saved router state leave a non-reset VC out.
func TestIsResetFollowsEveryField(t *testing.T) {
	writes := map[string]func(*VC){
		"buf":    func(v *VC) { v.Push(&flit.Flit{Pkt: &flit.Packet{Size: 1}, Kind: flit.HeadTail}) },
		"G":      func(v *VC) { v.G = Routing },
		"R":      func(v *VC) { v.R = topology.East },
		"OutVC":  func(v *VC) { v.OutVC = 0 },
		"R2":     func(v *VC) { v.R2 = topology.South },
		"VF":     func(v *VC) { v.VF = true },
		"ID":     func(v *VC) { v.ID = 0 },
		"SP":     func(v *VC) { v.SP = topology.West },
		"FSP":    func(v *VC) { v.FSP = true },
		"Detour": func(v *VC) { v.Detour = true },
		"DvcLo":  func(v *VC) { v.DvcLo = 1 },
		"DvcHi":  func(v *VC) { v.DvcHi = 1 },
	}
	// Index: fixed at construction.
	if fields := reflect.TypeOf(VC{}).NumField(); fields != len(writes)+1 {
		t.Fatalf("VC has %d fields, the test writes %d: cover the new one here and in IsReset", fields, len(writes))
	}
	for name, write := range writes {
		v := NewVC(1, 2)
		if !v.IsReset() {
			t.Fatal("a new VC is not in its reset state")
		}
		write(v)
		if v.IsReset() {
			t.Errorf("IsReset ignores %s", name)
		}
		v.Clear()
		v.ResetPacketState()
		v.ClearBorrow()
		if !v.IsReset() {
			t.Errorf("Clear, ResetPacketState and ClearBorrow leave %s set: %+v", name, v)
		}
	}
}
