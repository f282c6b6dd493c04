package crossbar

import (
	"errors"
	"testing"
	"testing/quick"
)

// TestBaselineTraverse is the baseline router's use of the crossbar: the
// primary paths only, one flit per output mux per cycle.
func TestBaselineTraverse(t *testing.T) {
	x := NewProtected(5)
	if err := x.Traverse(0, 3, false); err != nil {
		t.Fatalf("traverse failed: %v", err)
	}
	// Same mux twice in one cycle is an allocation bug.
	if err := x.Traverse(1, 3, false); !errors.Is(err, ErrMuxInUse) {
		t.Fatalf("double use of mux: %v, want ErrMuxInUse", err)
	}
	x.BeginCycle()
	if err := x.Traverse(1, 3, false); err != nil {
		t.Fatalf("traverse after BeginCycle failed: %v", err)
	}
}

// TestBaselineFaultBlocksOutput: on the primary path, the only one the
// baseline router drives, a faulty output mux blocks its output.
func TestBaselineFaultBlocksOutput(t *testing.T) {
	x := NewProtected(5)
	x.SetMuxFaulty(2, true)
	if x.PrimaryUsable(2) {
		t.Fatal("faulty output's primary path reported usable")
	}
	if err := x.Traverse(0, 2, false); !errors.Is(err, ErrMuxFaulty) {
		t.Fatalf("traverse through faulty mux: %v, want ErrMuxFaulty", err)
	}
	if !x.PrimaryUsable(1) || x.Traverse(0, 1, false) != nil {
		t.Fatal("healthy output unreachable")
	}
	x.SetMuxFaulty(2, false)
	if err := x.Traverse(0, 2, false); err != nil {
		t.Fatalf("traverse after repair failed: %v", err)
	}
}

func TestSecondaryAssignment(t *testing.T) {
	// 0-based mirror of the paper's 1-based assignment:
	// out1→M2, out2→M5, out3→M2, out4→M3, out5→M4.
	x := NewProtected(5)
	want := map[int]int{0: 1, 1: 4, 2: 1, 3: 2, 4: 3}
	for out, sec := range want {
		if got := x.SecondaryOf(out); got != sec {
			t.Errorf("SecondaryOf(%d) = %d, want %d", out, got, sec)
		}
	}
}

func TestPaperExampleOut3ViaM2(t *testing.T) {
	// Paper: "output port 3 ... can be reached through either multiplexer
	// M3 or M2". 0-based: out2 via M2 (primary) or M1 (secondary).
	x := NewProtected(5)
	x.SetMuxFaulty(2, true)
	if !x.Reachable(2) {
		t.Fatal("out3 unreachable with only M3 faulty")
	}
	if x.PrimaryUsable(2) || !x.SecondaryUsable(2) {
		t.Fatal("expected secondary path only")
	}
	if err := x.Traverse(0, 2, true); err != nil {
		t.Fatalf("secondary traverse failed: %v", err)
	}
}

func TestPaperMaxTwoFaults(t *testing.T) {
	// Paper (Section VIII-D): with M2 and M4 faulty the crossbar still
	// functions; a further fault in M1, M3 or M5 (or in the correction
	// circuitry) causes failure. 0-based: M1 and M3 faulty is tolerable.
	x := NewProtected(5)
	x.SetMuxFaulty(1, true)
	x.SetMuxFaulty(3, true)
	if !x.AllReachable() {
		t.Fatal("crossbar failed with the paper's tolerable 2-fault pattern")
	}
	for _, extra := range []int{0, 2, 4} {
		y := NewProtected(5)
		y.SetMuxFaulty(1, true)
		y.SetMuxFaulty(3, true)
		y.SetMuxFaulty(extra, true)
		if y.AllReachable() {
			t.Errorf("crossbar survived third mux fault M%d", extra+1)
		}
	}
}

func TestSecondaryPathFault(t *testing.T) {
	x := NewProtected(5)
	x.SetMuxFaulty(2, true)       // out2 loses primary
	x.SetSecondaryFaulty(2, true) // and its secondary path
	if x.Reachable(2) {
		t.Fatal("out2 reachable with both paths faulty")
	}
	if x.AllReachable() {
		t.Fatal("AllReachable with a dead output")
	}
	// Minimum faults to cause failure is 2 — matches Section VIII-D.
}

func TestSecondaryFaultAloneHarmless(t *testing.T) {
	x := NewProtected(5)
	x.SetSecondaryFaulty(0, true)
	if !x.AllReachable() {
		t.Fatal("secondary-only fault made an output unreachable")
	}
	if err := x.Traverse(0, 0, false); err != nil {
		t.Fatalf("primary traverse failed: %v", err)
	}
	if err := x.Traverse(1, 0, true); err == nil {
		t.Fatal("traverse via faulty secondary succeeded")
	}
}

func TestProtectedMuxConflict(t *testing.T) {
	// A flit using M1 as out1's primary and a flit using M1 as out0's
	// secondary conflict on the same physical mux.
	x := NewProtected(5)
	if err := x.Traverse(0, 1, false); err != nil {
		t.Fatalf("primary traverse failed: %v", err)
	}
	if err := x.Traverse(2, 0, true); err == nil {
		t.Fatal("mux sharing conflict not detected")
	}
	x.BeginCycle()
	if err := x.Traverse(2, 0, true); err != nil {
		t.Fatalf("secondary traverse failed after new cycle: %v", err)
	}
}

func TestFaultyPrimaryTraverseFails(t *testing.T) {
	x := NewProtected(5)
	x.SetMuxFaulty(4, true)
	if err := x.Traverse(0, 4, false); err == nil {
		t.Fatal("traverse through faulty primary succeeded")
	}
	if err := x.Traverse(0, 4, true); err != nil {
		t.Fatalf("secondary traverse failed: %v", err)
	}
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewProtected(2) },
		func() { NewProtected(maxRadix + 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("constructor did not panic on invalid radix")
				}
			}()
			f()
		}()
	}
}

// Property: in a fault-free protected crossbar every output's primary and
// secondary muxes differ, every output is reachable, and the secondary
// assignment uses each mux as a secondary at most... (M2 serves two in the
// P=5 case, so: every mux serves at most two outputs as secondary and the
// assignment is total).
func TestSecondaryAssignmentProperty(t *testing.T) {
	f := func(radix uint8) bool {
		p := int(radix%8) + 3 // 3..10
		x := NewProtected(p)
		load := make([]int, p)
		for out := 0; out < p; out++ {
			sec := x.SecondaryOf(out)
			if sec == out || sec < 0 || sec >= p {
				return false
			}
			load[sec]++
			if !x.Reachable(out) {
				return false
			}
		}
		for _, l := range load {
			if l > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: any single mux fault leaves all outputs reachable (the paper's
// single-fault tolerance claim for the XB stage).
func TestSingleFaultToleranceProperty(t *testing.T) {
	for _, p := range []int{3, 4, 5, 6, 7, 8, 9, maxRadix} {
		for m := 0; m < p; m++ {
			x := NewProtected(p)
			x.SetMuxFaulty(m, true)
			if !x.AllReachable() {
				t.Errorf("radix %d: single fault in M%d broke reachability", p, m)
			}
		}
	}
}
