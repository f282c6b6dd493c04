package arbiter

import (
	"testing"
	"testing/quick"
)

func TestGrantSingleRequester(t *testing.T) {
	a := NewRoundRobin(4)
	req := []bool{false, false, true, false}
	w, ok := a.Grant(req)
	if !ok || w != 2 {
		t.Fatalf("Grant = (%d, %v), want (2, true)", w, ok)
	}
}

func TestGrantNoRequesters(t *testing.T) {
	a := NewRoundRobin(3)
	if w, ok := a.Grant([]bool{false, false, false}); ok {
		t.Fatalf("granted %d with no requests", w)
	}
}

func TestRoundRobinRotation(t *testing.T) {
	a := NewRoundRobin(3)
	all := []bool{true, true, true}
	var order []int
	for i := 0; i < 6; i++ {
		w, ok := a.Grant(all)
		if !ok {
			t.Fatal("grant failed with all requesting")
		}
		order = append(order, w)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

func TestStarvationFreedom(t *testing.T) {
	// With persistent requests on all inputs, every input must win within
	// n consecutive grants.
	a := NewRoundRobin(5)
	all := []bool{true, true, true, true, true}
	lastWin := map[int]int{}
	for i := 0; i < 100; i++ {
		w, _ := a.Grant(all)
		if prev, seen := lastWin[w]; seen && i-prev > 5 {
			t.Fatalf("input %d starved for %d grants", w, i-prev)
		}
		lastWin[w] = i
	}
}

func TestFaultyArbiterGrantsNothing(t *testing.T) {
	a := NewRoundRobin(4)
	a.SetFaulty(true)
	if _, ok := a.Grant([]bool{true, true, true, true}); ok {
		t.Fatal("faulty arbiter granted")
	}
	if !a.Faulty() {
		t.Fatal("Faulty() = false after SetFaulty(true)")
	}
	a.SetFaulty(false)
	if _, ok := a.Grant([]bool{true, false, false, false}); !ok {
		t.Fatal("repaired arbiter does not grant")
	}
}

func TestPeekDoesNotAdvance(t *testing.T) {
	a := NewRoundRobin(2)
	all := []bool{true, true}
	w1, _ := a.Peek(all)
	w2, _ := a.Peek(all)
	if w1 != w2 {
		t.Fatal("Peek advanced priority")
	}
	g, _ := a.Grant(all)
	if g != w1 {
		t.Fatal("Grant disagrees with Peek")
	}
}

func TestGrantWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("width mismatch did not panic")
		}
	}()
	NewRoundRobin(3).Grant([]bool{true})
}

// TestNewRoundRobinPanics pins the width bounds: at least one input, and
// no more than the 16-bit width and priority pointer hold.
func TestNewRoundRobinPanics(t *testing.T) {
	for _, n := range []int{0, maxInputs + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRoundRobin(%d) did not panic", n)
				}
			}()
			NewRoundRobin(n)
		}()
	}
	if a := NewRoundRobin(maxInputs); a.Inputs() != maxInputs {
		t.Errorf("NewRoundRobin(%d) has %d inputs", maxInputs, a.Inputs())
	}
}

// Property: a grant is always an actually-requesting input (when the
// arbiter is healthy).
func TestGrantOnlyRequesters(t *testing.T) {
	a := NewRoundRobin(8)
	f := func(mask uint8) bool {
		req := make([]bool, 8)
		any := false
		for i := range req {
			req[i] = mask&(1<<i) != 0
			any = any || req[i]
		}
		w, ok := a.Grant(req)
		if !any {
			return !ok
		}
		return ok && req[w]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBypassNormalOperation(t *testing.T) {
	b := NewBypassed(4, 1)
	w, ok := b.Grant([]bool{false, true, false, false})
	if !ok || w != 1 {
		t.Fatalf("normal grant = (%d, %v)", w, ok)
	}
	if dw, n := b.BypassState(); dw != 0 || n != 0 {
		t.Fatalf("healthy arbiter moved the bypass register to (%d, %d)", dw, n)
	}
}

func TestBypassDefaultWinnerRotates(t *testing.T) {
	b := NewBypassed(4, 1)
	b.Arb.SetFaulty(true)
	if !b.Usable() {
		t.Fatal("bypass path unusable with only the arbiter faulty")
	}
	var wins []int
	none := []bool{false, false, false, false}
	for i := 0; i < 8; i++ {
		w, ok := b.Grant(none)
		if !ok {
			t.Fatal("bypass grant failed")
		}
		wins = append(wins, w)
	}
	// With rotate period 1, the default winner must cycle 0,1,2,3,0,...
	for i, w := range wins {
		if w != i%4 {
			t.Fatalf("bypass winners %v, want rotation", wins)
		}
	}
}

func TestBypassRotatePeriod(t *testing.T) {
	b := NewBypassed(2, 3)
	b.Arb.SetFaulty(true)
	var wins []int
	for i := 0; i < 7; i++ {
		w, _ := b.Grant([]bool{false, false})
		wins = append(wins, w)
	}
	want := []int{0, 0, 0, 1, 1, 1, 0}
	for i := range want {
		if wins[i] != want[i] {
			t.Fatalf("wins %v, want %v", wins, want)
		}
	}
}

func TestBypassBothFaultyFails(t *testing.T) {
	b := NewBypassed(4, 1)
	b.Arb.SetFaulty(true)
	b.SetBypassFaulty(true)
	if b.Usable() {
		t.Fatal("Usable with both paths faulty")
	}
	if _, ok := b.Grant([]bool{true, true, true, true}); ok {
		t.Fatal("granted with both paths faulty")
	}
}

func TestBypassFaultyAloneHarmless(t *testing.T) {
	// A faulty bypass path with a healthy arbiter must not affect grants.
	b := NewBypassed(3, 1)
	b.SetBypassFaulty(true)
	if !b.Usable() {
		t.Fatal("not usable with healthy arbiter")
	}
	w, ok := b.Grant([]bool{false, false, true})
	if !ok || w != 2 {
		t.Fatalf("grant = (%d, %v)", w, ok)
	}
}

func TestNewBypassedPanics(t *testing.T) {
	for _, period := range []int{0, maxInputs + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBypassed with period %d did not panic", period)
				}
			}()
			NewBypassed(4, period)
		}()
	}
}
