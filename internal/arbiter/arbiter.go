// Package arbiter implements the arbitration primitives used by the
// router's separable virtual-channel and switch allocators.
//
// The paper's allocators (Figure 3a/3b) are built from v:1 and p:1
// arbiters. We model them as round-robin arbiters — the standard choice in
// NoC routers because they are small and starvation-free — plus the two
// fault-tolerance wrappers the paper adds: a fault flag on every arbiter
// (a permanently faulty arbiter grants nothing) and, for the first switch
// allocation stage, a bypass path that names a rotating "default winner"
// without arbitration (Section V-C, Figure 5).
package arbiter

import "fmt"

// RoundRobin is an n-input round-robin arbiter. Each Grant scans requests
// starting one past the previous winner, so every persistent requester is
// served within n grants (starvation freedom).
//
// A faulty arbiter grants nothing: the paper's fault model makes a broken
// arbiter unusable rather than byzantine (detection hardware is assumed to
// flag it, Section V).
type RoundRobin struct {
	n      int
	prio   int // index to scan first
	faulty bool
}

// NewRoundRobin returns an n-input arbiter. It panics if n < 1.
func NewRoundRobin(n int) *RoundRobin {
	if n < 1 {
		panic(fmt.Sprintf("arbiter: invalid width %d", n))
	}
	return &RoundRobin{n: n}
}

// Inputs returns the arbiter width.
func (a *RoundRobin) Inputs() int { return a.n }

// SetFaulty marks the arbiter permanently faulty (or repairs it, for
// testing).
func (a *RoundRobin) SetFaulty(f bool) { a.faulty = f }

// Faulty reports whether the arbiter is marked faulty.
func (a *RoundRobin) Faulty() bool { return a.faulty }

// Grant arbitrates among the requests (len must equal Inputs) and returns
// the granted input. ok is false when the arbiter is faulty or no input is
// requesting. A successful grant advances the priority pointer just past
// the winner.
func (a *RoundRobin) Grant(requests []bool) (winner int, ok bool) {
	if len(requests) != a.n {
		panic(fmt.Sprintf("arbiter: %d requests for %d-input arbiter", len(requests), a.n))
	}
	if a.faulty {
		return -1, false
	}
	for i := 0; i < a.n; i++ {
		idx := (a.prio + i) % a.n
		if requests[idx] {
			a.prio = (idx + 1) % a.n
			return idx, true
		}
	}
	return -1, false
}

// Prio returns the index the next Grant scans first. Together with
// SetPrio it lets checkpoint/restore and the model checker capture the
// arbiter's full mutable state (the priority pointer is the only state
// besides the fault flag).
func (a *RoundRobin) Prio() int { return a.prio }

// SetPrio restores the scan-first index saved by Prio. It panics when p
// is outside [0, Inputs()).
func (a *RoundRobin) SetPrio(p int) {
	if p < 0 || p >= a.n {
		panic(fmt.Sprintf("arbiter: prio %d out of range for %d-input arbiter", p, a.n))
	}
	a.prio = p
}

// Peek is Grant without the priority update, for lookahead logic and tests.
func (a *RoundRobin) Peek(requests []bool) (winner int, ok bool) {
	if len(requests) != a.n {
		panic(fmt.Sprintf("arbiter: %d requests for %d-input arbiter", len(requests), a.n))
	}
	if a.faulty {
		return -1, false
	}
	for i := 0; i < a.n; i++ {
		idx := (a.prio + i) % a.n
		if requests[idx] {
			return idx, true
		}
	}
	return -1, false
}

// Bypassed is the protected first-stage switch arbiter of Figure 5: a
// round-robin arbiter augmented with a bypass path — a 2:1 multiplexer
// selecting between the arbiter's output and a register naming a default
// winner. When the arbiter is faulty the bypass path "chooses an input VC
// as the winner without arbitration"; the default winner register rotates
// over time so no VC is starved by a static choice (Section V-C1).
//
// The bypass path itself (mux + register) is a fault site: with both the
// arbiter and its bypass faulty, switch allocation at this input port is
// impossible and the router has failed.
type Bypassed struct {
	Arb *RoundRobin
	// defaultWinner is the register driving the bypass mux.
	defaultWinner int
	// rotatePeriod is how many bypass grants occur before the default
	// winner advances; the paper only requires that "every input VC [be]
	// default winner at different points of time".
	rotatePeriod int
	grants       int
	bypassFaulty bool
}

// NewBypassed wraps an n-input arbiter with a bypass path. rotatePeriod
// must be >= 1; it controls how often the default winner rotates.
func NewBypassed(n, rotatePeriod int) *Bypassed {
	if rotatePeriod < 1 {
		panic(fmt.Sprintf("arbiter: invalid rotate period %d", rotatePeriod))
	}
	return &Bypassed{Arb: NewRoundRobin(n), rotatePeriod: rotatePeriod}
}

// SetBypassFaulty marks the bypass path (mux + register) faulty.
func (b *Bypassed) SetBypassFaulty(f bool) { b.bypassFaulty = f }

// BypassFaulty reports whether the bypass path is faulty.
func (b *Bypassed) BypassFaulty() bool { return b.bypassFaulty }

// Usable reports whether this input port can still perform first-stage
// switch allocation: either the arbiter or the bypass path must be intact.
func (b *Bypassed) Usable() bool { return !b.Arb.Faulty() || !b.bypassFaulty }

// InBypass reports whether grants are currently served by the bypass path.
func (b *Bypassed) InBypass() bool { return b.Arb.Faulty() && !b.bypassFaulty }

// BypassState returns the bypass register state: the current default
// winner and the number of bypass grants since it last rotated. Paired
// with SetBypassState for checkpoint/restore.
func (b *Bypassed) BypassState() (defaultWinner, grants int) {
	return b.defaultWinner, b.grants
}

// SetBypassState restores the bypass register state saved by
// BypassState. It panics when defaultWinner is outside [0, Inputs()).
func (b *Bypassed) SetBypassState(defaultWinner, grants int) {
	if defaultWinner < 0 || defaultWinner >= b.Arb.Inputs() {
		panic(fmt.Sprintf("arbiter: default winner %d out of range for %d-input arbiter", defaultWinner, b.Arb.Inputs()))
	}
	b.defaultWinner = defaultWinner
	b.grants = grants
}

// Grant arbitrates. In normal operation it defers to the round-robin
// arbiter. In bypass operation it returns the default winner regardless of
// the request vector — the caller (the router's SA stage) is responsible
// for transferring flits into the default winner's VC when that VC is
// empty, exactly as Section V-C1 describes. ok is false only when neither
// path is usable.
func (b *Bypassed) Grant(requests []bool) (winner int, ok bool) {
	if !b.Arb.Faulty() {
		return b.Arb.Grant(requests)
	}
	if b.bypassFaulty {
		return -1, false
	}
	w := b.defaultWinner
	b.grants++
	if b.grants >= b.rotatePeriod {
		b.grants = 0
		b.defaultWinner = (b.defaultWinner + 1) % b.Arb.Inputs()
	}
	return w, true
}
