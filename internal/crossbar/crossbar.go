// Package crossbar models the router's switch stage: the baseline P×P
// multiplexer crossbar (Figure 3c) and the paper's protected crossbar
// (Figure 6), which adds a secondary path to every output port.
//
// In the baseline crossbar each output port k is driven by a single pi:1
// multiplexer Mk; a permanent fault in Mk makes output k unreachable. The
// protected crossbar adds a small demultiplexer after selected muxes and a
// 2:1 multiplexer Pk in front of every output, so each output is reachable
// through two different pi:1 muxes:
//
//	secondary(out₁) = M₂   secondary(out₂) = M_P   secondary(out_k) = M_{k−1}, k ≥ 3
//
// (0-based in code). For P = 5 this is exactly Figure 6's circuit — one
// 1:3 demux after M2 (serving out1 and out3), three 1:2 demuxes after
// M3..M5, five 2:1 output muxes — and it reproduces the paper's worked
// example (out 3 reached through M2, D1 and P3) and its fault analysis
// (M2 and M4 faulty is tolerable; any further mux fault causes failure).
package crossbar

import (
	"errors"
	"fmt"
)

// Traverse failure modes, returned as shared sentinel errors so the
// router's hot path pays no allocation when a grant meets a fresh fault:
// callers branch on nil-ness (and may errors.Is against these), and the
// fault site is identified by the grant being cancelled, not by error
// text.
var (
	// ErrMuxFaulty reports a traversal through a faulty pi:1 output mux.
	ErrMuxFaulty = errors.New("crossbar: output mux is faulty")
	// ErrMuxInUse reports a second traversal through a mux already
	// carrying a flit this cycle (an allocation bug in the caller).
	ErrMuxInUse = errors.New("crossbar: output mux already used this cycle")
	// ErrSecondaryFaulty reports a traversal directed through a faulty
	// secondary path.
	ErrSecondaryFaulty = errors.New("crossbar: secondary path is faulty")
)

// Baseline is the unprotected P×P crossbar: one pi:1 output multiplexer
// per output port, a single path to each output.
type Baseline struct {
	faulty []bool // output mux Mk
	inUse  []int  // input currently driving mux k this cycle, or -1
}

// NewBaseline returns a P×P crossbar. It panics if p < 2.
func NewBaseline(p int) *Baseline {
	if p < 2 {
		panic(fmt.Sprintf("crossbar: invalid radix %d", p))
	}
	x := &Baseline{faulty: make([]bool, p), inUse: make([]int, p)}
	x.BeginCycle()
	return x
}

// SetMuxFaulty marks output mux out permanently faulty.
func (x *Baseline) SetMuxFaulty(out int, f bool) { x.faulty[out] = f }

// MuxFaulty reports whether output mux out is faulty.
func (x *Baseline) MuxFaulty(out int) bool { return x.faulty[out] }

// Reachable reports whether output out can be reached at all.
func (x *Baseline) Reachable(out int) bool { return !x.faulty[out] }

// BeginCycle resets per-cycle mux usage. Call once per simulated cycle
// before any Traverse.
func (x *Baseline) BeginCycle() {
	for i := range x.inUse {
		x.inUse[i] = -1
	}
}

// Traverse moves a flit from input port in to output port out. It returns
// an error if the output mux is faulty or already carrying a flit this
// cycle (an allocation bug).
func (x *Baseline) Traverse(in, out int) error {
	if x.faulty[out] {
		return ErrMuxFaulty
	}
	if x.inUse[out] != -1 {
		return ErrMuxInUse
	}
	x.inUse[out] = in
	return nil
}

// Protected is the fault-tolerant crossbar of Figure 6. Fault sites are
// the P primary output muxes Mk and the P secondary paths (the demux leg
// plus output mux Pk serving each output).
type Protected struct {
	p         int
	muxFaulty []bool // primary pi:1 mux Mk
	secFaulty []bool // secondary path (demux leg + Pk) of output k
	inUse     []int  // input driving pi:1 mux k this cycle, or -1
}

// NewProtected returns a protected P×P crossbar. It panics if p < 3,
// since the secondary-path assignment needs at least three outputs.
func NewProtected(p int) *Protected {
	if p < 3 {
		panic(fmt.Sprintf("crossbar: protected crossbar needs radix >= 3, got %d", p))
	}
	x := &Protected{
		p:         p,
		muxFaulty: make([]bool, p),
		secFaulty: make([]bool, p),
		inUse:     make([]int, p),
	}
	x.BeginCycle()
	return x
}

// SecondaryOf returns the index of the pi:1 mux providing output out's
// secondary path.
func (x *Protected) SecondaryOf(out int) int {
	switch out {
	case 0:
		return 1
	case 1:
		return x.p - 1
	default:
		return out - 1
	}
}

// SetMuxFaulty marks primary mux M_out faulty.
func (x *Protected) SetMuxFaulty(out int, f bool) { x.muxFaulty[out] = f }

// MuxFaulty reports whether primary mux M_out is faulty.
func (x *Protected) MuxFaulty(out int) bool { return x.muxFaulty[out] }

// SetSecondaryFaulty marks output out's secondary path (demux leg + Pk
// mux) faulty.
func (x *Protected) SetSecondaryFaulty(out int, f bool) { x.secFaulty[out] = f }

// SecondaryFaulty reports whether output out's secondary path is faulty.
func (x *Protected) SecondaryFaulty(out int) bool { return x.secFaulty[out] }

// PrimaryUsable reports whether output out's regular path works.
func (x *Protected) PrimaryUsable(out int) bool { return !x.muxFaulty[out] }

// SecondaryUsable reports whether output out's secondary path works: the
// neighbouring mux and the demux/Pk leg must both be fault-free.
func (x *Protected) SecondaryUsable(out int) bool {
	return !x.secFaulty[out] && !x.muxFaulty[x.SecondaryOf(out)]
}

// Reachable reports whether output out can be reached through either path.
func (x *Protected) Reachable(out int) bool {
	return x.PrimaryUsable(out) || x.SecondaryUsable(out)
}

// AllReachable reports whether every output is reachable — the crossbar
// failure predicate used in SPF analysis.
func (x *Protected) AllReachable() bool {
	for out := 0; out < x.p; out++ {
		if !x.Reachable(out) {
			return false
		}
	}
	return true
}

// BeginCycle resets per-cycle mux usage.
func (x *Protected) BeginCycle() {
	for i := range x.inUse {
		x.inUse[i] = -1
	}
}

// Traverse moves a flit from input port in to output port out, via the
// secondary path when secondary is true. The pi:1 mux actually used is
// M_out for the primary path and M_{secondary(out)} otherwise; each pi:1
// mux carries at most one flit per cycle.
func (x *Protected) Traverse(in, out int, secondary bool) error {
	mux := out
	if secondary {
		if x.secFaulty[out] {
			return ErrSecondaryFaulty
		}
		mux = x.SecondaryOf(out)
	}
	if x.muxFaulty[mux] {
		return ErrMuxFaulty
	}
	if x.inUse[mux] != -1 {
		return ErrMuxInUse
	}
	x.inUse[mux] = in
	return nil
}
