// Package crossbar models the router's switch stage: the paper's
// protected P×P multiplexer crossbar (Figure 6), which adds a secondary
// path to every output port of the baseline crossbar (Figure 3c).
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
//
// Fault free, the protected crossbar "behaves just like the baseline
// crossbar", so one type serves both designs: the baseline router only
// ever traverses the primary paths, where a faulty Mk is final.
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

// maxRadix is the largest crossbar: its state is one bit per mux in a
// word.
const maxRadix = 64

// Protected is the fault-tolerant crossbar of Figure 6. Fault sites are
// the P primary output muxes Mk and the P secondary paths (the demux leg
// plus output mux Pk serving each output). Its state is three words, bit k
// of each describing mux or output k, so a router holds it by value.
type Protected struct {
	p         int
	muxFaulty uint64 // primary pi:1 mux Mk
	secFaulty uint64 // secondary path (demux leg + Pk) of output k
	inUse     uint64 // pi:1 mux k carries a flit this cycle
}

// radixError is what NewProtected panics with: a value, so that the
// constructor stays small enough to inline and a router's crossbar held
// by value costs no allocation.
type radixError int

func (p radixError) Error() string {
	return fmt.Sprintf("crossbar: protected crossbar needs radix 3..%d, got %d", maxRadix, int(p))
}

// NewProtected returns a protected P×P crossbar. It panics if p < 3,
// since the secondary-path assignment needs at least three outputs, or if
// p > 64.
func NewProtected(p int) *Protected {
	if p < 3 || p > maxRadix {
		panic(radixError(p))
	}
	return &Protected{p: p}
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

// setBit returns w with bit k set to f.
func setBit(w uint64, k int, f bool) uint64 {
	if f {
		return w | 1<<uint(k)
	}
	return w &^ (1 << uint(k))
}

// SetMuxFaulty marks primary mux M_out faulty.
func (x *Protected) SetMuxFaulty(out int, f bool) { x.muxFaulty = setBit(x.muxFaulty, out, f) }

// MuxFaulty reports whether primary mux M_out is faulty.
func (x *Protected) MuxFaulty(out int) bool { return x.muxFaulty>>uint(out)&1 != 0 }

// SetSecondaryFaulty marks output out's secondary path (demux leg + Pk
// mux) faulty.
func (x *Protected) SetSecondaryFaulty(out int, f bool) { x.secFaulty = setBit(x.secFaulty, out, f) }

// SecondaryFaulty reports whether output out's secondary path is faulty.
func (x *Protected) SecondaryFaulty(out int) bool { return x.secFaulty>>uint(out)&1 != 0 }

// PrimaryUsable reports whether output out's regular path works.
func (x *Protected) PrimaryUsable(out int) bool { return !x.MuxFaulty(out) }

// SecondaryUsable reports whether output out's secondary path works: the
// neighbouring mux and the demux/Pk leg must both be fault-free.
func (x *Protected) SecondaryUsable(out int) bool {
	return !x.SecondaryFaulty(out) && !x.MuxFaulty(x.SecondaryOf(out))
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

// BeginCycle resets per-cycle mux usage. Call once per simulated cycle
// before any Traverse.
func (x *Protected) BeginCycle() { x.inUse = 0 }

// Traverse moves a flit from input port in to output port out, via the
// secondary path when secondary is true. The pi:1 mux actually used is
// M_out for the primary path and M_{secondary(out)} otherwise; each pi:1
// mux carries at most one flit per cycle, so a second traversal through
// it is an allocation bug reported as ErrMuxInUse.
func (x *Protected) Traverse(in, out int, secondary bool) error {
	mux := out
	if secondary {
		if x.SecondaryFaulty(out) {
			return ErrSecondaryFaulty
		}
		mux = x.SecondaryOf(out)
	}
	if x.MuxFaulty(mux) {
		return ErrMuxFaulty
	}
	if x.inUse>>uint(mux)&1 != 0 {
		return ErrMuxInUse
	}
	x.inUse |= 1 << uint(mux)
	return nil
}
