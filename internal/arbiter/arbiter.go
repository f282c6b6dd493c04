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
//
// A request set is a machine word: bit i set means input i requests. The
// router's stages build request words straight from their occupancy masks
// and call GrantWord / GrantWords; Grant and Peek take the same set as a
// []bool and pack it first. All of them arbitrate through one scan
// (RoundRobin.arbitrate), so there is a single statement of the grant
// order.
package arbiter

import (
	"fmt"
	"math/bits"
)

// wordBits is the capacity of one request word.
const wordBits = 64

// RoundRobin is an n-input round-robin arbiter. Each grant goes to the
// first requester at or after one past the previous winner, wrapping
// around, so every persistent requester is served within n grants
// (starvation freedom).
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

// arbitrate is the arbiter's one scan: the first requesting input at or
// after prio, else (wrapping around) the first requesting input, returned
// as the word and bit that hold it; when grant is set, a winner also
// advances the priority pointer just past itself. The request set is
// held width bits to a word, input k*width+i being bit i of req[k]; bits
// at or above width must be clear. ok is false when the arbiter is faulty
// or no input is requesting. It panics when the words do not cover
// exactly Inputs() inputs or the winner is not an input.
func (a *RoundRobin) arbitrate(req []uint64, width int, grant bool) (word, bit int, ok bool) {
	if width < 1 || width > wordBits || len(req)*width < a.n || (len(req)-1)*width >= a.n {
		panic(fmt.Sprintf("arbiter: %d request words of %d bits for %d-input arbiter", len(req), width, a.n))
	}
	if a.faulty {
		return -1, -1, false
	}
	word = -1
	for k, base := 0, 0; k < len(req); k, base = k+1, base+width {
		w := req[k]
		if w == 0 {
			continue
		}
		// from is where prio falls in this word: at or below bit 0 once
		// the scan has reached prio's word, at or above width before it.
		if from := a.prio - base; from < width {
			if from > 0 {
				w = w >> uint(from) << uint(from)
			}
			if w != 0 {
				word, bit = k, bits.TrailingZeros64(w)
				break
			}
			w = req[k]
		}
		if word < 0 {
			word, bit = k, bits.TrailingZeros64(w) // the wrap-around candidate
		}
	}
	if word < 0 {
		return -1, -1, false
	}
	next := word*width + bit + 1
	if bit >= width || next > a.n {
		panic(fmt.Sprintf("arbiter: request bit %d of %d-bit word %d: not an input of %d-input arbiter", bit, width, word, a.n))
	}
	if grant {
		if next == a.n {
			next = 0
		}
		a.prio = next
	}
	return word, bit, true
}

// GrantWords arbitrates among the inputs whose bits are set in req, a
// request set held width bits to a word: input k*width+i is bit i of
// req[k], so a (ports x VCs)-input arbiter takes one word per port
// whatever the product is, and the winner comes back as (word, bit) —
// the port and the VC. len(req) must be the number of width-bit words
// that cover Inputs(). ok is false when the arbiter is faulty or no input
// is requesting. A successful grant advances the priority pointer just
// past the winner.
func (a *RoundRobin) GrantWords(req []uint64, width int) (word, bit int, ok bool) {
	return a.arbitrate(req, width, true)
}

// GrantWord is GrantWords for an arbiter of at most 64 inputs, whose
// request set is the single word req.
func (a *RoundRobin) GrantWord(req uint64) (winner int, ok bool) {
	one := [1]uint64{req}
	_, winner, ok = a.arbitrate(one[:], a.n, true)
	return winner, ok
}

// packBuf is the stack storage Grant and Peek pack their request words
// into: enough for 256 inputs, beyond which pack allocates.
type packBuf [4]uint64

// pack converts a request vector (len must equal Inputs) to request
// words: one word of Inputs() bits when that fits, otherwise 64-bit words
// with a ragged last one.
func (a *RoundRobin) pack(requests []bool, buf *packBuf) (req []uint64, width int) {
	if len(requests) != a.n {
		panic(fmt.Sprintf("arbiter: %d requests for %d-input arbiter", len(requests), a.n))
	}
	if k := (a.n + wordBits - 1) / wordBits; k <= len(buf) {
		req = buf[:k]
	} else {
		req = make([]uint64, k)
	}
	for i, r := range requests {
		if r {
			req[i/wordBits] |= 1 << (uint(i) % wordBits)
		}
	}
	return req, min(a.n, wordBits)
}

// flat returns the input held in bit `bit` of width-bit request word
// `word`, -1 when there is none.
func flat(word, bit, width int, ok bool) int {
	if !ok {
		return -1
	}
	return word*width + bit
}

// Grant arbitrates among the requests (len must equal Inputs) and returns
// the granted input. ok is false when the arbiter is faulty or no input is
// requesting. A successful grant advances the priority pointer just past
// the winner.
func (a *RoundRobin) Grant(requests []bool) (winner int, ok bool) {
	var buf packBuf
	req, width := a.pack(requests, &buf)
	word, bit, ok := a.GrantWords(req, width)
	return flat(word, bit, width, ok), ok
}

// Prio returns the index the next grant scans first. Together with
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
	var buf packBuf
	req, width := a.pack(requests, &buf)
	word, bit, ok := a.arbitrate(req, width, false)
	return flat(word, bit, width, ok), ok
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
	// Arb is the arbiter the bypass path stands in for, held by value so
	// a router can keep its Bypassed arbiters in one flat slice.
	Arb RoundRobin
	// defaultWinner is the register driving the bypass mux.
	defaultWinner int
	// rotatePeriod is how many bypass grants occur before the default
	// winner advances; the paper only requires that "every input VC [be]
	// default winner at different points of time".
	//noc:derived immutable configuration, fixed at construction
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
	return &Bypassed{Arb: *NewRoundRobin(n), rotatePeriod: rotatePeriod}
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
	return b.bypass()
}

// GrantWord is Grant over a request word (see RoundRobin.GrantWord); in
// bypass operation the word is ignored just as the vector is.
func (b *Bypassed) GrantWord(req uint64) (winner int, ok bool) {
	if !b.Arb.Faulty() {
		return b.Arb.GrantWord(req)
	}
	return b.bypass()
}

// bypass serves one grant from the bypass path: the default winner, which
// rotates on every rotatePeriod-th grant.
func (b *Bypassed) bypass() (winner int, ok bool) {
	if b.bypassFaulty {
		return -1, false
	}
	w := b.defaultWinner
	b.grants++
	if b.grants >= b.rotatePeriod {
		b.grants = 0
		b.defaultWinner++
		if b.defaultWinner == b.Arb.Inputs() {
			b.defaultWinner = 0
		}
	}
	return w, true
}
