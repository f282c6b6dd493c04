package arbiter

import (
	"fmt"
	"testing"
)

// refArbiter is the round-robin arbiter as it stood before request sets
// became machine words: the same three fields, and refGrant is its Grant
// verbatim — a modular scan over a []bool. It is the differential oracle
// for RoundRobin.arbitrate, the scan every production entry point now shares.
type refArbiter struct {
	n      int
	prio   int
	faulty bool
}

func (a *refArbiter) refGrant(requests []bool) (winner int, ok bool) {
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

// packWords packs a request vector width bits to a word, input k*width+i
// as bit i of word k: the layout GrantWords documents.
func packWords(requests []bool, width int) []uint64 {
	req := make([]uint64, (len(requests)+width-1)/width)
	for i, r := range requests {
		if r {
			req[i/width] |= 1 << uint(i%width)
		}
	}
	return req
}

// lockstep drives one reference arbiter and one production arbiter per
// entry point through the same sequence of request sets.
type lockstep struct {
	ref   refArbiter
	vec   *RoundRobin // Grant([]bool)
	word  *RoundRobin // GrantWord; nil when n > 64
	words *RoundRobin // GrantWords at width bits a word
	width int
}

func newLockstep(n, prio, width int, faulty bool) *lockstep {
	mk := func() *RoundRobin {
		a := NewRoundRobin(n)
		a.SetPrio(prio)
		a.SetFaulty(faulty)
		return a
	}
	l := &lockstep{ref: refArbiter{n: n, prio: prio, faulty: faulty}, vec: mk(), words: mk(), width: width}
	if n <= wordBits {
		l.word = mk()
	}
	return l
}

func (l *lockstep) setFaulty(f bool) {
	l.ref.faulty = f
	l.vec.SetFaulty(f)
	l.words.SetFaulty(f)
	if l.word != nil {
		l.word.SetFaulty(f)
	}
}

// grant arbitrates requests through every entry point and reports the
// first disagreement with the reference on winner, ok or Prio().
func (l *lockstep) grant(requests []bool) error {
	want, wantOK := l.ref.refGrant(requests)
	check := func(entry string, a *RoundRobin, got int, ok bool) error {
		if got != want || ok != wantOK || a.Prio() != l.ref.prio {
			return fmt.Errorf("%s(%v) = (%d, %v), prio %d; reference (%d, %v), prio %d",
				entry, requests, got, ok, a.Prio(), want, wantOK, l.ref.prio)
		}
		return nil
	}
	// Peek first: it must name the winner and leave the arbiter alone.
	if got, ok := l.vec.Peek(requests); got != want || ok != wantOK {
		return fmt.Errorf("Peek(%v) = (%d, %v), reference grants (%d, %v)", requests, got, ok, want, wantOK)
	}
	got, ok := l.vec.Grant(requests)
	if err := check("Grant", l.vec, got, ok); err != nil {
		return err
	}
	if l.word != nil {
		got, ok = l.word.GrantWord(packWords(requests, wordBits)[0])
		if err := check("GrantWord", l.word, got, ok); err != nil {
			return err
		}
	}
	word, bit, ok := l.words.GrantWords(packWords(requests, l.width), l.width)
	return check(fmt.Sprintf("GrantWords/%d", l.width), l.words, flat(word, bit, l.width, ok), ok)
}

// FuzzRoundRobinMatchesReference keeps the word scan equal to the modular
// scan it replaced. The input picks an arbiter of 1..200 inputs (so
// several 64-bit words with a ragged last one behind Grant), a start
// priority, a fault bit and a GrantWords word width of 1..64 (mostly not
// a divisor of 64), then a sequence of grants: each step is one control
// byte — bit 0 flips the fault flag first — followed by the request set,
// one bit per input. Every step goes through the []bool adapter, the
// one-word entry (when the arbiter fits one) and the k-word entry, and
// each must return the reference's winner and ok and land on its Prio().
func FuzzRoundRobinMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint16(1), uint8(63), false, []byte{0, 0b1010, 0, 0b0001, 0, 0b1111, 0, 0, 0, 0b1000})
	f.Add(uint8(4), uint16(4), uint8(0), false, []byte{0, 0b10000, 0, 0b00001, 0, 0b10001, 0, 0b11111, 0, 0b11111})
	f.Add(uint8(79), uint16(79), uint8(15), false, []byte("\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x80"))
	f.Add(uint8(199), uint16(130), uint8(6), true, []byte("\x01request words, ragged last\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x80"))
	f.Fuzz(func(t *testing.T, n uint8, prio uint16, width uint8, faulty bool, data []byte) {
		inputs := 1 + int(n)%200
		l := newLockstep(inputs, int(prio)%inputs, 1+int(width)%wordBits, faulty)
		requests := make([]bool, inputs)
		step := 1 + (inputs+7)/8
		for ; len(data) >= step; data = data[step:] {
			if data[0]&1 != 0 {
				l.setFaulty(!l.ref.faulty)
			}
			for i := range requests {
				requests[i] = data[1+i/8]>>(uint(i)%8)&1 != 0
			}
			if err := l.grant(requests); err != nil {
				t.Fatalf("%d inputs: %v", inputs, err)
			}
		}
	})
}

// TestRoundRobinMatchesReferenceExhaustive walks every request set and
// every start priority of the small arbiters the router is built from
// (and of a 9-input one at a word width that splits it 4+4+1), twice in a
// row so the priority each grant leaves behind is exercised as well.
func TestRoundRobinMatchesReferenceExhaustive(t *testing.T) {
	for _, tc := range []struct{ n, width int }{{1, 1}, {2, 2}, {4, 4}, {5, 5}, {5, 2}, {9, 4}} {
		requests := make([]bool, tc.n)
		for prio := 0; prio < tc.n; prio++ {
			for set := 0; set < 1<<uint(tc.n); set++ {
				for i := range requests {
					requests[i] = set>>uint(i)&1 != 0
				}
				l := newLockstep(tc.n, prio, tc.width, false)
				for rep := 0; rep < 2; rep++ {
					if err := l.grant(requests); err != nil {
						t.Fatalf("%d inputs from prio %d, grant %d: %v", tc.n, prio, rep, err)
					}
				}
			}
		}
	}
}

// TestGrantWordsShapePanics pins the request-word preconditions: the
// words must cover the arbiter's inputs exactly, and a bit that is no
// input must not win.
func TestGrantWordsShapePanics(t *testing.T) {
	for name, call := range map[string]func(){
		"too few words":        func() { NewRoundRobin(9).GrantWords(make([]uint64, 2), 4) },
		"too many words":       func() { NewRoundRobin(9).GrantWords(make([]uint64, 4), 4) },
		"zero width":           func() { NewRoundRobin(1).GrantWords(make([]uint64, 1), 0) },
		"width over a word":    func() { NewRoundRobin(65).GrantWords(make([]uint64, 1), 65) },
		"one word, 65 inputs":  func() { NewRoundRobin(65).GrantWord(1) },
		"bit beyond the width": func() { NewRoundRobin(8).GrantWords([]uint64{0, 1 << 5}, 4) },
		"bit beyond the input": func() { NewRoundRobin(3).GrantWord(1 << 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// TestBypassIgnoresRequestWord: in bypass mode GrantWord names the
// rotating default winner whatever the word says, exactly as Grant does
// whatever the vector says; with a healthy arbiter both defer to it.
func TestBypassIgnoresRequestWord(t *testing.T) {
	const n, period = 4, 3
	vec, word := NewBypassed(n, period), NewBypassed(n, period)
	sets := []uint64{0, 0b0100, 0b1111, 0b0001, 0, 0b1010, 0b1000, 0b0110, 0, 0b1111, 0b0001}
	run := func(mode string) {
		for i, set := range sets {
			requests := make([]bool, n)
			for v := range requests {
				requests[v] = set>>uint(v)&1 != 0
			}
			w1, ok1 := vec.Grant(requests)
			w2, ok2 := word.GrantWord(set)
			dw1, g1 := vec.BypassState()
			dw2, g2 := word.BypassState()
			if w1 != w2 || ok1 != ok2 || dw1 != dw2 || g1 != g2 || vec.Arb.Prio() != word.Arb.Prio() {
				t.Fatalf("%s, grant %d on %#b: vector (%d, %v) state %d/%d prio %d, word (%d, %v) state %d/%d prio %d",
					mode, i, set, w1, ok1, dw1, g1, vec.Arb.Prio(), w2, ok2, dw2, g2, word.Arb.Prio())
			}
			if mode == "bypass" && (!ok2 || w2 != (i/period)%n) {
				t.Fatalf("bypass grant %d on %#b = (%d, %v), want default winner %d", i, set, w2, ok2, (i/period)%n)
			}
		}
	}
	run("arbiter")
	vec.Arb.SetFaulty(true)
	word.Arb.SetFaulty(true)
	run("bypass")
	vec.SetBypassFaulty(true)
	word.SetBypassFaulty(true)
	if _, ok := word.GrantWord(0b1111); ok {
		t.Fatal("GrantWord granted with arbiter and bypass both faulty")
	}
}
