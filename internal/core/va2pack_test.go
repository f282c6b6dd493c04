package core

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"gonoc/internal/arbiter"
	"gonoc/internal/rng"
	"gonoc/internal/topology"
)

// TestVA2PackedGrantsAsPerPort holds the VA stage-2 request layout — one
// bit per input VC, input VC (p, v) at bit p*VCs+v of 64-bit words
// (va2Bit) — to the layout it replaced, one VCs-bit word per input port:
// twin (Ports·VCs)-input arbiters, one handed each form of the same
// random request sets, must grant the same input and move to the same
// priority, grant after grant. The shapes run from a set narrower than
// one word to 4,096 inputs in 64 words, with VC counts that do and do
// not divide 64.
func TestVA2PackedGrantsAsPerPort(t *testing.T) {
	src := rng.New(41)
	for _, P := range []int{3, 5, 7, 64} {
		for _, V := range []int{1, 4, 13, 64} {
			n := P * V
			perPort, packed := make([]uint64, P), make([]uint64, (n+63)/64)
			a, b := arbiter.NewRoundRobin(n), arbiter.NewRoundRobin(n)
			for i := 0; i < 10000; i++ {
				if i%97 == 0 {
					// Now and then scan from anywhere, not only past the
					// last winner.
					prio := src.Intn(n)
					a.SetPrio(prio)
					b.SetPrio(prio)
				}
				clear(packed)
				for p := range perPort {
					w := src.Uint64() & spanWord(0, V)
					switch i % 4 {
					case 0: // sparse
						w &= src.Uint64() & src.Uint64() & src.Uint64()
					case 1: // about half
						w &= src.Uint64()
					case 2: // dense
						w |= src.Uint64() & spanWord(0, V)
					case 3: // about one port
						if src.Intn(P) != 0 {
							w = 0
						}
					}
					perPort[p] = w
					for m := w; m != 0; m &= m - 1 {
						k, bit := va2Bit(p, bits.TrailingZeros64(m), V)
						packed[k] |= bit
					}
				}
				wp, wv, okA := a.GrantWords(perPort, V)
				k, bit, okB := b.GrantWords(packed, 64)
				if okA != okB || okA && wp*V+wv != k*64+bit || a.Prio() != b.Prio() {
					t.Fatalf("%dx%d grant %d: per port (%d, %d) ok=%v prio %d, packed (%d, %d) ok=%v prio %d",
						P, V, i, wp, wv, okA, a.Prio(), k, bit, okB, b.Prio())
				}
			}
		}
	}
}

// TestCheckOccupancyNamesStaleVA2Request plants one stale VA stage-2
// request bit between Ticks and requires CheckOccupancy to decode it back
// to all four of its coordinates: the downstream VC requested (output
// port and VC) and the input VC requesting it (input port and VC) — in a
// request set of one word, and at bit 15 of the second word of a set of
// two.
func TestCheckOccupancyNamesStaleVA2Request(t *testing.T) {
	for _, c := range []struct {
		vcs     int
		out     topology.Port
		dvc     int
		in      topology.Port
		v       int
		wantIdx string
	}{
		{4, topology.East, 3, topology.South, 2, "word 0"},
		{16, topology.North, 9, topology.West, 15, "word 1"}, // input 4*16+15
	} {
		cfg := ftCfg()
		cfg.VCs = c.vcs
		r := MustNew(4, topology.NewMesh(3, 3), cfg)
		if err := r.CheckOccupancy(); err != nil {
			t.Fatal(err)
		}
		k, bit := va2Bit(int(c.in), c.v, cfg.VCs)
		r.va2req()[(int(c.out)*cfg.VCs+c.dvc)*r.va2Words()+k] |= bit
		err := r.CheckOccupancy()
		if err == nil {
			t.Fatalf("%d VCs: CheckOccupancy accepted a stale request of %v vc%d for %v vc%d", c.vcs, c.in, c.v, c.out, c.dvc)
		}
		for _, want := range []string{
			fmt.Sprintf("output %v vc%d ", c.out, c.dvc),
			fmt.Sprintf("input %v vc%d ", c.in, c.v),
			c.wantIdx,
		} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%d VCs: %q does not name %q", c.vcs, err, want)
			}
		}
	}
}
