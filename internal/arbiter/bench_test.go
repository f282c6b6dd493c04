package arbiter

import (
	"fmt"
	"testing"
)

var benchWinner int

// BenchmarkGrant is the bottom rung of the layer ladder (arbiter ->
// core's BenchmarkTick -> noc's BenchmarkStep): one grant through each
// entry point, with one requester (the scan has to find it) and with
// every input requesting (the winner is at the priority pointer), at the
// router's arbiter sizes — 4 and 5 inputs (VA stage 1, the switch
// allocator), 20 (VA stage 2 at 5 ports x 4 VCs) and 80 (5 x 16, beyond
// one word). vector is the []bool adapter, word the one-word entry, words
// the k-word entry at one word per port.
func BenchmarkGrant(b *testing.B) {
	for _, n := range []int{4, 5, 20, 80} {
		width := n
		if n >= 20 {
			width = n / 5
		}
		for _, load := range []string{"one", "all"} {
			requests := make([]bool, n)
			for i := range requests {
				requests[i] = load == "all" || i == n/2
			}
			name := fmt.Sprintf("n=%d/%s", n, load)
			b.Run("vector/"+name, func(b *testing.B) {
				a := NewRoundRobin(n)
				for i := 0; i < b.N; i++ {
					w, _ := a.Grant(requests)
					benchWinner += w
				}
			})
			if n <= wordBits {
				b.Run("word/"+name, func(b *testing.B) {
					a, req := NewRoundRobin(n), packWords(requests, wordBits)[0]
					for i := 0; i < b.N; i++ {
						w, _ := a.GrantWord(req)
						benchWinner += w
					}
				})
			}
			b.Run("words/"+name, func(b *testing.B) {
				a, req := NewRoundRobin(n), packWords(requests, width)
				for i := 0; i < b.N; i++ {
					_, w, _ := a.GrantWords(req, width)
					benchWinner += w
				}
			})
		}
	}
}
