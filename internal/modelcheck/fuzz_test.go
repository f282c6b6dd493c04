package modelcheck

import (
	"bytes"
	"testing"

	"gonoc/internal/noc"
	"gonoc/internal/rng"
)

// FuzzModelCheckConformance checks the explorer's state machinery
// against straight-line simulation: a random choice sequence is (a)
// executed on a machine that round-trips every state through node
// records and its shadow key after every choice — restoring, after a
// perturbing step, the nodes whose section the step changed, exactly
// how Explore rebuilds a parent — and (b) replayed linearly on a fresh
// network. Both must land in the same canonical state with the same
// delivery ledger. Any divergence means a state the explorer believes
// reachable differs from what the simulator actually does, voiding the
// tier's proofs.
func FuzzModelCheckConformance(f *testing.F) {
	f.Add(uint64(1), uint8(24), uint8(0), uint8(0))
	f.Add(uint64(42), uint8(60), uint8(3), uint8(1))
	f.Add(uint64(7), uint8(40), uint8(8), uint8(5))
	f.Add(uint64(999), uint8(10), uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, steps, faultSel, sab uint8) {
		base := RingOn("", 2, 2)
		sweep := SingleFaultSweep(base)
		sc := sweep[int(faultSel)%len(sweep)]
		if sab&1 != 0 {
			// Arm sabotage on fault-free variants only: a scenario that
			// cannot deliver is fine here, conformance is about state
			// agreement, but keep the space diverse.
			sc.SabotageNode = int(sab>>1) % 4
			sc.VCs, sc.Classes, sc.Depth = 1, 1, 1
			sc.LinkFaults = nil
			sc.RouterFaults = nil
		}

		// Machine A: random walk with a node-record round trip after
		// every choice, recording the trace.
		a, err := newMachine(&sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		r := rng.New(seed)
		var trace []Choice
		var buf []Choice
		nodes := sc.Width * sc.Height
		recs, secs := make([]*noc.NodeRecord, nodes), make([][]byte, nodes)
		for i := 0; i < int(steps)%64; i++ {
			buf = a.choices(buf)
			c := buf[r.Intn(len(buf))]
			a.apply(c)
			trace = append(trace, c)
			// Round-trip through the explorer's state representation:
			// the restored state must be canonically identical to the
			// live one.
			before := append([]byte(nil), a.key(nil)...)
			for node := range recs {
				recs[node] = a.n.SaveNode(node)
				secs[node] = a.n.AppendCanonicalNode(nil, node)
			}
			shad := string(a.appendShadowKey(nil))
			a.n.Step() // perturb
			for node, rec := range recs {
				if !bytes.Equal(a.n.AppendCanonicalNode(nil, node), secs[node]) {
					a.n.RestoreNode(node, rec)
				}
			}
			a.restoreShadowKey(shad)
			if after := a.key(nil); !bytes.Equal(before, after) {
				t.Fatalf("step %d (%v): node-record round trip diverged from live state", i, c)
			}
		}

		// Machine B: the same choices replayed linearly on a fresh
		// network, no snapshots involved.
		b, err := newMachine(&sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		for _, c := range trace {
			b.apply(c)
		}

		// Full canonical bytes, not Explore's interned keys: section ids
		// are only meaningful within one exploration.
		ak, bk := a.key(nil), b.key(nil)
		if !bytes.Equal(ak, bk) {
			t.Fatalf("explorer-style execution and linear replay disagree after %d choices:\n%v", len(trace), trace)
		}
		if len(a.led.delivered) != len(b.led.delivered) {
			t.Fatalf("delivery ledgers disagree: %d vs %d packets", len(a.led.delivered), len(b.led.delivered))
		}
		for k := range a.led.delivered {
			if !b.led.delivered[k] {
				t.Fatalf("delivery %x present in explorer run, missing from linear replay", k)
			}
		}
	})
}
