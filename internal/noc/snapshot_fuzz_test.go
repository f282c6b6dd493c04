package noc

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// internalFault flips one router-internal fault site chosen by sel and
// rolls the flip back if it leaves the router non-functional.
func internalFault(r *core.Router, sel, arg byte) {
	cfg := r.Config()
	p := topology.Port(int(arg) % cfg.Ports)
	v := int(arg>>3) % cfg.VCs
	set := []func(bool){
		func(f bool) { r.SetRCFault(p, 0, f) },
		func(f bool) { r.SetVA1Fault(p, v, f) },
		func(f bool) { r.SetVA2Fault(p, v, f) },
		func(f bool) { r.SetSA1Fault(p, f) },
		func(f bool) { r.SetSA2Fault(p, f) },
		func(f bool) { r.SetXBFault(p, f) },
	}
	if cfg.FaultTolerant {
		set = append(set,
			func(f bool) { r.SetRCFault(p, 1, f) },
			func(f bool) { r.SetSA1BypassFault(p, f) },
			func(f bool) { r.SetXBSecondaryFault(p, f) })
	}
	flip := set[int(sel)%len(set)]
	flip(true)
	if !r.Functional() {
		flip(false)
	}
}

// requireSameNetworks fails unless a and b agree on everything a
// snapshot covers: the canonical state and, beyond it, what the
// canonical encoding leaves out on purpose — statistics, mechanism
// counters, the clock and the next packet ID.
func requireSameNetworks(t *testing.T, when string, a, b *Network) {
	t.Helper()
	if !bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
		t.Fatalf("%s: canonical states differ", when)
	}
	if a.cycle != b.cycle || a.nextID != b.nextID {
		t.Fatalf("%s: cycle/nextID %d/%d vs %d/%d", when, a.cycle, a.nextID, b.cycle, b.nextID)
	}
	if sa, sb := a.Stats().Snapshot(), b.Stats().Snapshot(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: statistics differ:\n%+v\n%+v", when, sa, sb)
	}
	for id := range a.routers {
		if ca, cb := a.routers[id].Counters, b.routers[id].Counters; ca != cb {
			t.Fatalf("%s: router %d counters %+v vs %+v", when, id, ca, cb)
		}
		if err := a.routers[id].CheckOccupancy(); err != nil {
			t.Fatalf("%s: router %d: %v", when, id, err)
		}
	}
}

// FuzzSnapshotMatchesReference holds the flat snapshot against the
// object-graph one it replaced (snapshot_ref_test.go). The input picks a
// topology family and size, VCs, classes and depth, the router design,
// retransmission and a traffic seed; the bytes after the header are
// events: run some cycles (optionally only until a packet is being
// discarded at a dead link), break a router-internal site, kill or
// repair a link or a router, or check. A check snapshots the network through
// both layouts, restores each into its own twin — fresh the first time,
// still holding the previous check's state afterwards — and requires the
// twins to agree with each other and with the network, then to stay in
// agreement over 64 more cycles. It restores the same snapshot a second
// time (restore must not consume it) and once more from storage recycled
// from the previous check's state, which held more or less than this one.
// A third twin, standing at its own cycle, takes every node's
// NodeRecord instead and must encode and step as the first does.
func FuzzSnapshotMatchesReference(f *testing.F) {
	// The named seeds are in testdata/fuzz/FuzzSnapshotMatchesReference.
	f.Add([]byte{0, 0, 1, 0, 1, 0, 5, 7, 0, 0x20, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for len(data) < 8 {
			data = append(data, 0)
		}
		kind := fuzzTopo(data[0])
		w, h := 2+int(data[1]%4), 1+int(data[2]%4)
		rc := router.DefaultConfig()
		rc.Classes = 1 + int(data[3]%2)
		rc.VCs = rc.Classes * (2 + int(data[3]>>1%2)) // a torus needs two VCs per class
		rc.Depth = 1 + int(data[4]%5)
		rc.FaultTolerant = data[5]&1 == 0
		var retx RetxConfig
		if data[5]&2 != 0 {
			retx = RetxConfig{Timeout: 40 + sim.Cycle(data[5]>>2), MaxRetries: 3}
		}
		cfg := Config{Width: w, Height: h, Topo: kind, Router: rc, Workers: 1, Retx: retx}
		build := func(tr Traffic) *Network {
			n, err := New(cfg, tr)
			if err != nil {
				t.Skipf("%+v: %v", cfg, err)
			}
			t.Cleanup(n.Close)
			return n
		}
		nodes := w * h
		rate := 0.02 + float64(data[6]%16)*0.02
		src := traffic.NewSynthetic(nodes, rate, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), uint64(data[7])+1)
		n := build(src)
		// The twins take no traffic of their own: what they carry is what
		// a restore put there.
		twin, refTwin, nodeTwin := build(nil), build(nil), build(nil)

		var spare *Snapshot
		checks := 0
		check := func() {
			checks++
			ref := n.refSnapshot()
			snap := n.Snapshot()
			for _, round := range []string{"first restore", "second restore of the same snapshot"} {
				twin.Restore(snap)
				refTwin.refRestore(ref)
				requireSameNetworks(t, round+": restored vs snapshotted", twin, n)
				requireSameNetworks(t, round, twin, refTwin)
				twin.Run(64)
				refTwin.Run(64)
				requireSameNetworks(t, round+", 64 cycles on", twin, refTwin)
				if err := twin.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", round, err)
				}
			}
			twin.Restore(snap)
			for id := range nodes {
				nodeTwin.RestoreNode(id, n.SaveNode(id))
			}
			for k := 0; k <= 64; k++ {
				if !bytes.Equal(nodeTwin.AppendCanonical(nil), twin.AppendCanonical(nil)) {
					t.Fatalf("restored node by node, %d cycles on: canonical states differ", k)
				}
				twin.Step()
				nodeTwin.Step()
			}
			// spare holds the previous check's state, or nothing yet.
			spare = n.SnapshotInto(spare)
			twin.Restore(spare)
			refTwin.refRestore(ref)
			requireSameNetworks(t, "restore from recycled storage", twin, refTwin)
		}

		for ev := data[8:]; len(ev) >= 3 && checks < 6; ev = ev[3:] {
			id := int(ev[1]) % nodes
			switch ev[0] % 5 {
			case 0: // run; an odd third byte stops inside a dead-link discard
				for k := 1 + int(ev[1]%64); k > 0 && !(ev[2]&1 != 0 && n.MidDiscard()); k-- {
					n.Step()
				}
			case 1:
				internalFault(n.routers[id], ev[2], ev[1])
			case 2: // a port without a link, or a fault that would partition a torus layer, is refused
				p := topology.North + topology.Port(ev[2]%4)
				_ = n.SetLinkFault(id, p, !n.linkDead[id][p])
			case 3:
				_ = n.SetRouterFault(id, !n.routerDead[id])
			case 4:
				check()
			}
		}
		n.Run(16)
		check()
	})
}

// TestRestoreRefusesOtherConfigurations pins Restore's up-front refusal
// beyond the counts: a snapshot of a network with another buffer depth,
// another router design or another topology family — all with equal
// node, port, VC and class counts — panics naming both shapes and leaves
// the target's state hash and statistics as they were, and SnapshotInto
// treats such storage as foreign: fresh snapshot, donor untouched.
func TestRestoreRefusesOtherConfigurations(t *testing.T) {
	loaded := func(cfg Config) *Network {
		nodes := cfg.Width * cfg.Height
		src := traffic.NewSynthetic(nodes, 0.2, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), 11)
		n, err := New(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		n.Run(60)
		return n
	}
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	donorCfg := Config{Width: 3, Height: 3, Router: rc, Workers: 1}
	donor := loaded(donorCfg)
	offered := donor.Snapshot()
	donorCanon := donor.AppendCanonical(nil)
	donor.Run(20)

	for name, mutate := range map[string]func(*Config){
		"shallower": func(c *Config) { c.Router.Depth = 2 },
		"baseline":  func(c *Config) { c.Router.FaultTolerant = false },
		"torus":     func(c *Config) { c.Topo = "torus" },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := donorCfg
			mutate(&cfg)
			n := loaded(cfg)
			hash, st := n.StateHash(), n.Stats().Snapshot()

			func() {
				defer func() {
					msg, _ := recover().(string)
					for _, want := range []string{"noc: Restore", "depth:4", "protected:true", "topo:mesh", "depth:" + strconv.Itoa(cfg.Router.Depth), "topo:" + n.topo.Kind()} {
						if !strings.Contains(msg, want) {
							t.Errorf("Restore panicked with %q, which does not mention %q", msg, want)
						}
					}
				}()
				n.Restore(offered)
			}()
			if n.StateHash() != hash || !reflect.DeepEqual(n.Stats().Snapshot(), st) {
				t.Error("the refused Restore changed the network")
			}

			got := n.SnapshotInto(offered)
			if got == offered {
				t.Fatal("SnapshotInto reused storage of another configuration")
			}
			n.Run(10)
			n.Restore(got)
			if n.StateHash() != hash {
				t.Error("the fresh snapshot does not restore the state it was taken in")
			}
			donor.Restore(offered)
			if !bytes.Equal(donor.AppendCanonical(nil), donorCanon) {
				t.Error("the offered snapshot was modified although its configuration did not fit")
			}
		})
	}
}
