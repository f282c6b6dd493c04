package noc

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/router"
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

// FuzzSnapshotMatchesReference is FuzzCommitMatchesReference on one
// worker with a fifth event, a round trip on demand (lockstep.roundTrip),
// at most six of them: inside a dead-link discard, say. A last round
// trip follows 16 cycles after the events, and 64 cycles after it.
func FuzzSnapshotMatchesReference(f *testing.F) {
	// The named seeds are in testdata/fuzz/FuzzSnapshotMatchesReference.
	f.Add([]byte{0, 0, 1, 0, 1, 0, 5, 7, 0, 0x20, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for len(data) < 8 {
			data = append(data, 0)
		}
		l := newLockstep(t, fuzzConfig(data, 2), 0.02+float64(data[6]%16)*0.02, data[7], 11)
		checks := 0
		for ev := data[8:]; len(ev) >= 3 && checks < 6; ev = ev[3:] {
			if ev[0]%5 == 4 {
				l.roundTrip()
				checks++
			} else {
				l.event(ev[0]%5, ev[1], ev[2])
			}
		}
		l.run(16)
		l.roundTrip()
		l.run(64)
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
