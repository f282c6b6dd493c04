package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/router"
	"gonoc/internal/topology"
)

// cloneWithPacket is the flit clone a network snapshot makes, without
// the memo: flit and packet both copied.
func cloneWithPacket(f *flit.Flit) *flit.Flit {
	c, p := *f, *f.Pkt
	c.Pkt = &p
	return &c
}

// sameState compares two saved states value by value, packets included,
// a nil flit buffer equal to an empty one.
func sameState(a, b *RouterState) bool {
	if a.ports != b.ports || a.vcs != b.vcs || a.depth != b.depth || a.protected != b.protected ||
		a.counters != b.counters || !slices.Equal(a.rec, b.rec) || len(a.flits) != len(b.flits) {
		return false
	}
	for i, f := range a.flits {
		g := b.flits[i]
		if f.Kind != g.Kind || f.Seq != g.Seq || *f.Pkt != *g.Pkt {
			return false
		}
	}
	return true
}

// TestRouterStateRejectsOtherConfigurations pins the up-front refusal:
// a state restored into a router of another VC count, buffer depth or
// protection panics before a single field is overwritten, and storage
// offered to SaveStateInto from such a router is left alone.
func TestRouterStateRejectsOtherConfigurations(t *testing.T) {
	all := func(p, v int) bool { return true }
	donorCfg := router.DefaultConfig()
	donorCfg.FaultTolerant = true
	donor := newFeeder(donorCfg, all)
	for i := 0; i < 50; i++ {
		donor.tick()
	}
	st := donor.r.SaveState(cloneWithPacket)
	stCopy := donor.r.SaveState(cloneWithPacket)

	for name, mutate := range map[string]func(*router.Config){
		"fewer-vcs": func(c *router.Config) { c.VCs = 2 },
		"shallower": func(c *router.Config) { c.Depth = 2 },
		"baseline":  func(c *router.Config) { c.FaultTolerant = false },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := donorCfg
			mutate(&cfg)
			f := newFeeder(cfg, all)
			for i := 0; i < 30; i++ {
				f.tick()
			}
			before := f.r.AppendCanonical(nil)
			counters := f.r.Counters

			if got := f.r.SaveStateInto(st, cloneWithPacket); got == st {
				t.Error("SaveStateInto reused storage saved from another configuration")
			}
			if !sameState(st, stCopy) {
				t.Error("the offered state was modified although its configuration did not fit")
			}
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "RestoreState") {
						t.Errorf("RestoreState of a foreign state: panic %q, want one naming both configurations", msg)
					}
				}()
				f.r.RestoreState(st, cloneWithPacket)
			}()
			if !bytes.Equal(f.r.AppendCanonical(nil), before) || f.r.Counters != counters {
				t.Error("the refused restore changed the router")
			}
		})
	}
}

// TestSaveStateRefusesWhatTheRecordCannotHold pins the two guards of the
// 16-bit record. A router whose credit counts would pass 16 bits (buffer
// depth 32768) is refused when it is built, so none reaches SaveState; and
// put, which writes the record's computed values, panics with the value
// named instead of truncating it into a state that restores wrong.
func TestSaveStateRefusesWhatTheRecordCannotHold(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.Depth = 1 << 15
	if _, err := New(4, topology.NewMesh(3, 3), cfg); err == nil || !strings.Contains(err.Error(), "32768 exceeds 32767") {
		t.Errorf("New of a depth-32768 router: error %v, want the depth bound named", err)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "32768 does not fit") {
			t.Errorf("put of 32768: panic %q, want the range check's", msg)
		}
	}()
	put(nil, 1<<15)
}
